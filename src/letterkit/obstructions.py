"""Obstruction families (matchings, co-matchings, stacked paths), the
(p, q, r) profile, and the alphabet-size bound functions built on it."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, contains_induced, stacked_path


def max_induced_matching(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Largest m with an induced mK2 (chosen edges pairwise non-adjacent and
    with no cross edges), plus a witness edge set.

    Memoized branch-and-bound over available-vertex masks.
    """
    memo: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    closed = [g.rows[v] | 1 << v for v in range(g.n)]

    def best(mask: int):
        if not mask:
            return 0, ()
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        # skip v entirely
        res = best(mask & ~(1 << v))
        # or match v to a neighbor and drop both closed neighborhoods
        nbrs = g.rows[v] & mask
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            count, edges = best(mask & ~(closed[v] | closed[u]))
            if count + 1 > res[0]:
                res = (count + 1, ((v, u),) + edges)
        memo[mask] = res
        return res

    return best((1 << g.n) - 1)


@lru_cache(maxsize=None)
def _stacked(r: int) -> Graph:
    return stacked_path(r)[0]


def max_stacked_path(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Largest r with an induced stacked path R_r, plus a witness map.

    Climbing r is valid because R_{r-1} embeds in R_r (its levels 2..r).
    """
    r = 0
    witness: tuple[int, ...] = ()
    while 4 * (r + 1) <= g.n:
        hit = contains_induced(g, _stacked(r + 1))
        if hit is None:
            break
        r += 1
        witness = hit
    return r, witness


@dataclass(frozen=True)
class ClassProfile:
    """The least forbidden sizes: no induced pK2, co-(qK2), or R_r."""

    p: int
    q: int
    r: int

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "q": self.q, "r": self.r})


def profile(g: Graph) -> ClassProfile:
    p = max_induced_matching(g)[0] + 1
    q = max_induced_matching(g.complement())[0] + 1
    r = max_stacked_path(g)[0] + 1
    return ClassProfile(p, q, r)


# -- Ramsey numbers and the bound tables -------------------------------------

_RAMSEY_EXACT = {(3, 3): 6, (3, 4): 9, (3, 5): 14, (4, 4): 18}


@lru_cache(maxsize=None)
def ramsey(p: int, q: int) -> int:
    """Upper bound on the Ramsey number R(p, q): exact small values where
    known, the Pascal-sum bound R(p-1,q) + R(p,q-1) elsewhere."""
    if p < 1 or q < 1:
        raise ValueError("Ramsey arguments must be >= 1")
    if p > q:
        p, q = q, p
    if p == 1:
        return 1
    if p == 2:
        return q
    if (p, q) in _RAMSEY_EXACT:
        return _RAMSEY_EXACT[(p, q)]
    return ramsey(p - 1, q) + ramsey(p, q - 1)


def _check_args(p: int, q: int, r: int):
    if p < 1 or q < 1 or r < 1:
        raise ValueError("p, q, r must all be >= 1")


@lru_cache(maxsize=None)
def g_bound(p: int, q: int, r: int) -> int:
    """Letters needed for all non-homogeneous modules at one prime node."""
    _check_args(p, q, r)
    return (ramsey(p, q) - 1) * max(f_paper(p - 1, q, r),
                                    f_paper(p, q - 1, r),
                                    f_paper(p, q, r - 1))


@lru_cache(maxsize=None)
def f_paper(p: int, q: int, r: int) -> int:
    """The source recurrence, taken verbatim: f = g + p + q + 2.

    Extended base cases: 0 at any zero argument (a sentinel keeping the
    recursion total; the bull-nose branch never reaches r = 0 on genuine
    inputs) and 1 whenever p = 1 or q = 1 (edgeless or complete graphs,
    lettericity 1).
    """
    if p == 0 or q == 0 or r == 0:
        return 0
    if p == 1 or q == 1:
        return 1
    return g_bound(p, q, r) + p + q + 2


@lru_cache(maxsize=None)
def f_impl(m: int, p: int, q: int, r: int) -> int:
    """The implementation-honest bound the composer is tested against.

    Per prime node the homogeneous modules cost up to m * max(p, q) letters
    (each of the at-most-m quotient letters spawns at most q-1 edgeless or
    p-1 complete copy letters beside itself); the union/join cases cost two
    fresh peel letters over both halves.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p == 0 or q == 0 or r == 0:
        return 0
    if p == 1 or q == 1:
        return 1
    _check_args(p, q, r)
    down = max(f_impl(m, p - 1, q, r), f_impl(m, p, q - 1, r),
               f_impl(m, p, q, r - 1))
    return max(2 * f_impl(m, p - 1, q, r) + 2,
               2 * f_impl(m, p, q - 1, r) + 2,
               (ramsey(p, q) - 1) * down + m * max(p, q) + 2)


@dataclass(frozen=True)
class BoundParams:
    m: int
    p: int
    q: int
    r: int
    g: int
    f_paper: int
    f_impl: int

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "p": self.p, "q": self.q,
                           "r": self.r, "g": self.g,
                           "f_paper": self.f_paper, "F_impl": self.f_impl})


def bounds(m: int, p: int, q: int, r: int) -> BoundParams:
    _check_args(p, q, r)
    if m < 1:
        raise ValueError("m must be >= 1")
    return BoundParams(m, p, q, r, g_bound(p, q, r), f_paper(p, q, r),
                       f_impl(m, p, q, r))
