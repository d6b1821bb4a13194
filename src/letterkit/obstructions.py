"""Obstruction families (matchings, co-matchings as matchings of the
complement, stacked paths) with one search function each, the (p, q, r)
profile record, and the alphabet-size bound functions built on it.
``composer.profile`` computes the profile, running the searches on prime
quotients weighted by their modules' values."""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _bits, _record


def max_induced_matching(g: Graph, weights=None
                         ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Largest m with an induced mK2 (chosen edges pairwise non-adjacent and
    with no cross edges), plus a witness edge set.

    With ``weights``, the largest |F| + sum of ``weights[v]`` over v in I,
    for F an induced matching of ``g`` and I a vertex set with no neighbour
    in I or V(F), and F alone as the witness. With ``weights[v]`` =
    mim(M_v), the size of the largest induced matching of module M_v, it
    is mim(G) for G = H[M_1..M_h] and H = ``g``. Take an induced matching
    of G. If it has an edge inside M_v, it uses no vertex of a module
    adjacent to v in H, as that vertex would be adjacent to both ends; so
    its vertices in M_v lie on at most mim(M_v) edges inside M_v, and v
    goes in I. Otherwise M_v holds at most one matched vertex, since a
    second one would be adjacent to the first one's partner. These
    vertices, one per module, induce in G what their modules induce in H,
    so their edges form F, and no vertex of I is adjacent in H to one of I
    or V(F). Conversely one vertex per end of F and mim(M_v) edges in each
    M_v with v in I form an induced matching of G. As co-G is co-H
    inflated by the co-M_v, the search on co-H with mim(co-M_v) gives
    mim(co-G).

    Memoized branch-and-bound over available-vertex masks; with weights,
    the least available vertex v of positive weight has one more choice:
    put it in I and drop its closed neighbourhood.
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
        if weights and weights[v]:  # or put v in I
            count, edges = best(mask & ~closed[v])
            if count + weights[v] > res[0]:
                res = (count + weights[v], edges)
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

    try:
        return best((1 << g.n) - 1)
    finally:
        del best  # best refers to itself: free it at return or raise


def max_stacked_path(g: Graph, weights=None) -> tuple[int, tuple[int, ...]]:
    """Largest r with an induced stacked path R_r, and a witness map.

    With ``weights``, the largest R_r in G = H[M_1..M_h] for H = ``g`` and
    R_{weights[v]} the largest in M_v; the witness is then the P4s of H
    chosen below, outermost first, none for the levels a weight gives.

    On vertex masks X, r(X) is the larger of X's largest weight (0 with
    none) and 1 + the largest r(X & T) over induced P4s a-x-y-b of g[X],
    T = N(x) & N(y) - N(a) - N(b); the P4s chosen, outermost first, number
    R_r as ``stacked_path`` does. By induction r(X) is r of G_X, the union
    of X's modules. R_r is a bull whose nose, levels 2..r, is R_{r-1}: a
    P4 of H[X], one vertex per module, and an R_s of G_{X & T} make an
    R_{s+1}. A copy of R_r meets a module in all of it, a vertex or none,
    or a nose set (P4 is prime): one M_v holds it, or its level-1 P4 lies
    in a P4 of H[X] and its nose in modules of X & T. A P4 is skipped if
    1 + |T| // 4 + T's largest weight cannot win, as r(Y) is at most
    |Y| // 4 + Y's largest weight."""
    rows = g.rows
    heavy = sum(1 << v for v, w in enumerate(weights or ()) if w)

    def top(mask: int) -> int:  # the largest weight in mask
        return mask & heavy and max(weights[v] for v in _bits(mask & heavy))

    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def best(mask: int):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        res = top(mask), ()
        for x in _bits(mask):  # x-y is the P4's middle edge, x < y
            for y in _bits(rows[x] & mask & -(2 << x)):
                common = rows[x] & rows[y] & mask
                if 1 + common.bit_count() // 4 + top(common) <= res[0]:
                    continue
                ends = rows[y] & mask & ~rows[x] & ~(1 << x)
                for a in _bits(rows[x] & mask & ~rows[y] & ~(1 << y)):
                    for b in _bits(ends & ~rows[a]):
                        nose = common & ~rows[a] & ~rows[b]
                        if 1 + nose.bit_count() // 4 + top(nose) > res[0]:
                            r, levels = best(nose)
                            if r + 1 > res[0]:
                                res = r + 1, (a, x, y, b) + levels
        memo[mask] = res
        return res

    try:
        return best((1 << g.n) - 1)
    finally:
        del best  # best refers to itself: free it at return or raise


@_record
class ClassProfile:
    """The least forbidden sizes: no induced pK2, co-(qK2), or R_r."""

    p: int
    q: int
    r: int


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


@_record
class BoundParams:
    m: int
    p: int
    q: int
    r: int
    g: int
    f_paper: int
    f_impl: int


def bounds(m: int, p: int, q: int, r: int) -> BoundParams:
    # g_bound checks p, q and r first, then f_impl checks m
    return BoundParams(m, p, q, r, g_bound(p, q, r), f_paper(p, q, r),
                       f_impl(m, p, q, r))
