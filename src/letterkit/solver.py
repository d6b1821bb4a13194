"""Exhaustive lettericity search.

The outer loop enumerates the decoder matrices over k letters up to
letter renaming, by orderly generation; the inner loop builds the word
left to right, branching on (letter, vertex) pairs. Its state is one
candidate vertex bitmask per letter, so placing a vertex costs k mask
operations and a dead end is found by one cover test per candidate.
Results are canonical: the first success in enumeration order is the
minimal successful decoder matrix in row-major order, with the
lexicographically least word for that decoder.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, ScaleError
from .letters import Decoder, Lettering, symbol, verify
from .obstructions import max_induced_matching


class BudgetExceeded(RuntimeError):
    """Raised when a search runs past its wall-clock budget."""


@dataclass(frozen=True)
class LetterClassConstraint:
    """Disjoint vertex classes; each class must share one letter and
    distinct classes must use distinct letters."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("constraint classes must be nonempty")
            if seen & cls:
                raise ValueError("constraint classes must be pairwise disjoint")
            seen |= cls

    @staticmethod
    def of(*vertex_sets) -> "LetterClassConstraint":
        return LetterClassConstraint(tuple(frozenset(s) for s in vertex_sets))


@dataclass(frozen=True)
class SolveReport:
    outcome: str  # "found" | "exhausted"
    lettering: Lettering | None
    decoders_tried: int
    nodes_expanded: int
    elapsed: float

    def to_json(self) -> str:
        from .letters import lettering_to_json
        obj = {
            "outcome": self.outcome,
            "decoders_tried": self.decoders_tried,
            "nodes_expanded": self.nodes_expanded,
            "elapsed": self.elapsed,
        }
        if self.lettering is not None:
            obj["lettering"] = json.loads(lettering_to_json(self.lettering))
        return json.dumps(obj)


# -- decoder enumeration ----------------------------------------------------

def _canonical_matrices(k: int):
    """Yield, in increasing row-major code order, the decoder matrices
    (row bitmasks; bit j of row i is entry (i, j)) that are least in their
    orbit under letter renaming, which maps entry (i, j) to (sigma[i],
    sigma[j]). Code order compares the rows read from column 0.

    Orderly generation (Read 1978; McKay, J. Algorithms 1998) appends rows
    in increasing order. Row i of a renaming is known once row sigma[i] is,
    so each renaming is compared with the prefix as far as the known rows
    go and the tie is carried down: a larger renaming is dropped, and a
    smaller one cuts the prefix. At full depth the test is exact."""
    full = 1 << k
    # key[row] reads the row from column 0, so keys order rows by code
    key = [sum((row >> j & 1) << (k - 1 - j) for j in range(k))
           for row in range(full)]
    by_key = sorted(range(full), key=key.__getitem__)
    # each renaming but the identity, with the keys of the rows under its
    # column permutation and the number of leading rows tied so far
    renamings = [(sigma, [key[sum((row >> sigma[j] & 1) << j
                                  for j in range(k))]
                          for row in range(full)], 0)
                 for sigma in itertools.permutations(range(k))][1:]
    rows: list[int] = []

    def extend(tied):
        r = len(rows) + 1
        for row in by_key:
            rows.append(row)
            still = []
            for sigma, moved, i in tied:
                while i < r and sigma[i] < r:
                    a, b = moved[rows[sigma[i]]], key[rows[i]]
                    if a != b:
                        break
                    i += 1
                else:
                    still.append((sigma, moved, i))
                    continue
                if a < b:
                    break  # a smaller renaming: cut
            else:
                if r == k:
                    yield tuple(rows)
                else:
                    yield from extend(still)
            rows.pop()

    yield from extend(renamings)


@lru_cache(maxsize=None)
def _kept_matrices(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_canonical_matrices(k))


def _equivalent_letter_pair(matrix: tuple[int, ...], k: int) -> bool:
    """True if two letters are interchangeable and mergeable: equal rows and
    columns elsewhere, and all four entries among the pair equal. Words
    using both letters then collapse to k-1 letters."""
    for a, b in itertools.combinations(range(k), 2):
        inner = {matrix[a] >> a & 1, matrix[a] >> b & 1,
                 matrix[b] >> a & 1, matrix[b] >> b & 1}
        if len(inner) == 1 and all(
                (matrix[a] >> x & 1) == (matrix[b] >> x & 1) and
                (matrix[x] >> a & 1) == (matrix[x] >> b & 1)
                for x in range(k) if x not in (a, b)):
            return True
    return False


# -- word search -------------------------------------------------------------

def _search_word(g: Graph, k: int, matrix: tuple[int, ...],
                 class_of: list[int], class_kind: list[int],
                 require_all: bool, counter: list[int],
                 deadline: float | None):
    """Find the lexicographically least word (letters ascending, then vertex
    ids ascending) decoding to ``g`` under ``matrix``; None if exhausted.

    The state is one candidate vertex mask per letter: ``cand[b]`` holds the
    unplaced vertices that may still take letter b. Placing v with letter a
    keeps in ``cand[b]`` only v's neighbours when ``matrix[a]`` has bit b
    (a later b must then be adjacent to v) and only its non-neighbours
    otherwise. A branch is dead once some unplaced vertex is left in no
    mask; the candidates for letter a are the bits of ``cand[a]``, lowest
    first.
    """
    # letters compatible with each class's clique/co-clique kind
    kind_mask = [sum(1 << a for a in range(k)
                     if kind in (-1, matrix[a] >> a & 1))
                 for kind in class_kind]
    if 0 in kind_mask:
        return None
    rows = g.rows
    full = (1 << g.n) - 1
    non = [full & ~rows[v] & ~(1 << v) for v in range(g.n)]
    keeps_row = [[matrix[a] >> b & 1 for b in range(k)] for a in range(k)]

    word: list[int] = []
    placed: list[int] = []
    class_letter = [-1] * len(class_kind)
    letters_bound = 0  # letters claimed by some class
    used_letters = 0

    def dfs(cand: list[int], rest: int) -> bool:
        nonlocal letters_bound, used_letters
        if not rest:
            return True
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("lettering search ran past its budget")
        if require_all and k - used_letters.bit_count() > rest.bit_count():
            return False
        for a in range(k):
            todo = cand[a]
            if not todo:
                continue
            bit = 1 << a
            keeps = keeps_row[a]
            # the vertices left in some mask after placing any v with a are
            # (rows[v] & on) | (non[v] & off)
            on = off = 0
            for m, keep in zip(cand, keeps):
                if keep:
                    on |= m
                else:
                    off |= m
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                c = class_of[v]
                if c >= 0:
                    if class_letter[c] >= 0:
                        if class_letter[c] != a:
                            continue
                    elif (letters_bound & bit) or not kind_mask[c] & bit:
                        continue
                counter[0] += 1
                # place v with letter a
                row, row_non = rows[v], non[v]
                left = rest ^ low
                if row & on | row_non & off != left:
                    continue
                nxt = [m & row if keep else m & row_non
                       for m, keep in zip(cand, keeps)]
                placed.append(v)
                word.append(a)
                bound_here = c >= 0 and class_letter[c] < 0
                if bound_here:
                    class_letter[c] = a
                    letters_bound |= bit
                prev_used = used_letters
                used_letters |= bit
                if dfs(nxt, left):
                    return True
                used_letters = prev_used
                if bound_here:
                    class_letter[c] = -1
                    letters_bound &= ~bit
                word.pop()
                placed.pop()
        return False

    if dfs([full] * k, full):
        return word, placed
    return None


def is_k_letterable(g: Graph, k: int,
                    constraint: LetterClassConstraint | None = None,
                    *, max_n: int = 12, max_k: int = 5,
                    budget: float | None = None,
                    _require_all: bool = False) -> SolveReport:
    """Complete search for a k-lettering of ``g`` (optionally constrained).

    Returns the canonically least lettering on success, or "exhausted" after
    the full (symmetry-reduced) space is covered. ``budget`` is wall-clock
    seconds; exceeding it raises :class:`BudgetExceeded`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n > max_n:
        raise ScaleError(f"graph exceeds the solver scale guard n <= {max_n}")
    if k > max_k:
        raise ScaleError(f"k exceeds the solver scale guard k <= {max_k}")
    if g.n == 0:
        raise ValueError("graph must be nonempty")

    start = time.monotonic()
    deadline = start + budget if budget is not None else None

    class_of = [-1] * g.n
    class_kind: list[int] = []  # 1 clique, 0 co-clique, -1 free (singleton)
    if constraint is not None:
        for ci, cls in enumerate(constraint.classes):
            members = sorted(cls)
            if members and not 0 <= members[0] <= members[-1] < g.n:
                raise ValueError("constraint class contains bad vertex ids")
            for v in members:
                class_of[v] = ci
            kinds = {g.adjacent(u, v)
                     for u, v in itertools.combinations(members, 2)}
            if len(kinds) > 1:
                # a same-letter set is a clique or a co-clique, never mixed
                return SolveReport("exhausted", None, 0, 0,
                                   time.monotonic() - start)
            class_kind.append(int(kinds.pop()) if kinds else -1)
        if len(constraint.classes) > k:
            return SolveReport("exhausted", None, 0, 0,
                               time.monotonic() - start)

    counter = [0]
    tried = 0
    # kept after the first call for k <= 4 (at most 3044 matrices); streamed
    # beyond (291,968 for k = 5), so the deadline check below bounds the call
    for matrix in _kept_matrices(k) if k <= 4 else _canonical_matrices(k):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("decoder enumeration ran past its budget")
        tried += 1
        if _require_all and k > 1 and _equivalent_letter_pair(matrix, k):
            continue
        hit = _search_word(g, k, matrix, class_of, class_kind,
                           _require_all, counter, deadline)
        if hit is not None:
            word, placed = hit
            dec = Decoder(tuple(symbol(i) for i in range(k)),
                          tuple(tuple(bool(matrix[a] >> b & 1)
                                      for b in range(k)) for a in range(k)))
            lett = Lettering(dec, tuple(word), tuple(placed))
            if not verify(g, lett):
                raise AssertionError("solver lettering failed verification")
            return SolveReport("found", lett, tried, counter[0],
                               time.monotonic() - start)
    return SolveReport("exhausted", None, tried, counter[0],
                       time.monotonic() - start)


def lettericity(g: Graph, *, max_n: int = 12, max_k: int = 5,
                budget: float | None = None) -> tuple[int, Lettering]:
    """Exact lettericity with a witnessing lettering.

    The climb starts at the largest m such that ``g`` or its complement
    has an induced mK2: mK2 needs m letters, complements keep lettericity
    and induced subgraphs cannot need more. So no smaller k can succeed,
    and any k-lettering found must use all k letters, which the search
    exploits as a pruning rule.
    """
    start = time.monotonic()
    if g.n > max_n:  # before the bound's search over vertex subsets
        raise ScaleError(f"graph exceeds the solver scale guard n <= {max_n}")
    low = max(1, max_induced_matching(g)[0],
              max_induced_matching(g.complement())[0])
    for k in range(low, g.n + 1):
        remaining = None if budget is None else \
            budget - (time.monotonic() - start)
        report = is_k_letterable(g, k, max_n=max_n, max_k=max_k,
                                 budget=remaining, _require_all=(k > 1))
        if report.outcome == "found":
            return k, report.lettering
    raise AssertionError("every graph is |V|-letterable")  # pragma: no cover
