"""Exhaustive lettericity search.

The outer loop enumerates decoder matrices over k letters (up to letter
permutation for k <= 4); the inner loop builds the word left to right,
branching on (letter, vertex) pairs and propagating per-vertex feasible
letter sets. Results are canonical: the first success in enumeration order
is the minimal successful decoder matrix in row-major order, with the
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

def _code_matrix(code: int, k: int) -> tuple[int, ...]:
    """Decoder matrix (row bitmasks) of a row-major code whose most
    significant bit is entry (0, 0), so integer order on codes equals
    lexicographic order on the flattened matrices."""
    rows = []
    for i in range(k):
        row = 0
        for j in range(k):
            bit = code >> (k * k - 1 - (i * k + j)) & 1
            row |= bit << j
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def _canonical_codes(k: int) -> tuple[int, ...]:
    """Codes of all k x k binary matrices that are lexicographically least
    in their orbit under simultaneous row/column permutation. Eagerly
    computed for k <= 4 only."""
    perms = list(itertools.permutations(range(k)))[1:]
    # bit position maps: applying sigma sends bit (i, j) to (sigma-inverse...)
    maps = []
    for sigma in perms:
        src = [0] * (k * k)
        for i in range(k):
            for j in range(k):
                # bit (i, j) of permuted matrix comes from (sigma[i], sigma[j])
                src[i * k + j] = sigma[i] * k + sigma[j]
        maps.append(src)
    out = []
    top = k * k - 1
    for code in range(1 << (k * k)):
        canonical = True
        for src in maps:
            permuted = 0
            for dst in range(k * k):
                permuted |= (code >> (top - src[dst]) & 1) << (top - dst)
            if permuted < code:
                canonical = False
                break
        if canonical:
            out.append(code)
    return tuple(out)


def _decoder_matrices(k: int):
    """Yield decoder matrices (tuples of row bitmasks) in increasing
    row-major code order. For k <= 4 only canonical representatives are
    yielded; for larger k the full space is enumerated (still complete,
    just without the symmetry reduction, whose precomputation cost would
    exceed its savings there)."""
    if k <= 4:
        for code in _canonical_codes(k):
            yield _code_matrix(code, k)
    else:
        for code in range(1 << (k * k)):
            yield _code_matrix(code, k)


def _equivalent_letter_pair(matrix: tuple[int, ...], k: int) -> bool:
    """True if two letters are interchangeable and mergeable: equal rows and
    columns elsewhere, and all four entries among the pair equal. Words
    using both letters then collapse to k-1 letters."""
    for a in range(k):
        for b in range(a + 1, k):
            inner = {matrix[a] >> a & 1, matrix[a] >> b & 1,
                     matrix[b] >> a & 1, matrix[b] >> b & 1}
            if len(inner) != 1:
                continue
            ok = True
            for x in range(k):
                if x in (a, b):
                    continue
                if (matrix[a] >> x & 1) != (matrix[b] >> x & 1) or \
                   (matrix[x] >> a & 1) != (matrix[x] >> b & 1):
                    ok = False
                    break
            if ok:
                return True
    return False


# -- word search -------------------------------------------------------------

def _search_word(g: Graph, k: int, matrix: tuple[int, ...],
                 class_of: list[int], class_kind: list[int],
                 require_all: bool, counter: list[int],
                 deadline: float | None):
    """Find the lexicographically least word (letters ascending, then vertex
    ids ascending) decoding to ``g`` under ``matrix``; None if exhausted."""
    n = g.n
    full_letters = (1 << k) - 1
    # letters compatible with each class's clique/co-clique kind
    kind_mask = []
    for kind in class_kind:
        mask = 0
        for a in range(k):
            self_pair = matrix[a] >> a & 1
            if kind == -1 or kind == self_pair:
                mask |= 1 << a
        kind_mask.append(mask)
    if any(m == 0 for m in kind_mask):
        return None
    # propagation masks: after placing letter a, a later vertex adjacent to
    # it needs a letter in row_true[a], a non-adjacent one in row_false[a]
    row_true = [matrix[a] for a in range(k)]
    row_false = [full_letters & ~matrix[a] for a in range(k)]

    feas = [full_letters] * n
    word: list[int] = []
    placed: list[int] = []
    n_classes = len(class_kind)
    class_letter = [-1] * n_classes
    letters_bound = 0  # letters claimed by some class
    used_letters = 0

    def dfs() -> bool:
        nonlocal letters_bound, used_letters
        pos = len(placed)
        if pos == n:
            return True
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("lettering search ran past its budget")
        if require_all:
            missing = k - bin(used_letters).count("1")
            if missing > n - pos:
                return False
        for a in range(k):
            bit = 1 << a
            for v in range(n):
                if v in placed_set or not feas[v] & bit:
                    continue
                c = class_of[v]
                if c >= 0:
                    if class_letter[c] >= 0:
                        if class_letter[c] != a:
                            continue
                    elif (letters_bound & bit) or not kind_mask[c] & bit:
                        continue
                counter[0] += 1
                # place v with letter a
                saved = []
                ok = True
                row = g.rows[v]
                for u in range(n):
                    if u == v or u in placed_set:
                        continue
                    upd = row_true[a] if row >> u & 1 else row_false[a]
                    newf = feas[u] & upd
                    if newf != feas[u]:
                        saved.append((u, feas[u]))
                        feas[u] = newf
                        if not newf:
                            ok = False
                if ok:
                    placed.append(v)
                    placed_set.add(v)
                    word.append(a)
                    bound_here = c >= 0 and class_letter[c] < 0
                    if bound_here:
                        class_letter[c] = a
                        letters_bound |= bit
                    prev_used = used_letters
                    used_letters |= bit
                    if dfs():
                        return True
                    used_letters = prev_used
                    if bound_here:
                        class_letter[c] = -1
                        letters_bound &= ~bit
                    word.pop()
                    placed_set.remove(v)
                    placed.pop()
                for u, old in saved:
                    feas[u] = old
        return False

    placed_set: set[int] = set()
    if dfs():
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
            has_edge = any(g.adjacent(u, v) for u, v in
                           itertools.combinations(members, 2))
            has_nonedge = any(not g.adjacent(u, v) for u, v in
                              itertools.combinations(members, 2))
            if has_edge and has_nonedge:
                # a same-letter set is a clique or a co-clique, never mixed
                return SolveReport("exhausted", None, 0, 0,
                                   time.monotonic() - start)
            class_kind.append(1 if has_edge else 0 if has_nonedge else -1)
        if len(constraint.classes) > k:
            return SolveReport("exhausted", None, 0, 0,
                               time.monotonic() - start)

    counter = [0]
    tried = 0
    for matrix in _decoder_matrices(k):
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
    """Exact lettericity with a witnessing lettering; climbs k from 1.

    Once k-1 has been exhausted, any k-lettering must use all k letters,
    which the climb exploits as a pruning rule.
    """
    start = time.monotonic()
    for k in range(1, g.n + 1):
        remaining = None if budget is None else \
            budget - (time.monotonic() - start)
        report = is_k_letterable(g, k, max_n=max_n, max_k=max_k,
                                 budget=remaining, _require_all=(k > 1))
        if report.outcome == "found":
            return k, report.lettering
    raise AssertionError("every graph is |V|-letterable")  # pragma: no cover
