"""Exhaustive lettericity search.

A search over letter classes (at most k cliques or co-cliques, one decoder
orientation per mixed class pair, no forced cycle; Petkovsek 2002) decides
k-letterability and, given a prefix of decoder entries, grows the least
fitting decoder in row-major code order entry by entry. Its column, tie
and option tables depend only on k and the fixed entries, so they are
built once per (k, prefix, fixed) and shared by every search, of any
graph, that asks with the same key (``_tables``). Fitting decoders are
closed under renaming letters, so the descent starts from the least
renaming of the decision's witness and moves to the least renaming of
each hit. A question's fixed pair of equal entries between letters a and b
restricts b's candidates as soon as a has a member, even while b is
still empty. Without class constraints, a letter that fails for a vertex
is closed to its images under the automorphisms that fix the placed
vertices: its twins, and at the root its orbit under Aut(g), which the
canonical labelling's search finds (``_graph_core._canonical``). Reversing the
word under the transposed decoder letters the same graph, so while every
entry set is symmetric, an opening skips each choice whose first
asymmetric pair is (0, 1): the subtree mirrors that of its (1, 0) twin,
tried before it (``_fits``; Crawford, Ginsberg, Luks and Roy, KR 1996).
Two empty letters whose swap maps the fixed entries onto themselves are
interchangeable, so an opening skips the second once the first has
failed (``_tables``' ``dup``; Van Hentenryck, Flener, Pearson and Agren,
IJCAI 2003), and each node places a vertex with the fewest candidate
letters, counted up to three (Haralick and Elliott, AI 1980).
A word search over one candidate vertex bitmask per letter then finds the
least decoder's least word; after a large dead subtree at a word
position, it skips each later candidate there that a completion check,
the same letter-class search with every entry fixed, shows has no word
below it. Only subtrees with no word are skipped, so the least word is
unchanged, and the twin nogood stays sound in a check (``_search_word``).

The letter-class search and its tables live in ``letterkit._letter_classes``.

Every search runs in a :class:`Run` of its own (``letterkit.run``) under
the enclosing one's deadline; ``solver.Run`` and ``solver.BudgetExceeded``
are that module's objects, re-exported.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

from ._graph_core import _nons
from ._letter_classes import _fits, _placements
from .graphs import Graph, ScaleError, _record
from .letters import Decoder, Lettering, _lettering_dict, symbol, verify
from .obstructions import max_induced_matching
from .run import BudgetExceeded, Run  # noqa: F401  re-exported


# The solver's scale guards, n <= MAX_N and k <= MAX_K, read at each call.
MAX_N = 12
MAX_K = 5
# The dead-subtree size, in nodes, from which a word search checks the
# later candidates at a position for a completion (``_search_word``).
_CHECK_AFTER = 128


@_record
class LetterClassConstraint:
    """Disjoint vertex classes; each class must share one letter and
    distinct classes must use distinct letters. Ids must be ints >= 0, not
    bools ("bad vertex ids" ValueError, before the overlap check)."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        if any(type(v) is not int or v < 0  # a bool is no id
               for cls in self.classes for v in cls):
            raise ValueError("constraint class contains bad vertex ids")
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


@_record
class SolveReport:
    """``decoders_tried`` counts letter-class searches (one to decide, one per
    decoder entry asked about); ``nodes_expanded`` their placements plus the
    word search's nodes."""

    outcome: str  # "found" | "exhausted"
    lettering: Lettering | None
    decoders_tried: int
    nodes_expanded: int
    elapsed: float

    def to_json(self) -> str:
        obj = {"outcome": self.outcome, "decoders_tried": self.decoders_tried,
               "nodes_expanded": self.nodes_expanded, "elapsed": self.elapsed}
        if self.lettering is not None:
            obj["lettering"] = _lettering_dict(self.lettering)
        return json.dumps(obj)


@functools.lru_cache(maxsize=None)
def _renamings(k: int) -> tuple[operator.itemgetter, ...]:
    """One getter per letter permutation s. From the bits of a code, bit 0
    first, it reads those of the code renamed by s in the same order: the
    renamed entry (a, b) is the old entry (s[a], s[b])."""
    return tuple(operator.itemgetter(*(s[a] * k + s[b] for a in range(k)
                                       for b in range(k)))
                 for s in itertools.permutations(range(k)))


def _least_renaming(code: int, k: int) -> int:
    """The least code, in the descent's order (bit 0 decides first), among
    the k! renamings of the letters of decoder ``code``.

    Renaming the letters of a lettering keeps it a lettering and keeps each
    constraint class on one letter of its own, so the fitting decoders are
    closed under renaming. Let D* be the least of them, and let the
    descent's current code agree with D* below bit e when the question at
    e returns a hit h. Then D* <= least renaming(h) <= h, and D* and h
    agree on bits 0..e, so the least renaming agrees with both there: the
    descent may go on from it and still ends at D*."""
    if k == 1:
        return code
    bits = tuple(code >> i & 1 for i in range(k * k))
    least = min(get(bits) for get in _renamings(k))
    return sum(bit << i for i, bit in enumerate(least))


# -- word search -------------------------------------------------------------

def _search_word(g: Graph, k: int, code: int,
                 cuts: list[tuple[int, int] | None], run: Run):
    """Find the lexicographically least word (letters ascending, then vertex
    ids ascending) decoding to ``g`` under the decoder ``code`` (bit a*k + b
    is entry (a, b)); None if exhausted.

    The state is one candidate vertex mask per letter: ``cand[b]`` holds the
    unplaced vertices that may still take letter b, tried lowest first.
    Placing v with letter a keeps in ``cand[b]`` only v's neighbours when
    entry (a, b) is 1 (a later b must then be adjacent to v) and only
    its non-neighbours otherwise, and, as ``_placements`` does, only
    ``cuts[v][b != a]`` (see ``_class_cuts``); a class of two or more
    starts out of the letters whose entry (a, a) is not its kind. A branch
    is dead once some unplaced vertex is left in no mask. Each candidate
    tried counts one ``run`` node.

    Once a candidate at a position has led to a dead subtree of at least
    ``_CHECK_AFTER`` nodes, each later candidate there is first put to a
    completion check: the letter-class search of ``_fits`` with every
    entry fixed to ``code`` (``_placements``), from the prefix and the
    candidate placed, with the masks ``nxt`` they leave as the start masks,
    under the class cuts; the check cuts copies of ``nxt``, so the word
    search goes on with it once the check passes. A word that completes
    the prefix gives each unplaced vertex a letter within those masks,
    under the same entries and cuts, and orders them with no cycle, so the
    check finds a fitting lettering.
    A check that finds none thus skips only a subtree with no word. The
    candidates left are tried in the same order, so the first word found
    is still the least one. The twin nogood stays sound inside a check:
    twins u and w have equal rows but for each other, so every placed
    vertex puts them on the same side and the start masks hold both or
    neither; the swap of u and w fixes the placed vertices and the start
    masks, which is all ``_fits``'s argument asks. With class cuts there
    are no nogoods, and the root's orbit is never used, as something is
    placed. A check places vertices at about four times a word-search
    node's cost, and the small dead subtrees of graphs with n <= 8 cost
    less than the checks that would replace them, hence the gate. The
    check's placements count as ``run`` nodes; it counts no decoder.
    """
    rows, nons, full = g.rows, _nons(g), (1 << g.n) - 1
    start = [full & ~sum(1 << v for v, cut in enumerate(cuts) if cut and
                         ~cut[1] & (rows, nons)[code >> a * k + a & 1][v])
             for a in range(k)] if any(cuts) else [full] * k
    if functools.reduce(operator.or_, start) != full:
        return None  # a class has no letter of its kind
    keeps_row = [[code >> a * k + b & 1 for b in range(k)] for a in range(k)]
    # with a deadline, the clock is read on the first call and then once
    # per 64 nodes (completion checks' placements included)
    due = 0 if run.deadline is not None else float("inf")

    word: list[int] = []
    placed: list[int] = []

    def dfs(cand: list[int], rest: int) -> bool:
        nonlocal due
        if not rest:
            return True
        if run.nodes >= due:
            run.check("lettering search")
            due = run.nodes + 64
        dead = False  # a candidate here has led to a large dead subtree
        for a in range(k):
            todo = cand[a]
            if not todo:
                continue
            keeps = keeps_row[a]
            # the vertices left in some mask after placing any v with a are
            # (row & on) | (row_non & off)
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
                run.nodes += 1
                # place v with letter a
                row, row_non = rows[v], nons[v]
                left = rest ^ low
                if row & on | row_non & off != left:
                    continue
                nxt = [m & row if keep else m & row_non
                       for m, keep in zip(cand, keeps)]
                cut = cuts[v]
                if cut:
                    nxt = [m & cut[b != a] for b, m in enumerate(nxt)]
                if dead and _placements(g, k, code, k * k, cuts, run,
                                        full & ~left, nxt) is None:
                    continue  # no word completes this prefix
                placed.append(v)
                word.append(a)
                spent = run.nodes
                if dfs(nxt, left):
                    return True
                word.pop()
                placed.pop()
                if run.nodes - spent >= _CHECK_AFTER:
                    dead = True
        return False

    try:
        return (word, placed) if dfs(start, full) else None
    finally:
        del dfs  # dfs refers to itself: free it at return or raise


def _class_cuts(g: Graph, constraint: LetterClassConstraint | None
                ) -> list[tuple[int, int] | None] | None:
    """The class constraint as one entry per vertex of ``g``: None for a
    vertex in no class, and for a member v of class C the pair of masks
    (kept on v's letter, kept on every other letter). Placing v clears the
    other classes' members from its letter and C's members from every other
    letter, so each class shares one letter and distinct classes use
    distinct letters. An id past ``g``'s last vertex raises ValueError
    first (the constraint has already rejected ids that are not ints >=
    0); the result is None if a class mixes edges and non-edges, as a
    letter's members are a clique or a co-clique."""
    classes = () if constraint is None else constraint.classes
    if any(v >= g.n for cls in classes for v in cls):  # ints >= 0 by now
        raise ValueError("constraint class contains bad vertex ids")
    every = sum(1 << v for cls in classes for v in cls)
    cuts: list[tuple[int, int] | None] = [None] * g.n
    for cls in classes:
        m = sum(1 << v for v in cls)
        for v in cls:
            if m & g.rows[v] and m & ~g.rows[v] & ~(1 << v):
                return None
            cuts[v] = (~(every ^ m), ~m)
    return cuts


def is_k_letterable(g: Graph, k: int,
                    constraint: LetterClassConstraint | None = None
                    ) -> SolveReport:
    """Complete search for a k-lettering of ``g`` (optionally constrained).

    Returns the canonically least lettering on success, or "exhausted" once
    the letter-class search has covered every partition. The constraint is
    turned into per-vertex cuts once (``_class_cuts``), which ``_fits`` and
    ``_search_word`` apply alike; an id that is not an int vertex of ``g``
    raises ValueError. The search's own :class:`Run` gives the report's
    counters and ``elapsed``; it raises :class:`BudgetExceeded` at the
    enclosing run's deadline (``with Run(seconds):``). A graph with more
    than ``MAX_N`` vertices or a ``k`` above ``MAX_K`` raises ScaleError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n > MAX_N:
        raise ScaleError(f"graph exceeds the solver scale guard n <= {MAX_N}")
    if k > MAX_K:
        raise ScaleError(f"k exceeds the solver scale guard k <= {MAX_K}")
    if g.n == 0:
        raise ValueError("graph must be nonempty")

    run, lett = Run(), None
    cuts = _class_cuts(g, constraint)
    code = None if cuts is None else _fits(g, k, 0, 0, cuts, run)
    if code is not None:  # else a class no letter holds, or nothing fits
        # least fitting decoder: from the witness's least renaming, ask
        # only about its 1s, and move to the least renaming of each hit
        code = _least_renaming(code, k)
        for e in range(k * k):
            if code >> e & 1:
                hit = _fits(g, k, code ^ 1 << e, e + 1, cuts, run)
                code = code if hit is None else _least_renaming(hit, k)
        lett = _least_lettering(g, k, code, run, cuts)
    return SolveReport("exhausted" if lett is None else "found", lett,
                       run.decoders_tried, run.nodes, run.elapsed)


def _least_lettering(g: Graph, k: int, code: int, run: Run,
                     cuts: list[tuple[int, int] | None] | None = None
                     ) -> Lettering:
    """The lettering of ``g`` by the least word under the k-letter decoder
    ``code`` (bit a*k + b is entry (a, b)), checked by ``verify``:
    the tail of ``is_k_letterable`` once the decoder is known. The word
    search runs under ``run`` with the class ``cuts``; none by default. A
    search that finds no word fails the check too."""
    hit = _search_word(g, k, code, cuts or [None] * g.n, run)
    dec = Decoder(tuple(symbol(i) for i in range(k)),
                  tuple(tuple(bool(code >> a * k + b & 1) for b in range(k))
                        for a in range(k)))
    lett = None if hit is None else Lettering(dec, *map(tuple, hit))
    if lett is None or not verify(g, lett):
        raise AssertionError("solver lettering failed verification")
    return lett


def lettericity(g: Graph, *,
                budget: float | None = None) -> tuple[int, Lettering]:
    """Exact lettericity with a witnessing lettering.

    The climb starts at the largest m such that ``g`` or its complement
    has an induced mK2: mK2 needs m letters, complements keep lettericity
    and induced subgraphs cannot need more. So no smaller k can succeed.
    ``budget`` bounds the whole climb in seconds, as ``with Run(budget):``
    does (the enclosing run's deadline, if earlier). It is the one
    ``budget`` keyword left, kept because the benchmark's 6K2 probe passes
    it. A graph with more than ``MAX_N`` vertices, or one whose climb
    passes ``MAX_K`` letters, raises :class:`ScaleError`.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if g.n > MAX_N:  # before the bound's search over vertex subsets
        raise ScaleError(f"graph exceeds the solver scale guard n <= {MAX_N}")
    with Run(budget):
        low = max(1, max_induced_matching(g)[0],
                  max_induced_matching(g.complement())[0])
        for k in range(low, g.n + 1):
            if k > MAX_K:  # name the highest k exhausted, or the bound
                raise ScaleError((f"k = {k - 1} exhausted" if k > low else
                                  f"the matching lower bound is {low}") +
                                 f"; the solver scale guard is k <= {MAX_K}")
            report = is_k_letterable(g, k)
            if report.outcome == "found":
                return k, report.lettering
    raise AssertionError("every graph is |V|-letterable")  # pragma: no cover
