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
canonical labelling's search finds (``graphs._canonical``). Reversing the
word under the transposed decoder letters the same graph, so while every
entry set is symmetric, an opening skips each choice whose first
asymmetric pair is (0, 1): the subtree mirrors that of its (1, 0) twin,
tried before it (``_fits``; Crawford, Ginsberg, Luks and Roy, KR 1996).
A word search over one candidate vertex bitmask per letter then finds the
least decoder's least word; after a large dead subtree at a word
position, it skips each later candidate there that a completion check,
the same letter-class search with every entry fixed, shows has no word
below it. Only subtrees with no word are skipped, so the least word is
unchanged, and the twin nogood stays sound in a check (``_search_word``).

Every search runs in a :class:`Run` of its own (``letterkit.run``) under
the enclosing one's deadline; ``solver.Run`` and ``solver.BudgetExceeded``
are that module's objects, re-exported.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator

from .graphs import Graph, ScaleError, _canonical, _nons, _record, _twins
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


# -- letter-class search ------------------------------------------------------

def _fits(g: Graph, k: int, prefix: int, fixed: int,
          cuts: list[tuple[int, int] | None], run: Run) -> int | None:
    """A decoder code (bit a*k + b is entry (a, b), unset entries 0) that
    agrees with ``prefix`` on its ``fixed`` low bits and fits a k-lettering
    of ``g``, or None. Entries (M[a][b], M[b][a]) = (1, 0) put u in a before
    w in b if uw is an edge and after it if not, (0, 1) the reverse; equal
    ones fix the adjacency. Entries are set once both letters have members;
    a fixed pair of equal entries x between a and b binds b's candidates to
    the x side of each member of a even while b is empty. Once a pair of
    equal entries x between a and b is set, each member of b has cut
    ``cand[a]`` to its x side, when it came or when a opened. So a vertex
    that joins a letter with members has exactly one choice of entries and
    no side to check; only opening an empty letter chooses entries. Its
    choices come from the letter specs of ``_tables``, which depend on
    ``g`` not at all and are built once per (k, prefix, fixed), not once
    per call; they are expanded letter by letter in ``itertools.product``
    order: the first letter with members varies slowest, and for each,
    entry (b, a) outer and (a, b) inner. A vertex in no ``cand`` mask or
    a cycle in ``succ`` cuts the branch. Placing a member v of a constraint
    class in letter a keeps in ``cand[b]`` only ``cuts[v][b != a]`` (see
    ``_class_cuts``). ``succ[u]`` and ``pred[u]``, the placed vertices
    forced after and before u, stay transitively closed: a placed v gets
    its closed ``after`` and ``before``, each vertex of ``before`` gains
    ``after`` and v in ``succ``, and each of ``after`` gains ``before``
    and v in ``pred``. So the closure of ``after`` is ``after`` and
    ``succ[u]`` for each u in it, and that of ``before`` is ``before`` and
    ``pred[u]`` for each u in it. Each call counts one of ``run``'s
    ``decoders_tried`` and each placement tried one of its ``nodes``.

    With no cut in ``cuts``, a failed letter is a nogood for v's images.
    Once every choice of v in letter a has failed, the search has proved
    that no fitting lettering below this node puts v in a. An automorphism
    s of ``g`` that fixes every placed vertex maps the fitting letterings
    below the node onto themselves, with the same decoder and the same
    letters on placed vertices. So none puts s(v) in a, and the node's
    later letters and their subtrees clear s(v) from ``cand[a]``. A nogood
    is a proved fact, so it never removes a fitting lettering: the answer,
    found or None, is the one the search gives without nogoods, and the
    descent through ``_least_renaming`` still ends at D*. The images s(v)
    used are v's unplaced twins (the swap of two twins fixes every other
    vertex) and, at the root, where nothing is placed and v is 0, the orbit
    of 0 under Aut(g), read off ``graphs._canonical``; a question with no
    fixed entry tries one letter at the root, so it skips the orbit.

    Mirrors. Reversing a word and transposing its decoder letters the same
    graph with the same letter per vertex (Petkovsek 2002), and keeps each
    class on a letter of its own. A search whose fixed entries are closed
    under transposition, with equal values, starts with a flag set: its
    fixed entries are none or entry (0, 0) alone, since any other prefix
    of the row-major code that leaves a pair free fixes (0, 1) but not
    (1, 0). The flag holds at a node while every entry set is symmetric.
    Only an asymmetric pair, (M[a][b], M[b][a]) = (1, 0) or (0, 1), forces
    an order, so such a node has none, and its fitting completions are
    closed under the mirror. There an opening drops each choice whose
    first asymmetric pair, at the lowest b in ``options`` order, is
    (0, 1). Its mirror, the choice with every asymmetric pair swapped, has
    (1, 0) there and the same symmetric pairs before it, so it comes first
    (the lowest b varies slowest, and x inner puts (1, 0) before (0, 1)).
    The two subtrees hold mirrored completions, so either both are empty
    or the search returns in the first. A nogood is a proved fact about
    the node's completions, so it changes neither. A choice with an
    asymmetric pair has a nonempty ``after`` or ``before``, and its child
    clears the flag; a join sets no asymmetric pair. So the answer and the
    code returned are those of the search without the rule, and only the
    placements fall (about half of an exhausted decision's)."""
    run.decoders_tried += 1
    return _placements(g, k, prefix, fixed, cuts, run, 0,
                       [(1 << g.n) - 1] * k)


def _placements(g: Graph, k: int, prefix: int, fixed: int,
                cuts: list[tuple[int, int] | None], run: Run, placed: int,
                cand: list[int]) -> int | None:
    """The letter-class search of ``_fits``, run once from every letter
    empty, the vertices of the mask ``placed`` already placed (nothing
    joins them, so they must be accounted for in ``cand``) and ``cand`` as
    the start masks: a fitting code or None. A node copies a mask list
    before it cuts it, because ``_search_word``'s completion check passes
    the list its word search goes on with. The search counts its
    placements as ``run``'s ``nodes``, but no decoder.

    ``owns[a]`` is letter a's members. ``rows`` and ``_nons``, built once
    per graph, give each vertex's two sides. The letter specs of
    ``_tables`` carry each letter's join plan, (b, bit of (a, b), bit of
    (b, a)) per other letter b, and the mask of letters whose openings
    repeat a's. Set bits are walked a byte at a time through ``_LOW`` and
    ``_HIGH``. A placement closes ``after`` and tests it for a cycle, a
    join before it restricts ``cand[a]``; the child adds the placed vertex
    ``last`` to ``succ`` and ``pred``; ``sym`` is the mirror flag of
    ``_fits``, set at the start when ``fixed`` is 0 or 1. No letter keeps
    the masks of the vertices on one side of all its members: ``cand``
    only shrinks down the tree, and once entry (a, a) = x is known each
    member of a has cut ``cand[a]`` to its x side (the first one when the
    second came), so a join cuts ``cand[a]`` to v's x side alone. Only an
    opening with equal entries x to a letter b walks b's members for their
    x sides. The placements are counted on a local and added to
    ``run.nodes`` when the search returns or raises; with a deadline the
    clock is read on the first placement and then once per 64."""
    n, full = g.n, (1 << g.n) - 1
    rows, nons = g.rows, _nons(g)
    prefix &= (1 << fixed) - 1
    letters, rotated = _tables(k, prefix, fixed)
    owns = [0] * k  # each letter's members
    twins = None if any(cuts) else _twins(g)  # None: no nogoods
    # placements tried; the count at which to read the clock
    nodes, due = 0, 0 if run.deadline is not None else float("inf")

    def place(code: int, left: int, near: int, cand: list[int],
              succ: list[int], pred: list[int], last: int, after: int,
              before: int, sym: int):
        nonlocal nodes, due
        if not left:
            return code
        if after | before:  # order last; after came closed, close before
            for u in _LOW[before & 255] + _HIGH[before >> 8]:
                before |= pred[u]  # add pred[u] for each u in it
            succ, pred = succ[:], pred[:]
            tail, head = after | 1 << last, before | 1 << last
            for u in _LOW[before & 255] + _HIGH[before >> 8]:
                succ[u] |= tail  # before precedes last and after
            for u in _LOW[after & 255] + _HIGH[after >> 8]:
                pred[u] |= head  # after follows before and last
            succ[last], pred[last] = after, before
        if nodes >= due:
            run.check("lettering search")
            due = nodes + 64
        one = two = three = 0  # in at least one, two, three masks
        for m in cand:
            three |= two & m
            two |= one & m
            one |= m
        if one & left != left:
            return None
        v = (one & ~two & left) or (two & ~three & left) or left
        v = v & near or v
        v = (v & -v).bit_length() - 1
        non, row, cut, bit = nons[v], rows[v], cuts[v], 1 << v
        # v's images, which each failed letter is closed to: its unplaced
        # twins, or at the root of a question -1 for its orbit, read once a
        # letter fails; with no fixed entry the root tries one letter
        same = twins and (twins[v] & left if left != full else fixed and -1)
        opened = 0  # the letters whose openings repeat one tried
        # (0, 0) leads a decision's code: try clique a last
        for a, spec in rotated if not fixed and row & owns[0] and \
                not owns[0] & owns[0] - 1 else letters:
            if not cand[a] & bit:
                continue  # v can't join a
            own = owns[a]
            dup, aa, set_aa, tied, plan, options = spec
            if not own and opened & dup:
                continue  # a is a twin of a letter tried
            nxt = cand[:] if cut is None else \
                [m & cut[b != a] for b, m in enumerate(cand)]  # one per class
            if tied:  # fixed entries bind an empty b too
                for b, x in tied:
                    if not owns[b]:
                        nxt[b] &= row if x else non
            if own:  # a join: each entry to a letter with members is set
                after = before = 0
                for b, ab, ba in plan:
                    m = owns[b]
                    if not m:
                        continue
                    if code & ab:
                        if code & ba:
                            nxt[b] &= row
                        else:
                            after |= m & row
                            before |= m & non
                    elif code & ba:
                        after |= m & non
                        before |= m & row
                    else:
                        nxt[b] &= non
                nodes += 1
                for u in _LOW[after & 255] + _HIGH[after >> 8]:
                    after |= succ[u]  # close after: add succ[u] for each u
                if not after & before:  # else the order has a cycle
                    now = code
                    if set_aa and not own & own - 1:
                        # the second member sets entry (a, a)
                        u = own.bit_length() - 1  # the first member
                        if row & own:
                            now |= set_aa
                            nxt[a] &= row & rows[u]
                        else:
                            nxt[a] &= non & nons[u]
                    else:  # cand[a] is on that side of the others already
                        nxt[a] &= row if code & aa else non
                    owns[a] = own | bit
                    hit = place(now, left ^ bit, near | row, nxt, succ,
                                pred, v, after, before, sym)
                    owns[a] = own
                    if hit is not None:
                        return hit
            else:  # an opening: a's options with each letter b with members
                opened |= dup
                if not set_aa:
                    nxt[a] &= row if code & aa else non
                choices = [(code, nxt, 0, 0)]
                for b, table in options:
                    m = owns[b]
                    if not m:
                        continue
                    split, grown, keep = (m & non, m & row), [], None
                    for now, base, after, before in choices:
                        for x, y, bits in table:
                            if x != y:
                                if sym and x < y and not after | before:
                                    continue  # mirrors its (1, 0) twin
                                grown.append((now | bits, base, after |
                                              split[x], before | split[y]))
                            elif split[x] == m:  # b's members on side x
                                if keep is None:  # a's must be too
                                    keep = full
                                    for u in _LOW[m & 255] + _HIGH[m >> 8]:
                                        keep &= rows[u] if x else nons[u]
                                eq = base[:]
                                eq[b] &= row if x else non
                                eq[a] &= keep
                                grown.append((now | bits, eq, after, before))
                    choices = grown
                owns[a] = bit
                for now, nxt, after, before in choices:
                    nodes += 1
                    for u in _LOW[after & 255] + _HIGH[after >> 8]:
                        after |= succ[u]
                    if after & before:
                        continue  # the forced order has a cycle
                    hit = place(now, left ^ bit, near | row, nxt, succ,
                                pred, v, after, before,
                                sym and not after | before)
                    if hit is not None:
                        return hit
                owns[a] = 0
            if same:  # none of v's images takes a
                if same < 0:
                    same = _canonical(g)[2][0]
                cand = cand[:]  # an opening's choices share one cand list
                cand[a] &= ~same
        return None

    try:
        return place(prefix, full & ~placed, 0, cand, [0] * n, [0] * n, 0, 0,
                     0, fixed < 2)
    finally:
        run.nodes += nodes
        del place  # place refers to itself: free it at return or raise


# The set bits of each value of a mask's low byte and of its second byte,
# as vertex ids, built by doubling; they cover graphs of up to 16 vertices,
# past the scale guard MAX_N
_LOW = _HIGH = ((),)
for _bit in range(8):
    _LOW += tuple(bits + (_bit,) for bits in _LOW)
    _HIGH += tuple(bits + (_bit + 8,) for bits in _HIGH)


@functools.lru_cache(maxsize=256)
def _tables(k: int, prefix: int, fixed: int) -> tuple:
    """The graph-free tables of ``_fits`` for k letters and the decoder
    entries ``prefix`` fixes on its ``fixed`` low bits (``prefix`` has no
    other bit set), as tuples, so the decision, each descent question and
    each later search with the same key share one copy: (a, spec) per
    letter a, in letter order and, for the decision, in clique-last order
    (a question's is letter order), the spec being

    - ``dup``: 0 if a's row has a fixed entry, else the mask of the
      letters whose rows have none and whose columns of fixed entries
      equal a's; once one of them opened at a node, opening another
      repeats it;
    - ``aa`` and ``set_aa``: the bit of entry (a, a), and that bit again
      if the entry is free (the second member sets it), else 0;
    - ``tied``: (b, x) for each fixed pair of equal entries
      (a, b) = (b, a) = x;
    - ``plan``: (b, bit of (a, b), bit of (b, a)) for each letter b != a;
    - ``options``: per letter b != a, (b, choices) with one (x, y, bits)
      per value the entries (a, b) = x and (b, a) = y may take when a
      opens, y outer and x inner."""
    given = [(prefix >> e & 1,) if e < fixed else (0, 1)
             for e in range(k * k)]  # the values entry e may take
    letters = tuple((a, (
        sum(1 << b for b in range(k)  # given[a::k] is a's column
            if a * k >= fixed <= b * k and given[b::k] == given[a::k]),
        1 << a * k + a, (1 << a * k + a) * (a * k + a >= fixed),
        tuple((b, given[a * k + b][0]) for b in range(k) if b != a
              and given[a * k + b] == given[b * k + a] != (0, 1)),
        _plan(k, a),
        tuple(_options(k, a, b, given[a * k + b], given[b * k + a])
              for b in range(k) if b != a))) for a in range(k))
    return letters, letters if fixed else letters[1:] + letters[:1]


@functools.lru_cache(maxsize=None)
def _plan(k: int, a: int) -> tuple:
    """(b, bit of (a, b), bit of (b, a)) for each letter b != a: the entries
    a join of letter a reads, shared by every table of ``_tables``."""
    return tuple((b, 1 << a * k + b, 1 << b * k + a)
                 for b in range(k) if b != a)


@functools.lru_cache(maxsize=None)
def _options(k: int, a: int, b: int, xs: tuple[int, ...],
             ys: tuple[int, ...]) -> tuple:
    """(b, choices) for opening letter a beside b when entry (a, b) may take
    the values ``xs`` and (b, a) the values ``ys``: one (x, y, bits) per
    pair, y outer and x inner. At most nine per (k, a, b), shared by every
    table of ``_tables``."""
    return b, tuple((x, y, x << a * k + b | y << b * k + a)
                    for y in ys for x in xs)


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
