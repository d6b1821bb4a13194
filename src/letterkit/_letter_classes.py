"""The letter-class search of ``letterkit.solver`` (``_fits``,
``_placements``) and its shared tables; the solver's docstring gives it."""

from __future__ import annotations

import functools
import operator

from ._graph_core import _canonical, _nons, _twins


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
    of 0 under Aut(g), read off ``_graph_core._canonical``; a question with no
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
    placements fall (about half of an exhausted decision's).

    Swaps. Let the swap of letters a and b map each fixed entry onto a
    fixed entry of the same value and each free entry onto a free one
    (``dup`` of ``_tables``): two whole fixed rows with the same pattern,
    such as rows 0 and 1 all zero, or two free rows whose columns of
    fixed entries agree. At a node where both are empty the swap fixes
    the letter of every placed vertex, every entry set and each class's
    letter, so it maps the node's fitting completions onto themselves,
    those in which v opens b onto those in which v opens a. Once v's
    openings of a have all failed, b's subtree is empty too and is
    skipped; as with mirrors, the answer is that of the search without
    the rule, and a nogood, a proved fact, changes neither. A completion
    check (every entry fixed) pairs no letters: its start masks carry
    the letters of the word prefix's vertices, so two letters empty in
    the search need not be empty in the lettering, and the swap need not
    map its completions onto themselves."""
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
    ``_fits``, set at the start when ``fixed`` is 0 or 1. The vertex
    placed is the lowest of those in one ``cand`` mask, else in two, else
    in three or more but not in every one (k >= 4), else of all left
    (fail-first), a neighbour of a placed vertex (``near``) first; the
    order moves the tree but no answer, and the descent still ends at
    D*. No letter keeps the masks of the vertices on one side of all its
    members: ``cand`` only shrinks down the tree, and once entry (a, a) =
    x is known each member of a has cut ``cand[a]`` to its x side (the
    first one when the second came), so a join cuts ``cand[a]`` to v's x
    side alone. Only an opening with equal entries x to a letter b walks
    b's members for their x sides. The placements are counted on a local
    and added to ``run.nodes`` when the search returns or raises; with a
    deadline the clock is read on the first placement and then once per
    64."""
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
        v = (one & ~two & left) or (two & ~three & left) or \
            (three & ~functools.reduce(operator.and_, cand) & left) or left
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

    - ``dup``: the mask of the letters b whose swap with a maps each
      entry's ``given`` values onto themselves; once one of them opened
      at a node, opening another while it is empty repeats it (the swap
      argument of ``_fits``). The swap maps row a onto row b, and the
      fixed entries are a row-major prefix, so only two free rows pair,
      when their columns agree, or two whole fixed rows, when the swapped
      entries (``_swap``) equal ``given``; the one partly fixed row pairs
      with none. 0 when every entry is fixed, the key of a completion
      check, whose start masks tell letters apart;
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
    free = range(-(-fixed // k), k)  # the letters whose rows are all free
    whole = range(fixed // k if fixed < k * k else 0)  # all fixed
    letters = tuple((a, (
        sum(1 << b for b in free if given[b::k] == given[a::k])  # a column
        if a in free else
        sum(1 << b for b in whole
            if list(map(given.__getitem__, _swap(k, a, b))) == given)
        if a in whole else 0,
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
def _swap(k: int, a: int, b: int) -> tuple[int, ...]:
    """The row-major entries of a k-letter code with letters a and b
    swapped: entry (i, j) is the old entry (s(i), s(j)), s the swap.
    Shared by every table of ``_tables``."""
    s = [*range(k)]
    s[a], s[b] = b, a
    return tuple(x * k + y for x in s for y in s)


@functools.lru_cache(maxsize=None)
def _options(k: int, a: int, b: int, xs: tuple[int, ...],
             ys: tuple[int, ...]) -> tuple:
    """(b, choices) for opening letter a beside b when entry (a, b) may take
    the values ``xs`` and (b, a) the values ``ys``: one (x, y, bits) per
    pair, y outer and x inner. At most nine per (k, a, b), shared by every
    table of ``_tables``."""
    return b, tuple((x, y, x << a * k + b | y << b * k + a)
                    for y in ys for x in xs)

