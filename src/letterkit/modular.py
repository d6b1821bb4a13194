"""Modular decomposition: modules, primality, the prime quotient, and the
P4/bull classification of vertices in prime graphs.

Module finding works within a vertex mask, so an induced subgraph is
split with no copy of it. ``quotient`` refines the vertices other than
the least one, u, into the maximal modules that avoid u, each check of a
part costing one XOR of two rows per member. A refined part with no edge,
or every edge, to the rest of the mask is all that lies outside u's
(co-)component. On a connected and co-connected graph it then runs at
most one minimal-module closure per refined part, which costs one XOR
per member it ends with and tells whether the part lies in u's module.
The primality check on the quotient adds its pair closures, once per
labelled quotient in a process, as a memo keeps each verdict; the check
that each part is a module costs one XOR per member. That is entirely
adequate at this package's scale (n <= 64 or so); the famously
intricate linear-time algorithms are deliberately out of scope.
"""

from __future__ import annotations

import functools
import json

from .graphs import Graph, _bits, _record, bull, path, to_graph6


def is_module(g: Graph, vertex_set) -> bool:
    """True iff all members share the same neighborhood outside the set.
    An id that is not an int in 0..g.n-1 (a bool is not) raises
    ValueError."""
    members = set(vertex_set)
    if not all(type(v) is int and 0 <= v < g.n for v in members):
        raise ValueError(f"vertex ids must be ints in 0..{g.n - 1}")
    return _is_module(g, (1 << g.n) - 1, sum(1 << v for v in members))


def _is_module(g: Graph, within: int, part: int) -> bool:
    """True iff ``part`` is a module of g[within]: no vertex of ``within``
    outside it is in the XOR of the least member's row with another's."""
    if not part:
        return True
    rows, left = g.rows, part & part - 1  # the least member's own XOR is 0
    base, split = rows[(part ^ left).bit_length() - 1], 0
    while left:
        low = left & -left
        left ^= low
        split |= base ^ rows[low.bit_length() - 1]
    return not split & within & ~part


def _module_closure(g: Graph, within: int, seed: int, stop: int = 0) -> int:
    """Smallest module of g[within] containing the (non-empty) seed set, as
    a bitmask.

    Fix one member r of the set. A vertex x of ``within`` outside a set M
    containing r keeps M from being a module iff it tells some member y
    apart from r, that is iff x is in ``rows[r] ^ rows[y]``. Every module
    containing the seed contains r and y, so it contains all of that XOR
    within the mask. The closure therefore adds it for each member y once,
    as a worklist over new members, and the set it stops at is a module.
    ``stop`` holds vertices w whose pair closure with a seed member is all
    of ``within``; once the closure reaches such a w it contains that pair
    closure, so ``within`` is returned at once."""
    rows = g.rows
    base = rows[(seed & -seed).bit_length() - 1]  # rows[r]
    mask = todo = seed  # r's own XOR is 0
    while todo:
        low = todo & -todo
        todo ^= low
        new = (base ^ rows[low.bit_length() - 1]) & within & ~mask
        if new & stop:
            return within
        mask |= new
        todo |= new
    return mask


def is_prime(g: Graph) -> bool:
    """No proper module. Every proper module of size >= 2 contains a pair
    whose closure stays proper, so checking pair closures suffices: at
    most n(n-1)/2 closures of one XOR per member each, all of them when
    ``g`` is prime. When {u, v} is tested, every other w < v has a pair
    closure with u that is all of V, so those w are its ``stop`` set."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if _module_closure(g, full, 1 << u | 1 << v,
                               (1 << v) - 1 ^ 1 << u) != full:
                return False
    return True


# How many entries each memo of labelled quotients keeps, here and in the
# composer: enough for every labelled prime quotient of the graphs with
# n <= 7 (389 of them, in 291 classes).
_MEMO_SIZE = 512


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _quotient_is_prime(h: Graph) -> bool:
    """``is_prime(h)`` for a quotient built by ``_split``, kept per labelled
    quotient for the life of the process (the last ``_MEMO_SIZE``), as the
    same few labelled quotients recur at many nodes. The public
    ``is_prime`` keeps nothing: its callers rarely ask twice."""
    return is_prime(h)


@_record
class QuotientDecomposition:
    """Prime quotient H plus the module partition of the input graph."""

    quotient: Graph
    modules: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps({
            "quotient": to_graph6(self.quotient),
            "modules": [list(m) for m in self.modules],
        })


def quotient(g: Graph) -> QuotientDecomposition:
    """Decompose ``g`` as an inflation of a unique prime graph H.

    Maximal proper modules are used when H has four or more vertices. When
    ``g`` (resp. its complement) is disconnected the module collection is
    not unique; we deterministically split off the (co-)component of
    vertex 0 against the rest, giving a two-vertex quotient.
    """
    if g.n < 2:
        raise ValueError("quotient needs at least 2 vertices")
    h, parts = _split(g, (1 << g.n) - 1)
    return QuotientDecomposition(h, tuple(tuple(_bits(p)) for p in parts))


def _split(g: Graph, within: int) -> tuple[Graph, list[int]]:
    """``quotient`` of g[within] (two or more vertices) in ``g``'s ids: the
    prime quotient H and its parts as bitmasks, ordered by least member,
    so that H is induced on those members. Only H is built as a graph.

    Let u be the least vertex. ``_avoiding`` gives the maximal modules
    that avoid u, and they settle the (co-)component split too. If
    g[within] is disconnected and C is u's component, the rest R = within
    minus C is a module that avoids u (C sees none of it), and a maximal
    one: a module that avoids u and holds R and more meets C, so, as C is
    connected, some a of C in it has a neighbour b in C outside it, and b,
    which sees a, sees all of the module, R included, which C does not.
    So R is one refined part P, and P has no edge to within minus P.
    Conversely a part P with no edge to the rest is a union of components
    that avoid u, so P lies in the module R and, being maximal, is R; no
    other part passes. As P is a module, one member's row decides it. In
    the complement the same holds of co-components, and P has every edge
    to the rest. The parts are then u's (co-)component and P, in that
    order.

    Otherwise g[within] is connected and co-connected, the maximal proper
    modules partition it and H is prime with four or more vertices. Let
    M_u be u's part. Every other part is a maximal module that avoids u,
    and every maximal module that avoids u lies in one part, so the
    refined parts are the other parts plus a partition of M_u minus u. A
    part P with least member r lies in M_u iff the closure of {u, r} is
    proper, and that closure then lies in M_u, so each part it meets does
    too and needs no closure of its own. Each part therefore takes at most
    one closure, which stops at the parts found outside M_u; M_u is what
    those parts leave.

    Two guards check the closure argument on every call: H must be prime,
    a verdict read from ``_quotient_is_prime``, so each labelled quotient
    runs its pair closures once per process, and every part must be a
    module of g[within], which is checked afresh, as the same H can be
    built from other parts."""
    rows, avoiding = g.rows, _avoiding(g, within)
    for part in avoiding:
        rest = within & ~part
        seen = rows[(part & -part).bit_length() - 1] & rest
        if not seen or seen == rest:
            parts = [rest, part]
            break
    else:
        u, stop, inside, parts = within & -within, 0, 0, []
        for part in avoiding:
            if part & inside:
                continue
            closure = _module_closure(g, within, u | part & -part, stop)
            if closure == within:
                stop |= part
                parts.append(part)
            else:
                inside |= closure
        parts.insert(0, within & ~stop)
    h = g.induced((p & -p).bit_length() - 1 for p in parts)
    if h.n < 2 or not _quotient_is_prime(h):
        raise AssertionError("quotient H is one vertex or not prime")
    for part in parts:
        if not _is_module(g, within, part):
            raise AssertionError("quotient part is not a module")
    return h, parts


def _avoiding(g: Graph, within: int) -> list[int]:
    """The maximal modules of g[within] that avoid its least vertex u, as
    bitmasks ordered by least member; they partition ``within`` minus u.

    Partition refinement (Ehrenfeucht, Gabow, McConnell and Sullivan,
    1994): start from u's neighbours and non-neighbours in the mask and
    split a part by any vertex outside it that tells two members apart,
    until no part splits. Such vertices are read off the members' row
    XORs with one member's row, as in ``_module_closure``; a part splits
    by the least of them, and both halves are checked again, as each now
    lies outside the other. A module that avoids u lies in one starting
    part, and no splitter of a part that holds it splits it, so each
    final part, a module that avoids u, holds every such module it meets.
    A part costs one XOR per member each time it is checked."""
    rows = g.rows
    u = within & -within
    near = rows[u.bit_length() - 1] & within
    todo, done = [p for p in (near, within & ~near ^ u) if p], []
    while todo:
        part = todo.pop()
        left = part & part - 1  # the least member's own XOR is 0
        base, split = rows[(part ^ left).bit_length() - 1], 0
        while left:
            low = left & -left
            left ^= low
            split |= base ^ rows[low.bit_length() - 1]
        split &= within & ~part
        if split:
            row = rows[(split & -split).bit_length() - 1]
            todo += part & row, part & ~row
        else:
            done.append(part)
    return sorted(done, key=lambda p: p & -p)


P4_END = "P4End"
P4_MID = "P4Mid"
BULL_NOSE = "BullNose"


# the neighbour lists of the pattern each role's witness induces, in
# witness order, and the place of v in it
_P4, _BULL = (tuple(tuple(_bits(row)) for row in g.rows)
              for g in (path(4), bull()))
_PATTERNS = {P4_END: (_P4, 0), P4_MID: (_P4, 1), BULL_NOSE: (_BULL, 4)}


@_record
class VertexRole:
    role: str
    witness: tuple[int, ...]


def classify_vertex(h: Graph, v: int) -> VertexRole:
    """Locate ``v`` in an induced P4 (as endpoint, then midpoint) or as the
    nose of an induced bull; one of these must exist in a prime graph on
    four or more vertices; on a graph that is not prime it may exist
    nowhere, and then :class:`ValueError` is raised.

    Witnesses are in path order (P4 roles: v first for endpoints, second
    for midpoints) or path-then-nose order for the bull, and are the first
    found scanning candidate ids in ascending order. A ``v`` that is not an
    int in 0..h.n-1 (a bool is not) raises ValueError.
    """
    if h.n < 4:
        raise ValueError("classification needs at least 4 vertices")
    if type(v) is not int or not 0 <= v < h.n:
        raise ValueError(f"vertex {v!r} is not in 0..{h.n - 1}")
    # each position walks its candidate mask lowest bit first, so the
    # first witness is the one an ascending scan over id tuples finds
    rows, bit = h.rows, 1 << v
    near, far = rows[v], ((1 << h.n) - 1) & ~rows[v] & ~bit  # N(v), V \ N[v]
    for a in _bits(near):  # P4 end: v a b c
        for b in _bits(rows[a] & far):
            for c in _bits(rows[b] & far & ~rows[a]):
                return VertexRole(P4_END, (v, a, b, c))
    for a in _bits(near):  # P4 midpoint: a v b c
        for b in _bits(near & ~rows[a] & ~(1 << a)):
            for c in _bits(rows[b] & far & ~rows[a]):
                return VertexRole(P4_MID, (a, v, b, c))
    for a in _bits(far):  # bull: path a b c d, nose v on b and c
        for b in _bits(rows[a] & near):
            for c in _bits(rows[b] & near & ~rows[a]):
                for d in _bits(rows[c] & far & ~rows[a] & ~rows[b]):
                    return VertexRole(BULL_NOSE, (a, b, c, d, v))
    if not is_prime(h):  # checked only here, so prime inputs pay nothing
        raise ValueError("classification needs a prime graph")
    raise AssertionError(
        "vertex of a prime graph is in no P4 and noses no bull")


def verify_role(h: Graph, v: int, role: VertexRole) -> bool:
    """Independent check that a classification witness is genuine: its
    vertices are distinct, ``v`` sits at the role's place, and each one's
    row in ``h``, cut to the witness, is its pattern row in ``h``'s ids.
    A witness id that is not an int in 0..h.n-1 (a bool is not) fails."""
    pattern, place = _PATTERNS.get(role.role, ((), 0))
    w = role.witness
    if not pattern or len(w) != len(pattern) or \
            set(map(type, w)) != {int} or min(w) < 0 or max(w) >= h.n or \
            len(set(w)) != len(w) or w[place] != v:
        return False
    rows, inside = h.rows, 0
    for u in w:
        inside |= 1 << u
    for u, near in zip(w, pattern):
        want = 0
        for i in near:
            want |= 1 << w[i]
        if rows[u] & inside != want:
            return False
    return True


def decomposition_tree(g: Graph) -> dict:
    """Quotient applied recursively to each module, as a JSON-able tree."""
    node: dict = {"graph": to_graph6(g), "n": g.n}
    if g.n >= 2:
        dec = quotient(g)
        node["quotient"] = to_graph6(dec.quotient)
        node["modules"] = [{"vertices": list(part),
                            "tree": decomposition_tree(g.induced(part))}
                           for part in dec.modules]
    return node
