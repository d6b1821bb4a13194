"""Core graph type, family generators, and small-graph machinery.

Vertices are always 0..n-1 and adjacency is kept as one bitmask row per
vertex, which keeps neighborhood tests and induced-subgraph extraction
cheap at the scales this package targets (a few hundred vertices at most).
"""

from __future__ import annotations

import operator
from functools import lru_cache


class ScaleError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its size cap."""


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """Make ``cls`` a frozen value class over its annotated fields, in
    order, as ``dataclasses.dataclass(frozen=True)`` does, but cheaper to
    import: construction by position or keyword, then ``__post_init__`` if
    the class has one; AttributeError on assignment or deletion; equality
    by exact class and fields, a hash over the fields and the repr
    ``Name(field=value, ...)``.

    Only ``__init__`` is compiled, one per class and on the class's first
    construction, so a process pays for the classes it uses alone, and a
    construction costs what a dataclass's does."""
    names = tuple(cls.__dict__["__annotations__"])
    fields = operator.attrgetter(*names)
    post = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):  # replaces itself on first use
        source = f"def __init__(self, {', '.join(names)}):\n" + "".join(
            f"    _set(self, {name!r}, {name})\n" for name in names)
        if post is not None:
            source += "    _post(self)\n"
        space = {"__name__": cls.__module__, "_post": post,
                 "_set": object.__setattr__}
        exec(source, space)
        cls.__init__ = space["__init__"]
        cls.__init__(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = \
        __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    return cls


@_record
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is the neighborhood of ``v`` as a bitmask. The matrix is
    symmetric and irreflexive. The rows are stored as a tuple, so a graph
    is hashable and does not change with the sequence it was given.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if self.n < 0 or len(rows) != self.n:
            raise ValueError("row count must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError("adjacency bits out of range")
            if row >> v & 1:
                raise ValueError("self-loops are not allowed")
        # each neighbour v > u of u must list u; then the bit counts catch
        # any bit below the diagonal that has no mirror above it
        walked = 0
        for u, row in enumerate(rows):
            row = row >> u + 1 << u + 1
            while row:
                low = row & -row
                row ^= low
                walked += 1
                if not rows[low.bit_length() - 1] >> u & 1:
                    raise ValueError("adjacency must be symmetric")
        if 2 * walked != sum(row.bit_count() for row in rows):
            raise ValueError("adjacency must be symmetric")

    @classmethod
    def _built(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        """A graph from rows that are symmetric, loop-free and in range by
        construction, without the checks of ``__post_init__``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    # -- basic queries ---------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in range(u + 1, self.n) if self.adjacent(u, v)]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def vertices(self) -> range:
        return range(self.n)

    # -- constructions ---------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """A graph from an edge list, each edge checked once, here."""
        if n < 0:
            raise ValueError("n must be >= 0")
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._built(n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._built(self.n, tuple((full & ~row) & ~(1 << v)
                                          for v, row in enumerate(self.rows)))

    def induced(self, vertex_ids) -> "Graph":
        """Induced subgraph; retained ids keep their relative order."""
        ids = sorted(set(vertex_ids))
        if ids and not (0 <= ids[0] and ids[-1] < self.n):
            raise ValueError("vertex id out of range")
        bit = {1 << v: 1 << i for i, v in enumerate(ids)}  # old bit -> new
        kept, rows = sum(bit), []
        for u in ids:
            row, new = self.rows[u] & kept, 0
            while row:
                low = row & -row
                row ^= low
                new |= bit[low]
            rows.append(new)
        return Graph._built(len(ids), tuple(rows))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    return Graph._built(g1.n + g2.n,
                        g1.rows + tuple(r << g1.n for r in g2.rows))


def join(g1: Graph, g2: Graph) -> Graph:
    low, high = (1 << g1.n) - 1, ((1 << g2.n) - 1) << g1.n
    return Graph._built(g1.n + g2.n, tuple(r | high for r in g1.rows) +
                        tuple(r << g1.n | low for r in g2.rows))


def inflate(h: Graph, module_graphs) -> tuple[Graph, list[list[int]]]:
    """Replace every vertex v of ``h`` by ``module_graphs[v]``.

    Blocks occupy consecutive id ranges in h's vertex order; returns the
    inflated graph and the per-vertex id blocks.
    """
    if len(module_graphs) != h.n:
        raise ValueError("need one module graph per vertex")
    blocks: list[list[int]] = []
    spans: list[int] = []  # each block as a bitmask
    offset = 0
    for g in module_graphs:
        if g.n == 0:
            raise ValueError("module graphs must be nonempty")
        blocks.append(list(range(offset, offset + g.n)))
        spans.append(((1 << g.n) - 1) << offset)
        offset += g.n
    rows: list[int] = []
    for v, g in enumerate(module_graphs):
        outside = sum(spans[u] for u in _bits(h.rows[v]))
        rows += [r << blocks[v][0] | outside for r in g.rows]
    return Graph._built(offset, tuple(rows)), blocks


# -- graph families -------------------------------------------------------

def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n)
                                for v in range(u + 1, n)))


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph._built(n, (0,) * n)


def matching(m: int) -> Graph:
    """mK2 with pairs (2i, 2i+1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return Graph.from_edges(2 * m, ((2 * i, 2 * i + 1) for i in range(m)))


def co_matching(m: int) -> Graph:
    return matching(m).complement()


def bull() -> Graph:
    """P4 on 0-1-2-3 plus nose 4 adjacent to both midpoints."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])


ISOLATED = "isolated"
DOMINATING = "dominating"


def threshold(creation_sequence) -> Graph:
    """Threshold graph from a creation sequence over {isolated, dominating}.

    Vertex i is the i-th added vertex; a dominating addition is adjacent to
    every earlier vertex.
    """
    seq = list(creation_sequence)
    if not seq:
        raise ValueError("creation sequence must be nonempty")
    edges = []
    for i, kind in enumerate(seq):
        if kind == DOMINATING:
            edges += [(j, i) for j in range(i)]
        elif kind != ISOLATED:
            raise ValueError(f"bad creation step {kind!r}")
    return Graph.from_edges(len(seq), edges)


@_record
class StackedPathLabels:
    """Role tags for the stacked path R_n: (role, level, slot) per vertex.

    Roles are 's' (co-clique side) and 'c' (clique side); levels run 1..n
    with level 1 outermost; slots are 1 or 2.
    """

    n: int
    roles: tuple[tuple[str, int, int], ...]

    def id_of(self, role: str, level: int, slot: int) -> int:
        return self.roles.index((role, level, slot))

    def level_vertices(self, level: int) -> list[int]:
        return [v for v, (_, i, _) in enumerate(self.roles) if i == level]


def stacked_path(n: int) -> tuple[Graph, StackedPathLabels]:
    """R_n via the split-graph (clique C / co-clique S) description.

    Numbering is level-major: s_{i,1}, c_{i,1}, c_{i,2}, s_{i,2} per level i.
    s_{u1,v1} ~ c_{u2,v2} iff u1 > u2, or u1 = u2 and v1 = v2; the c's form
    a clique and the s's a co-clique. Level 1 is outermost: its clique pair
    dominates every deeper level.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    roles = []
    for i in range(1, n + 1):
        roles += [("s", i, 1), ("c", i, 1), ("c", i, 2), ("s", i, 2)]
    labels = StackedPathLabels(n, tuple(roles))
    edges = []
    for u, (ru, lu, su) in enumerate(roles):
        for v in range(u + 1, len(roles)):
            rv, lv, sv = roles[v]
            if ru == rv == "c":
                edges.append((u, v))
            elif ru != rv:
                s_lvl, s_slot = (lu, su) if ru == "s" else (lv, sv)
                c_lvl, c_slot = (lv, sv) if ru == "s" else (lu, su)
                if s_lvl > c_lvl or (s_lvl == c_lvl and s_slot == c_slot):
                    edges.append((u, v))
    return Graph.from_edges(4 * n, edges), labels


_FAMILIES = ("path", "cycle", "complete", "matching", "co-matching",
             "bull", "stacked", "threshold")


def generate(family: str, n: int | None = None, seq=None):
    """Dispatch to a family generator; returns (Graph, labels-or-None)."""
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")
    if family == "bull":
        return bull(), None
    if family == "threshold":
        if seq is None:
            raise ValueError("family 'threshold' needs a creation sequence")
        return threshold(seq), None
    if n is None:
        raise ValueError(f"family {family!r} needs a size n")
    if family == "stacked":
        return stacked_path(n)
    sized = {"path": path, "cycle": cycle, "complete": complete,
             "matching": matching, "co-matching": co_matching}
    return sized[family](n), None


# -- induced subgraph isomorphism -----------------------------------------

def contains_induced(g: Graph, pattern: Graph):
    """Lexicographically least injective map realizing ``pattern`` as an
    induced subgraph of ``g``, or None.

    The map is a tuple phi with phi[i] the image of pattern vertex i;
    adjacency is both preserved and reflected.

    Bitmask domains with forward checking: pattern vertex i starts with
    the g-vertices of degree at least its own, and placing v for i cuts
    the domain of each later j to v's neighbours or to its non-neighbours
    (never v itself, so the map is injective), as i ~ j in the pattern.
    An emptied domain prunes the branch. Pattern vertices are placed in id
    order and domains walked lowest vertex first, so the first complete
    map found is the lexicographically least witness.
    """
    k, n, full = pattern.n, g.n, (1 << g.n) - 1
    if k > n:
        return None
    gdeg = [g.degree(v) for v in range(n)]
    domains = [sum(1 << v for v in range(n) if gdeg[v] >= pattern.degree(i))
               for i in range(k)]
    # masks[v][a]: v's non-neighbours (a = 0) or neighbours (a = 1)
    masks = [(full & ~row & ~(1 << v), row) for v, row in enumerate(g.rows)]
    later_adj = [[pattern.rows[i] >> j & 1 for j in range(i + 1, k)]
                 for i in range(k)]
    phi: list[int] = []

    def extend(i: int, doms: list[int]) -> bool:
        if i == k:
            return True
        dom, rest, adj = doms[0], doms[1:], later_adj[i]
        while dom:
            low = dom & -dom
            dom ^= low
            v = low.bit_length() - 1
            new = [d & masks[v][a] for d, a in zip(rest, adj)]
            if 0 in new:
                continue
            phi.append(v)
            if extend(i + 1, new):
                return True
            phi.pop()
        return False

    try:
        return tuple(phi) if extend(0, domains) else None
    finally:
        del extend  # extend refers to itself: free it at return or raise


# -- canonical forms and exhaustive enumeration ---------------------------

def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighborhood-color refinement (1-WL); returns stable colors
    encoded so equal ints mean indistinguishable vertices."""
    nbrs = [_bits(row) for row in g.rows]
    colors = [len(us) for us in nbrs]
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in us])))
                for c, us in zip(colors, nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


@lru_cache(maxsize=64)
def _twins(g: Graph) -> tuple[int, ...]:
    """For each vertex v of ``g``, its twins as a bitmask: the u != v whose
    row equals v's (not adjacent) or does with u and v added (adjacent),
    so swapping u and v is an automorphism. Kept for the last 64 graphs."""
    group: dict[int, int] = {}
    for v, row in enumerate(g.rows):
        for key in row, ~(row | 1 << v):  # ~ keeps the two kinds distinct
            group[key] = group.get(key, 0) | 1 << v
    return tuple((group[row] | group[~(row | 1 << v)]) & ~(1 << v)
                 for v, row in enumerate(g.rows))


@lru_cache(maxsize=64)
def _nons(g: Graph) -> tuple[int, ...]:
    """For each vertex v of ``g``, its non-neighbours as a bitmask, v's
    other side from its row. Kept for the last 64 graphs."""
    full = (1 << g.n) - 1
    return tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.rows))


@lru_cache(maxsize=64)
def _canonical(g: Graph) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``canonical_code(g)``, a vertex ordering that reaches it, and each
    vertex's orbit under Aut(g) as a bitmask, by branch and bound over
    ordered partitions of the unplaced vertices, from the colour classes
    in order. Placing v of the first part at position i splits every part
    into v's non-neighbours, then its neighbours: row i at its least under
    the prefix. Only branches with the least row go on; v is one per twin
    class (a twin swap fixes the prefix and the parts), and one branch per
    partition, which alone fixes the rows to come. Kept for the last 64
    graphs.

    The orbits come from the branches dropped (McKay, "Practical graph
    isomorphism", 1981). Each starts as v and its twins. A prefix ``new``
    dropped for an ``old`` one with the same rows and the same partition
    of the same unplaced vertices gives every completion of both the same
    code, so the map old[j] -> new[j], fixing the rest, is an automorphism,
    and the orbits of old[j] and new[j] merge. These maps and the twin
    swaps generate Aut(g). Any ordering with the least code keeps every
    partition in order (sorting within a part lowers its rows), so at each
    depth one of them carries it to a kept prefix: a twin swap where its
    vertex was skipped, a merge map where its partition was dropped. They
    carry every least ordering to the one found, and Aut(g) acts on the
    least orderings without fixed points, so they give all of it."""
    n, rows, twins, code = g.n, g.rows, _twins(g), 0
    orbits = [1 << v | twins[v] for v in range(n)]
    colors = _refine_colors(g)
    level = {tuple(sum(1 << v for v, c in enumerate(colors) if c == k)
                   for k in sorted(set(colors))): ()}  # parts -> prefix
    for i in range(n):
        least, kept = -1, {}
        for parts, order in level.items():
            first = left = parts[0]
            while left:
                v = (left & -left).bit_length() - 1
                left &= ~twins[v] & left - 1
                row, rest, bits = rows[v], (first & ~(1 << v), *parts[1:]), 0
                for part in rest:  # zeros, then a one per neighbour
                    bits = (bits << part.bit_count()
                            | (1 << (part & row).bit_count()) - 1)
                if bits > least >= 0:
                    continue
                if bits != least:
                    least, kept = bits, {}
                split = [s for p in rest for s in (p & ~row, p & row) if s]
                new = (*order, v)
                old = kept.setdefault(tuple(split), new)
                if old is not new:  # new is dropped: merge the orbits
                    for a, b in zip(old, new):
                        if not orbits[a] >> b & 1:
                            merged = orbits[a] | orbits[b]
                            for u in _bits(merged):
                                orbits[u] = merged
        code, level = code << n - 1 - i | least, kept
    return (n << n * n) | code, next(iter(level.values())), tuple(orbits)


def canonical_code(g: Graph) -> int:
    """Canonical integer form: n, then the least upper-triangle adjacency
    code over the orderings that keep the colour classes in order."""
    return _canonical(g)[0]


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Equal canonical codes; at most 16 vertices."""
    if max(g1.n, g2.n) > 16:
        raise ScaleError("is_isomorphic is capped at 16 vertices")
    return canonical_code(g1) == canonical_code(g2)


def _extend(prev: tuple[Graph, ...], n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, from ``prev``, those on
    n - 1 vertices: each graph of prev gains vertex n - 1 with every
    neighbourhood in turn, the first candidate of each canonical code is
    kept, and the representatives are sorted by code."""
    seen: dict[int, Graph] = {}
    for g in prev:
        for nbhd in range(1 << (n - 1)):
            rows = [g.rows[v] | ((nbhd >> v & 1) << (n - 1))
                    for v in range(n - 1)]
            rows.append(nbhd)
            cand = Graph._built(n, tuple(rows))
            seen.setdefault(canonical_code(cand), cand)
    return tuple(seen[c] for c in sorted(seen))


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, one representative each,
    sorted by canonical code.

    For n <= 7 the representatives are read from the graph6 table in
    ``letterkit._catalogue``, loaded on first use. :func:`_extend` alone
    writes that table (``PYTHONPATH=src python3 -m tests.catalogue``) and
    the tests check it against a fresh run. n = 8 is built by extending
    the 7-vertex catalogue (15-20 s); n > 8 raises :class:`ScaleError`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 8:
        raise ScaleError("exhaustive enumeration is capped at 8 vertices")
    if n == 8:
        return _extend(all_graphs(7), 8)
    from ._catalogue import GRAPH6
    return tuple(from_graph6(code) for code in GRAPH6.splitlines()[n].split())


# -- file formats ----------------------------------------------------------

# graph6 byte -> its six payload bits, most significant first
_G6_BITS = {63 + v: format(v, "06b") for v in range(64)}


def to_graph6(g: Graph) -> str:
    """graph6 encoding (no header), per the standard format definition."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = chr(126) + "".join(chr((n >> s & 63) + 63)
                                    for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for graph6")
    # the pairs (0, 1), (0, 2), (1, 2), (0, 3), ... in turn: column v is
    # v's neighbours u < v, lowest first, read off bin() of those u with
    # bit v set as a marker ("0b1" then v digits, highest first)
    rows = g.rows
    bits = "".join(bin(rows[v] & (1 << v) - 1 | 1 << v)[:2:-1]
                   for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return prefix + "".join(chr(63 + int(bits[i:i + 6], 2))
                            for i in range(0, len(bits), 6))


def from_graph6(text: str) -> Graph:
    """Parse a graph6 string; the >>graph6<< header is accepted."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == chr(126):
        if len(s) < 4 or s[1] == chr(126):
            raise ValueError("unsupported graph6 size encoding")
        size, data = s[1:4], s[4:]
    else:
        size, data = s[0], s[1:]
    n = 0
    for ch in size:
        if not 63 <= ord(ch) <= 126:
            raise ValueError(f"bad graph6 size byte {ch!r}")
        n = n << 6 | (ord(ch) - 63)
    need = n * (n - 1) // 2
    if len(data) != -(-need // 6):
        raise ValueError("graph6 payload has wrong length")
    bits = data.translate(_G6_BITS)
    if len(bits) != 6 * len(data):  # a byte outside 63..126 stays one char
        bad = next(ch for ch in data if not "?" <= ch <= "~")
        raise ValueError(f"bad graph6 byte {bad!r}")
    if "1" in bits[need:]:
        raise ValueError("graph6 payload has nonzero padding")
    rows, start = [0] * n, 0
    for v in range(1, n):
        low = int(bits[start:start + v][::-1], 2)  # v's neighbours u < v
        start += v
        rows[v], bit = low, 1 << v
        while low:
            b = low & -low
            low ^= b
            rows[b.bit_length() - 1] |= bit
    return Graph._built(n, tuple(rows))


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines)
