"""Core graph type, family generators, and small-graph machinery.

Vertices are always 0..n-1 and adjacency is kept as one bitmask row per
vertex, which keeps neighborhood tests and induced-subgraph extraction
cheap at the scales this package targets (a few hundred vertices at most).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


class ScaleError(ValueError):
    """Raised when an exhaustive routine is asked to exceed its size cap."""


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``rows[v]`` is the neighborhood of ``v`` as a bitmask. The matrix is
    symmetric and irreflexive.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.rows) != self.n:
            raise ValueError("row count must equal vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError("adjacency bits out of range")
            if row >> v & 1:
                raise ValueError("self-loops are not allowed")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if (self.rows[u] >> v & 1) != (self.rows[v] >> u & 1):
                    raise ValueError("adjacency must be symmetric")

    # -- basic queries ---------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return bin(self.rows[v]).count("1")

    def neighbors(self, v: int) -> list[int]:
        return _bits(self.rows[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n)
                for v in range(u + 1, self.n) if self.adjacent(u, v)]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def vertices(self) -> range:
        return range(self.n)

    # -- constructions ---------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full & ~row) & ~(1 << v)
                                   for v, row in enumerate(self.rows)))

    def induced(self, vertex_ids) -> "Graph":
        """Induced subgraph; retained ids keep their relative order."""
        ids = sorted(set(vertex_ids))
        if ids and not (0 <= ids[0] and ids[-1] < self.n):
            raise ValueError("vertex id out of range")
        pos = {v: i for i, v in enumerate(ids)}
        return Graph.from_edges(len(ids),
                                ((pos[u], pos[v]) for u, v in self.edges()
                                 if u in pos and v in pos))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    shift = g1.n
    edges = list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + g2.n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    shift = g1.n
    edges = list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()]
    edges += [(u, v + shift) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edges(g1.n + g2.n, edges)


def inflate(h: Graph, module_graphs) -> tuple[Graph, list[list[int]]]:
    """Replace every vertex v of ``h`` by ``module_graphs[v]``.

    Blocks occupy consecutive id ranges in h's vertex order; returns the
    inflated graph and the per-vertex id blocks.
    """
    if len(module_graphs) != h.n:
        raise ValueError("need one module graph per vertex")
    blocks: list[list[int]] = []
    offset = 0
    for g in module_graphs:
        if g.n == 0:
            raise ValueError("module graphs must be nonempty")
        blocks.append(list(range(offset, offset + g.n)))
        offset += g.n
    edges = []
    for v, g in enumerate(module_graphs):
        base = blocks[v][0]
        edges += [(base + a, base + b) for a, b in g.edges()]
    for u in range(h.n):
        for v in range(u + 1, h.n):
            if h.adjacent(u, v):
                edges += [(a, b) for a in blocks[u] for b in blocks[v]]
    return Graph.from_edges(offset, edges), blocks


# -- graph families -------------------------------------------------------

def path(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph.from_edges(n, ((u, v) for u in range(n)
                                for v in range(u + 1, n)))


def empty(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph(n, (0,) * n)


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


@dataclass(frozen=True)
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


def stacked_path_inductive(n: int) -> Graph:
    """R_n built by repeatedly inflating the bull's nose, starting from P4.

    Independent oracle for :func:`stacked_path`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = path(4)
    for _ in range(n - 1):
        g, _ = inflate(bull(), [path(1)] * 4 + [g])
    return g


_FAMILIES = ("path", "cycle", "complete", "matching", "co-matching",
             "bull", "stacked", "threshold")


def generate(family: str, n: int | None = None, seq=None):
    """Dispatch to a family generator; returns (Graph, labels-or-None)."""
    if family == "path":
        return path(n), None
    if family == "cycle":
        return cycle(n), None
    if family == "complete":
        return complete(n), None
    if family == "matching":
        return matching(n), None
    if family == "co-matching":
        return co_matching(n), None
    if family == "bull":
        return bull(), None
    if family == "stacked":
        g, labels = stacked_path(n)
        return g, labels
    if family == "threshold":
        return threshold(seq), None
    raise ValueError(f"unknown family {family!r}; known: {', '.join(_FAMILIES)}")


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
    k, n = pattern.n, g.n
    if k > n:
        return None
    full = (1 << n) - 1
    # masks[v][a]: v's non-neighbours (a = 0) or neighbours (a = 1)
    masks = [(full & ~row & ~(1 << v), row) for v, row in enumerate(g.rows)]
    gdeg = [g.degree(v) for v in range(n)]
    domains = [sum(1 << v for v in range(n) if gdeg[v] >= pattern.degree(i))
               for i in range(k)]
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

    return tuple(phi) if extend(0, domains) else None


def is_isomorphic(g1: Graph, g2: Graph, max_n: int = 16) -> bool:
    """Exhaustive isomorphism test with invariant pruning; capped at max_n."""
    if max(g1.n, g2.n) > max_n:
        raise ScaleError(f"is_isomorphic is capped at {max_n} vertices")
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(g1.degree(v) for v in g1.vertices()) != \
       sorted(g2.degree(v) for v in g2.vertices()):
        return False
    # equal sizes make an induced embedding a full isomorphism
    return contains_induced(g2, g1) is not None


# -- canonical forms and exhaustive enumeration ---------------------------

def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighborhood-color refinement (1-WL); returns stable colors
    encoded so equal ints mean indistinguishable vertices."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
                for v in range(g.n)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_code(g: Graph) -> int:
    """Canonical integer form: minimum upper-triangle adjacency code over
    all vertex orderings compatible with the refined coloring."""
    colors = _refine_colors(g)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]
    best = None
    for perm_parts in itertools.product(
            *(itertools.permutations(grp) for grp in groups)):
        order = [v for part in perm_parts for v in part]
        code = 0
        for i in range(g.n):
            ri = g.rows[order[i]]
            for j in range(i + 1, g.n):
                code = code << 1 | (ri >> order[j] & 1)
        if best is None or code < best:
            best = code
    return (g.n << g.n * g.n) | (best or 0)


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism (one representative each),
    built by extending the (n-1)-vertex catalogue. Intended for n <= 8."""
    if n > 8:
        raise ScaleError("exhaustive enumeration is capped at 8 vertices")
    if n == 0:
        return (empty(0),)
    seen: dict[int, Graph] = {}
    for g in all_graphs(n - 1):
        for nbhd in range(1 << (n - 1)):
            rows = [g.rows[v] | ((nbhd >> v & 1) << (n - 1))
                    for v in range(n - 1)]
            rows.append(nbhd)
            cand = Graph(n, tuple(rows))
            code = canonical_code(cand)
            if code not in seen:
                seen[code] = cand
    return tuple(seen[c] for c in sorted(seen))


# -- file formats ----------------------------------------------------------

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
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.rows[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
             for i in range(0, len(bits), 6)] if bits else []
    return prefix + "".join(chars)


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
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        data = s[4:]
    else:
        n = ord(s[0]) - 63
        data = s[1:]
    if n < 0:
        raise ValueError("bad graph6 size byte")
    need = n * (n - 1) // 2
    bits = []
    for ch in data:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"bad graph6 byte {ch!r}")
        bits += [val >> s_ & 1 for s_ in range(5, -1, -1)]
    if len(bits) < need or any(bits[need:]):
        raise ValueError("graph6 payload has wrong length")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines)
