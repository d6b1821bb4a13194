import random

import pytest

# tests import random_cograph from here
from letterkit.claims import random_cograph  # noqa: F401


def random_graph(rng: random.Random, n: int, p: float):
    from letterkit import Graph
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < p])


def twin_rich_graph(rng: random.Random, n: int):
    """A random graph on 2..min(n, 4) vertices with each vertex inflated
    by a random graph, n >= 2 vertices in all, so that many vertex pairs
    lie in a proper module."""
    from letterkit import inflate
    base = random_graph(rng, rng.randint(2, min(n, 4)), rng.random())
    sizes = [1] * base.n
    for _ in range(n - base.n):
        sizes[rng.randrange(base.n)] += 1
    return inflate(base, [random_graph(rng, s, rng.random())
                          for s in sizes])[0]


def masked_graph(rng: random.Random, n: int, twins: bool, least: int):
    """A random graph on n vertices, sparse, even or dense, or a twin-rich
    one, and a random mask of ``least`` or more of its vertices: often
    disconnected in the sparse graph, co-disconnected in the dense one."""
    g = twin_rich_graph(rng, n) if twins else \
        random_graph(rng, n, rng.choice([0.15, 0.5, 0.85]))
    return g, sum(1 << v for v in rng.sample(range(n), rng.randint(least, n)))


def climb_stacked_path(g):
    """The largest r with an induced stacked path R_r in ``g`` and the
    least witness map, by climbing r with ``contains_induced``: R_{r-1}
    embeds in R_r (its levels 2..r), so the first miss ends the climb. The
    reference for ``obstructions.max_stacked_path``, unweighted, and, on
    inflations, for the composer's weighted searches."""
    from letterkit import contains_induced, stacked_path
    r, witness = 0, ()
    while 4 * (r + 1) <= g.n:
        hit = contains_induced(g, stacked_path(r + 1)[0])
        if hit is None:
            break
        r, witness = r + 1, hit
    return r, witness


def component(g, within: int, co: bool = False) -> int:
    """The component of the least vertex of ``within`` in g[within], as a
    bitmask; with ``co``, its component in the complement. A plain BFS over
    ``Graph.adjacent``, the reference for ``modular._split``'s
    (co-)component split."""
    u = (within & -within).bit_length() - 1
    seen, todo = {u}, [u]
    while todo:
        v = todo.pop(0)
        for w in range(g.n):
            if within >> w & 1 and w not in seen and g.adjacent(v, w) != co:
                seen.add(w)
                todo.append(w)
    return sum(1 << v for v in seen)


def reconstruct(g, decomposition):
    """Inflate ``quotient(g)``'s quotient by g's induced modules; returns
    the graph plus the vertex map sending each rebuilt vertex to the
    original id (a concrete isomorphism witness for the roundtrip)."""
    from letterkit import inflate
    rebuilt, blocks = inflate(decomposition.quotient,
                              [g.induced(m) for m in decomposition.modules])
    mapping = [0] * rebuilt.n
    for part, block in zip(decomposition.modules, blocks):
        for orig, new in zip(part, block):
            mapping[new] = orig
    return rebuilt, mapping


def stacked_path_inductive(n: int):
    """R_n built by repeatedly inflating the bull's nose, starting from P4.

    Independent oracle for ``stacked_path``, with the same numbering.
    """
    from letterkit import bull, inflate, path
    if n < 1:
        raise ValueError("n must be >= 1")
    g = path(4)
    for _ in range(n - 1):
        g, _ = inflate(bull(), [path(1)] * 4 + [g])
    return g


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
