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
    reference for ``obstructions._stacked_depth``."""
    from letterkit import contains_induced, stacked_path
    r, witness = 0, ()
    while 4 * (r + 1) <= g.n:
        hit = contains_induced(g, stacked_path(r + 1)[0])
        if hit is None:
            break
        r, witness = r + 1, hit
    return r, witness


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
