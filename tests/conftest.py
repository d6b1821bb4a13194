import random

import pytest

# tests import random_cograph from here
from letterkit.claims import random_cograph  # noqa: F401


def random_graph(rng: random.Random, n: int, p: float):
    from letterkit import Graph
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rng.random() < p])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
