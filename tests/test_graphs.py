import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterkit import (
    Graph,
    all_graphs,
    bull,
    co_matching,
    complete,
    contains_induced,
    cycle,
    disjoint_union,
    from_graph6,
    inflate,
    is_isomorphic,
    join,
    matching,
    path,
    stacked_path,
    stacked_path_inductive,
    threshold,
    to_dot,
    to_graph6,
)
from letterkit.graphs import DOMINATING, ISOLATED, ScaleError, generate
from tests.conftest import random_cograph


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_basic_families():
    assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle(4).edge_count() == 4
    assert complete(4).edge_count() == 6
    assert matching(1).edges() == [(0, 1)]
    assert matching(3).edges() == [(0, 1), (2, 3), (4, 5)]
    assert co_matching(2).edge_count() == 4
    b = bull()
    assert sorted(b.degree(v) for v in b.vertices()) == [1, 1, 2, 3, 3]
    with pytest.raises(ValueError):
        cycle(2)


def test_threshold_generator():
    g = threshold([ISOLATED, DOMINATING])
    assert g.edges() == [(0, 1)]
    g = threshold([ISOLATED, ISOLATED, DOMINATING])
    assert is_isomorphic(g, path(3))
    # all dominating after the first gives a clique
    g = threshold([ISOLATED, DOMINATING, DOMINATING, DOMINATING])
    assert is_isomorphic(g, complete(4))


def test_complement_involution():
    for g in all_graphs(5):
        assert g.complement().complement() == g


def test_complement_of_clique_is_edgeless():
    assert complete(3).complement().edge_count() == 0


def test_disjoint_union_and_join():
    assert disjoint_union(matching(1), matching(1)) == matching(2)
    assert is_isomorphic(join(path(1), path(2)), complete(3))


def test_induced_keeps_relative_order():
    g = path(4)
    sub = g.induced([0, 2, 3])
    assert sub.edges() == [(1, 2)]
    with pytest.raises(ValueError):
        g.induced([0, 9])


def test_stacked_path_small():
    r1, labels = stacked_path(1)
    assert is_isomorphic(r1, path(4))
    # s11 - c11 - c12 - s12 in numbering order
    assert r1.edges() == [(0, 1), (1, 2), (2, 3)]
    r2, labels2 = stacked_path(2)
    assert r2.n == 8 and r2.edge_count() == 14
    cl = [labels2.id_of("c", i, j) for i in (1, 2) for j in (1, 2)]
    assert all(r2.adjacent(u, v) for u, v in itertools.combinations(cl, 2))
    sl = [labels2.id_of("s", i, j) for i in (1, 2) for j in (1, 2)]
    assert not any(r2.adjacent(u, v) for u, v in itertools.combinations(sl, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_stacked_constructions_agree(n):
    # n = 5 has 20 vertices, past the default isomorphism cap
    assert is_isomorphic(stacked_path(n)[0], stacked_path_inductive(n),
                         max_n=20)


@pytest.mark.parametrize("n", range(2, 6))
def test_stacked_inner_levels_are_smaller_stack(n):
    g, labels = stacked_path(n)
    inner = [v for lvl in range(2, n + 1) for v in labels.level_vertices(lvl)]
    assert is_isomorphic(g.induced(inner), stacked_path(n - 1)[0])


def test_stacked_inductive_peeling_level_one():
    r3 = stacked_path_inductive(3)
    assert r3.n == 12
    # the outer P4 occupies the first four ids of the inductive build
    inner = r3.induced(range(4, 12))
    assert is_isomorphic(inner, stacked_path_inductive(2))


def test_contains_induced():
    r2 = stacked_path(2)[0]
    assert contains_induced(r2, matching(2)) is None
    assert contains_induced(complete(4), path(4)) is None
    r3 = stacked_path(3)[0]
    assert contains_induced(r3, stacked_path(2)[0]) is not None
    # witness is an actual induced embedding
    phi = contains_induced(r3, path(4))
    assert phi is not None
    assert is_isomorphic(r3.induced(phi), path(4))


def test_contains_induced_is_lexicographically_least():
    g = path(4)
    assert contains_induced(g, path(2)) == (0, 1)
    assert contains_induced(g, path(3)) == (0, 1, 2)


def test_is_isomorphic():
    rev = Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert is_isomorphic(path(4), rev)
    assert not is_isomorphic(complete(3), path(3))
    assert not is_isomorphic(path(3), path(4))
    with pytest.raises(ScaleError):
        is_isomorphic(complete(17), complete(17))


def test_inflate():
    g, blocks = inflate(complete(2), [path(1), path(1)])
    assert g == matching(1) and blocks == [[0], [1]]
    r2, _ = inflate(bull(), [path(1)] * 4 + [path(4)])
    assert is_isomorphic(r2, stacked_path(2)[0])
    with pytest.raises(ValueError):
        inflate(complete(2), [path(1), path(0)])


def test_inflate_quotient_roundtrip():
    from letterkit import quotient
    g, blocks = inflate(path(4), [matching(1), path(1), path(1), path(1)])
    assert g.n == 5
    dec = quotient(g)
    assert is_isomorphic(dec.quotient, path(4))
    assert tuple(blocks[0]) in dec.modules


def test_generate_dispatch():
    assert generate("path", 3)[0] == path(3)
    assert generate("stacked", 2)[1] is not None
    with pytest.raises(ValueError):
        generate("mystery", 3)


def test_all_graphs_counts():
    assert [len(all_graphs(n)) for n in range(8)] == \
        [1, 1, 2, 4, 11, 34, 156, 1044]


def test_graph6_roundtrip_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert from_graph6(to_graph6(g)) == g


def test_graph6_matches_networkx():
    import networkx as nx
    for g in all_graphs(5):
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges())
        expected = nx.to_graph6_bytes(ng, header=False).decode().strip()
        assert to_graph6(g) == expected


def test_graph6_header_and_errors():
    assert from_graph6(">>graph6<<A_") == matching(1)
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("B")  # truncated payload


def test_graph6_large_n_prefix():
    g = path(100)
    assert from_graph6(to_graph6(g)) == g


def test_dot_export():
    text = to_dot(matching(1))
    assert text.startswith("graph G {") and "0 -- 1;" in text


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 16), st.randoms(use_true_random=False))
def test_induced_witness_property(n, rnd):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rnd.random() < 0.4]
    g = Graph.from_edges(n, edges)
    phi = contains_induced(g, path(4))
    if phi is not None:
        assert is_isomorphic(g.induced(phi), path(4))


# -- contains_induced against the pair-by-pair search it replaced ----------

def _reference_contains_induced(g: Graph, pattern: Graph):
    """Lexicographically least injective map realizing ``pattern`` as an
    induced subgraph of ``g``, or None.

    The map is a tuple phi with phi[i] the image of pattern vertex i;
    adjacency is both preserved and reflected.
    """
    k, n = pattern.n, g.n
    if k > n:
        return None
    pdeg = [pattern.degree(i) for i in range(k)]
    gdeg = [g.degree(v) for v in range(n)]
    phi: list[int] = []
    used = 0

    def extend(i: int):
        nonlocal used
        if i == k:
            return True
        for v in range(n):
            if used >> v & 1 or gdeg[v] < pdeg[i]:
                continue
            ok = True
            for j in range(i):
                if g.adjacent(phi[j], v) != pattern.adjacent(j, i):
                    ok = False
                    break
            if not ok:
                continue
            phi.append(v)
            used |= 1 << v
            if extend(i + 1):
                return True
            phi.pop()
            used &= ~(1 << v)
        return False

    return tuple(phi) if extend(0) else None


def _random_graph(rnd, n: int) -> Graph:
    density = rnd.random()
    return Graph.from_edges(n, [(u, v) for u in range(n)
                                for v in range(u + 1, n)
                                if rnd.random() < density])


def _check_against_oracles(g: Graph, pattern: Graph):
    nx = pytest.importorskip("networkx")
    phi = contains_induced(g, pattern)
    assert phi == _reference_contains_induced(g, pattern)
    # GraphMatcher's subgraph isomorphism is the induced kind
    matcher = nx.algorithms.isomorphism.GraphMatcher(_to_nx(nx, g),
                                                     _to_nx(nx, pattern))
    assert (phi is not None) == matcher.subgraph_is_isomorphic()
    if phi is not None:
        assert len(set(phi)) == pattern.n
        assert all(g.adjacent(phi[i], phi[j]) == pattern.adjacent(i, j)
                   for i, j in itertools.combinations(range(pattern.n), 2))


def _to_nx(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 14), st.integers(0, 6), st.randoms(use_true_random=False))
def test_contains_induced_matches_oracles_random(n, k, rnd):
    _check_against_oracles(_random_graph(rnd, n), _random_graph(rnd, k))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["P4", "bull", "C5", "R2", "R3"]), st.integers(1, 3),
       st.randoms(use_true_random=False))
def test_contains_induced_matches_oracles_stacked(base_name, r, rnd):
    base = {"P4": path(4), "bull": bull(), "C5": cycle(5),
            "R2": stacked_path(2)[0], "R3": stacked_path(3)[0]}[base_name]
    g, _ = inflate(base, [random_cograph(rnd, rnd.randint(1, 16 // base.n))
                          for _ in range(base.n)])
    _check_against_oracles(g, stacked_path(r)[0])


def test_contains_induced_edge_cases():
    assert contains_induced(path(3), Graph(0, ())) == ()
    assert contains_induced(Graph(0, ()), Graph(0, ())) == ()
    assert contains_induced(Graph(0, ()), path(1)) is None
    assert contains_induced(path(3), path(4)) is None
    assert contains_induced(path(1), path(1)) == (0,)
