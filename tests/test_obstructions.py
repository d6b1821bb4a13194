import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterkit import (
    all_graphs,
    bounds,
    bull,
    complete,
    matching,
    max_induced_matching,
    max_stacked_path,
    path,
    profile,
    ramsey,
    stacked_path,
)
from letterkit.graphs import Graph, inflate
from letterkit.obstructions import f_impl, f_paper
from tests.conftest import climb_stacked_path, random_graph, twin_rich_graph


def brute_max_induced_matching(g):
    """Oracle: try all subsets of the edge set."""
    edges = g.edges()
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for chosen in itertools.combinations(edges, size):
            verts = [v for e in chosen for v in e]
            if len(set(verts)) != len(verts):
                continue
            sub = g.induced(verts)
            if sub.edge_count() == size:
                best = size
                break
    return best


def test_max_induced_matching_examples():
    assert max_induced_matching(matching(3))[0] == 3
    for n in range(2, 7):
        assert max_induced_matching(complete(n))[0] == 1
    for n in range(1, 5):
        g = stacked_path(n)[0]
        assert max_induced_matching(g)[0] == 1
        assert max_induced_matching(g.complement())[0] == 1


def test_max_induced_matching_witness_is_induced():
    g = path(7)
    m, witness = max_induced_matching(g)
    verts = [v for e in witness for v in e]
    assert len(set(verts)) == 2 * m
    assert g.induced(verts).edge_count() == m


def test_max_induced_matching_against_brute_force():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert max_induced_matching(g)[0] == brute_max_induced_matching(g)


def brute_weighted_induced_matching(g, weights):
    """Oracle: put each vertex outside, in I or in V(F) in every way, and
    keep the assignments where V(F) induces a perfect matching and no
    vertex of I has a neighbour in I or V(F)."""
    best = 0
    for roles in itertools.product("oIF", repeat=g.n):
        ends = sum(1 << v for v in range(g.n) if roles[v] == "F")
        inside = [v for v in range(g.n) if roles[v] == "I"]
        taken = ends | sum(1 << v for v in inside)
        if all((g.rows[v] & ends).bit_count() == 1 for v in range(g.n)
               if ends >> v & 1) and \
                not any(g.rows[v] & taken for v in inside):
            best = max(best, ends.bit_count() // 2 +
                       sum(weights[v] for v in inside))
    return best


def test_weighted_induced_matching_against_brute_force(rng):
    for n in range(1, 7):
        for g in all_graphs(n):
            zero = [0] * n
            assert max_induced_matching(g, zero)[0] == \
                max_induced_matching(g)[0] == \
                brute_weighted_induced_matching(g, zero)
            weights = [rng.randint(0, 3) for _ in range(n)]
            assert max_induced_matching(g, weights)[0] == \
                brute_weighted_induced_matching(g, weights)


def test_max_stacked_path_examples():
    assert max_stacked_path(stacked_path(3)[0])[0] == 3
    assert max_stacked_path(matching(2))[0] == 0  # 2K2 has no induced P4
    assert max_stacked_path(bull())[0] == 1


def _assert_stacked_witness(g, r, witness):
    """``witness`` maps R_r's vertex i to a distinct vertex of ``g`` and
    preserves and reflects every adjacency."""
    pattern = stacked_path(r)[0]
    assert len(witness) == pattern.n == len(set(witness))
    assert all(0 <= v < g.n for v in witness)
    for i, j in itertools.combinations(range(pattern.n), 2):
        assert pattern.adjacent(i, j) == g.adjacent(witness[i], witness[j])


def _relabel(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_max_stacked_path_witness_is_an_induced_copy(rng):
    for n in range(4, 8):
        for g in all_graphs(n):
            r, witness = max_stacked_path(g)
            if r:
                _assert_stacked_witness(g, r, witness)
    for r in (1, 2, 3):
        for _ in range(5):
            g = _relabel(rng, stacked_path(r)[0])
            found, witness = max_stacked_path(g)
            assert found == r
            _assert_stacked_witness(g, r, witness)


def _stacked_inflation(rnd, n):
    """R_r for some 4r <= n with its vertices inflated by random graphs, n
    vertices in all, so the graph holds R_r and may hold more."""
    base = stacked_path(rnd.randint(1, n // 4))[0]
    sizes = [1] * base.n
    for _ in range(n - base.n):
        sizes[rnd.randrange(base.n)] += 1
    return inflate(base, [random_graph(rnd, s, rnd.random())
                          for s in sizes])[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["random", "twin-rich", "stacked"]),
       st.integers(4, 16), st.randoms(use_true_random=True))
def test_stacked_depth_matches_the_climb(kind, n, rnd):
    g = random_graph(rnd, n, rnd.random()) if kind == "random" else \
        twin_rich_graph(rnd, n) if kind == "twin-rich" else \
        _stacked_inflation(rnd, n)
    g = _relabel(rnd, g)
    r, witness = max_stacked_path(g)
    assert r == climb_stacked_path(g)[0]
    if r:
        _assert_stacked_witness(g, r, witness)


def test_profile_examples():
    assert profile(path(1)) == profile(path(1)).__class__(1, 1, 1)
    prof = profile(matching(2))
    assert (prof.p, prof.q, prof.r) == (3, 2, 1)
    prof = profile(stacked_path(2)[0])
    assert (prof.p, prof.q, prof.r) == (2, 2, 3)


def test_profile_antitone_under_induced_subgraphs(rng):
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.5)
        pg = profile(g)
        keep = [v for v in range(n) if rng.random() < 0.7] or [0]
        ph = profile(g.induced(keep))
        assert ph.p <= pg.p and ph.q <= pg.q and ph.r <= pg.r


def test_ramsey_values():
    assert ramsey(1, 5) == ramsey(5, 1) == 1
    assert ramsey(2, 7) == 7
    assert ramsey(3, 3) == 6
    assert ramsey(3, 4) == ramsey(4, 3) == 9
    assert ramsey(3, 5) == 14
    assert ramsey(4, 4) == 18
    # Pascal bound beyond the exact table
    assert ramsey(4, 5) == ramsey(3, 5) + ramsey(4, 4)
    with pytest.raises(ValueError):
        ramsey(0, 3)


def test_bound_functions_base_cases():
    assert f_paper(1, 1, 5) == 1
    assert f_paper(1, 4, 2) == 1
    assert f_paper(3, 1, 2) == 1
    assert f_paper(2, 2, 0) == 0


def test_f_paper_first_recursive_value():
    # g(2,2,1) = (R(2,2)-1) * max{f(1,2,1), f(2,1,1), f(2,2,0)} = 1
    assert f_paper(2, 2, 1) == 1 + 2 + 2 + 2


def test_f_impl_at_least_f_paper_on_small_table():
    # the implementation-honest bound never undercuts the reference
    # recurrence once m reaches 2, since m*max(p,q) >= p+q there
    for p, q, r in itertools.product(range(1, 5), repeat=3):
        assert f_impl(2, p, q, r) >= f_paper(p, q, r)


def test_bounds_monotone():
    for p, q, r in itertools.product(range(1, 5), repeat=3):
        for m in (1, 2, 3):
            b = bounds(m, p, q, r)
            assert b.f_impl <= bounds(m + 1, p, q, r).f_impl
            assert b.f_impl <= bounds(m, p + 1, q, r).f_impl
            assert b.f_impl <= bounds(m, p, q + 1, r).f_impl
            assert b.f_impl <= bounds(m, p, q, r + 1).f_impl
            assert b.f_paper <= bounds(m, p + 1, q, r).f_paper
            assert b.f_paper <= bounds(m, p, q + 1, r).f_paper
            assert b.f_paper <= bounds(m, p, q, r + 1).f_paper


def test_bounds_validation():
    with pytest.raises(ValueError):
        bounds(0, 1, 1, 1)
    with pytest.raises(ValueError):
        bounds(1, 0, 1, 1)


def test_stacked_path_monotone_containment():
    for n in range(2, 5):
        g = stacked_path(n)[0]
        assert max_stacked_path(g)[0] == n
