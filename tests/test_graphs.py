import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
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
    threshold,
    to_dot,
    to_graph6,
)
from letterkit.graphs import (DOMINATING, ISOLATED, ScaleError, _canonical,
                              _extend, _refine_colors, canonical_code, empty,
                              generate)
from tests import catalogue
from tests.conftest import random_cograph, stacked_path_inductive
from tests.startup_timing import child_env


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_graph_keeps_a_tuple_of_the_rows_it_is_given():
    rows = [2, 5, 10, 4]
    g = Graph(4, rows)
    assert g == path(4) and hash(g) == hash(path(4))
    assert {path(4): "P4"}[g] == "P4"  # usable as a memo key
    rows[0] = 0
    assert g.rows == (2, 5, 10, 4)


def test_graph_rejects_every_one_sided_edge():
    # one bit of one row flipped in a symmetric row set: an edge listed by
    # one end only, below or above the diagonal
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        rows = list(random_cograph(rng, n).rows)
        u, v = rng.sample(range(n), 2)
        rows[u] ^= 1 << v
        with pytest.raises(ValueError, match="adjacency must be symmetric"):
            Graph(n, tuple(rows))
    # bits out of range are reported before any asymmetry
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, (0b010, 0, 0b1000))


@pytest.mark.parametrize("flips", [
    [(2, 1)], [(4, 0)],  # an edge's mirror bit below the diagonal is missing
    [(1, 2)], [(0, 4)],  # an edge's bit above the diagonal is missing
    [(2, 0)], [(3, 1)],  # an extra bit below the diagonal, with no mirror
    [(0, 2)], [(1, 3)],  # an extra bit above the diagonal, with no mirror
    [(0, 2), (3, 1)],  # one extra bit on each side: the bit counts agree
])
def test_graph_rejects_a_missing_or_extra_mirror_bit(flips):
    rows = list(cycle(5).rows)
    for row, bit in flips:
        rows[row] ^= 1 << bit
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        Graph(5, tuple(rows))


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
    # equal vertex for vertex, not just isomorphic
    assert stacked_path(n)[0] == stacked_path_inductive(n)


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


def _reference_canonical_code(g: Graph) -> int:
    """The least upper-triangle code by trying every ordering that keeps
    the refined colour classes in colour order: n! orderings at worst."""
    colors = _refine_colors(g)
    groups = [[v for v in range(g.n) if colors[v] == c]
              for c in sorted(set(colors))]
    best = None
    for parts in itertools.product(*map(itertools.permutations, groups)):
        order = [v for part in parts for v in part]
        code = 0
        for i, j in itertools.combinations(range(g.n), 2):
            code = code << 1 | g.adjacent(order[i], order[j])
        if best is None or code < best:
            best = code
    return (g.n << g.n * g.n) | (best or 0)


def _relabelled(g: Graph, rnd) -> Graph:
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _check_canonical(g: Graph):
    code, order, _ = _canonical(g)
    assert code == canonical_code(g) == _reference_canonical_code(g)
    # the ordering reaches the code
    assert sorted(order) == list(range(g.n))
    reached = 0
    for i, j in itertools.combinations(range(g.n), 2):
        reached = reached << 1 | g.adjacent(order[i], order[j])
    assert code == (g.n << g.n * g.n) | reached


def test_canonical_code_matches_the_ordering_walk_up_to_6_vertices():
    rnd = random.Random(6)
    for n in range(7):
        for g in all_graphs(n):
            for _ in range(3):
                _check_canonical(_relabelled(g, rnd))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_canonical_code_matches_the_ordering_walk_random(n, rnd):
    _check_canonical(_random_graph(rnd, n))


def _shrikhande() -> Graph:
    # Z4 x Z4, each vertex joined to its steps by +-(1, 0), (0, 1), (1, 1)
    return Graph.from_edges(16, [(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                                 for a in range(4) for b in range(4)
                                 for x, y in ((1, 0), (0, 1), (1, 1))])


def _rook() -> Graph:
    # the 4 x 4 rook's graph: same row or same column
    return Graph.from_edges(16, [(u, v) for u in range(16)
                                 for v in range(u + 1, 16)
                                 if u // 4 == v // 4 or u % 4 == v % 4])


def _clebsch() -> Graph:
    # the folded 5-cube: 4-bit words one bit or all four bits apart
    return Graph.from_edges(16, [(u, v) for u in range(16)
                                 for v in range(u + 1, 16)
                                 if (u ^ v).bit_count() == 1 or u ^ v == 15])


def test_is_isomorphic_tells_apart_1wl_equivalent_graphs():
    # each pair is regular of one degree, so colour refinement alone
    # cannot tell them apart
    nx = pytest.importorskip("networkx")
    for g1, g2 in ((_rook(), _shrikhande()),
                   (cycle(6), disjoint_union(complete(3), complete(3)))):
        assert len(set(_refine_colors(g1) + _refine_colors(g2))) == 1
        assert not nx.is_isomorphic(_to_nx(nx, g1), _to_nx(nx, g2))
        assert not is_isomorphic(g1, g2)


def test_is_isomorphic_matches_relabelled_symmetric_graphs():
    nx = pytest.importorskip("networkx")
    petersen = Graph.from_edges(10, nx.petersen_graph().edges())
    rnd = random.Random(10)
    for g in (cycle(10), petersen, _clebsch()):
        h = _relabelled(g, rnd)
        assert nx.is_isomorphic(_to_nx(nx, g), _to_nx(nx, h))
        assert is_isomorphic(g, h)


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


def test_all_graphs_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 0"):
        all_graphs(-1)


def test_catalogue_table_matches_extend():
    # levels()[n] is _extend(levels()[n - 1], n), so equality at every n
    # is _extend(all_graphs(n - 1), n) == all_graphs(n) for n = 1..7
    levels = catalogue.levels()
    for n in range(8):
        assert all_graphs(n) == levels[n]


def test_catalogue_file_is_what_regeneration_writes():
    with open(catalogue.PATH) as fh:
        assert fh.read() == catalogue.render()


def test_catalogue_matches_networkx_atlas():
    # independent of _extend: the atlas of Read & Wilson holds every graph
    # with n <= 7 once up to isomorphism
    import networkx as nx
    codes = [canonical_code(g) for n in range(8) for g in all_graphs(n)]
    assert codes == sorted(set(codes))
    atlas = [canonical_code(Graph.from_edges(h.number_of_nodes(), h.edges()))
             for h in nx.graph_atlas_g()]
    assert sorted(atlas) == codes


_CATALOGUE_LOADS = """
import sys
import letterkit.cli
before = "letterkit._catalogue" in sys.modules
letterkit.all_graphs(7)
print(before, "letterkit._catalogue" in sys.modules)
"""


def test_catalogue_loads_on_first_use_only():
    proc = subprocess.run([sys.executable, "-c", _CATALOGUE_LOADS],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


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
    g = path(63)  # the long form's last size byte is 126
    assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("size", [chr(127), "~??" + chr(127),
                                  "~" + chr(127) + "??", chr(62)],
                         ids=["short-127", "long-127-last", "long-127-first",
                              "short-62"])
def test_graph6_rejects_size_bytes_outside_63_to_126(size):
    payload = "?" * 336  # 2016 zero bits, the right length for n = 64
    with pytest.raises(ValueError, match="size byte"):
        from_graph6(size + payload)


@pytest.mark.parametrize("text", ["A_???", "??", "C~??"])
def test_graph6_rejects_overlong_payloads(text):
    # K2, the empty graph and K4 followed by extra zero bytes
    with pytest.raises(ValueError, match="wrong length"):
        from_graph6(text)


@pytest.mark.parametrize("text, match", [
    ("C!", "bad graph6 byte '!'"),
    ("C1", "bad graph6 byte '1'"),  # a digit, not a payload bit
    ("C" + chr(127), "bad graph6 byte"),
    ("A`", "nonzero padding"),  # K2: one bit, then 00001 must be zero
    ("B@", "nonzero padding"),  # P3 or K3 codes end in three zero bits
])
def test_graph6_rejects_bad_payload_bytes_and_padding(text, match):
    with pytest.raises(ValueError, match=match):
        from_graph6(text)


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


# -- the row-built constructions against their definitions -----------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10), st.randoms(use_true_random=False))
def test_induced_matches_definition(n, rnd):
    g = _random_graph(rnd, n)
    ids = rnd.sample(range(n), rnd.randint(0, n))
    sub = g.induced(ids)
    ids.sort()  # retained ids keep their relative order
    assert sub.n == len(ids)
    assert all(sub.adjacent(i, j) == g.adjacent(ids[i], ids[j])
               for i, j in itertools.combinations(range(sub.n), 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.randoms(use_true_random=False))
@example(0, 3, random.Random(0))
@example(3, 0, random.Random(0))
@example(0, 0, random.Random(0))
def test_disjoint_union_and_join_match_definition(n1, n2, rnd):
    g1, g2 = _random_graph(rnd, n1), _random_graph(rnd, n2)
    for op, across in ((disjoint_union, False), (join, True)):
        g = op(g1, g2)
        assert g.n == n1 + n2
        for u, v in itertools.combinations(range(g.n), 2):
            if v < n1:
                assert g.adjacent(u, v) == g1.adjacent(u, v)
            elif u >= n1:
                assert g.adjacent(u, v) == g2.adjacent(u - n1, v - n1)
            else:
                assert g.adjacent(u, v) == across


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_inflate_matches_definition(n, rnd):
    h = _random_graph(rnd, n)
    modules = [_random_graph(rnd, rnd.randint(1, 4)) for _ in range(n)]
    g, blocks = inflate(h, modules)
    # blocks are consecutive id ranges in h's vertex order
    assert [v for block in blocks for v in block] == list(range(g.n))
    assert [len(block) for block in blocks] == [m.n for m in modules]
    block_of = [x for x, block in enumerate(blocks) for _ in block]
    for u, v in itertools.combinations(range(g.n), 2):
        x, y = block_of[u], block_of[v]
        if x == y:  # a module's edges, and only those, inside its block
            base = blocks[x][0]
            assert g.adjacent(u, v) == modules[x].adjacent(u - base, v - base)
        else:
            assert g.adjacent(u, v) == h.adjacent(x, y)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.randoms(use_true_random=False))
def test_built_graphs_pass_the_public_checks(n1, n2, rnd):
    # the builders skip Graph's checks, as their rows are valid by
    # construction; fed back through Graph(n, rows) they must pass them
    g1, g2 = _random_graph(rnd, n1), _random_graph(rnd, n2)
    modules = [_random_graph(rnd, rnd.randint(1, 3)) for _ in range(n1)]
    kept = rnd.sample(range(n1), rnd.randint(0, n1))
    # an edge list with repeated and reversed edges
    edges = g1.edges()
    messy = edges + [rnd.choice(edges) for _ in edges] + \
        [rnd.choice(edges)[::-1] for _ in edges]
    rnd.shuffle(messy)
    from_messy = Graph.from_edges(n1, messy)
    assert from_messy == g1
    for g in (g1.complement(), g1.induced(kept), disjoint_union(g1, g2),
              join(g1, g2), inflate(g1, modules)[0], from_messy, empty(n2)):
        _assert_passes_public_checks(g)


def test_catalogue_and_extended_graphs_pass_the_public_checks():
    for n in range(8):
        for g in all_graphs(n):
            _assert_passes_public_checks(g)
    for k in range(1, 6):
        for g in _extend(all_graphs(k - 1), k):
            _assert_passes_public_checks(g)


def _assert_passes_public_checks(g: Graph):
    checked = Graph(g.n, g.rows)
    assert type(g.rows) is tuple
    assert (checked, hash(checked)) == (g, hash(g))


def test_from_edges_rejects_a_negative_size_and_loops():
    with pytest.raises(ValueError, match="n must be >= 0"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="bad edge"):
        Graph.from_edges(3, [(1, 1)])


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
