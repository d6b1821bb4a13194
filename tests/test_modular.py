import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterkit import (
    all_graphs,
    bull,
    classify_vertex,
    complete,
    cycle,
    inflate,
    is_isomorphic,
    is_module,
    is_prime,
    matching,
    path,
    quotient,
)
from letterkit import modular
from letterkit.graphs import _bits, empty, stacked_path
from letterkit.modular import (
    BULL_NOSE,
    P4_END,
    P4_MID,
    VertexRole,
    _avoiding,
    _is_module,
    _module_closure,
    _split,
    decomposition_tree,
    verify_role,
)
from tests.conftest import (component, masked_graph, random_graph,
                            reconstruct, twin_rich_graph)


@pytest.fixture
def prime_memo():
    """``_split``'s primality memo, empty, and emptied again after the test,
    for tests that patch the closure or the refinement: a verdict reached
    under a wrong closure must not reach a later test."""
    modular._quotient_is_prime.cache_clear()
    yield modular._quotient_is_prime
    modular._quotient_is_prime.cache_clear()


def exhaustive_is_prime(g):
    """Oracle: scan every vertex subset for a proper module."""
    for size in range(2, g.n):
        for subset in itertools.combinations(range(g.n), size):
            if is_module(g, subset):
                return False
    return True


def test_is_module_basics():
    g = path(4)
    assert is_module(g, set())
    assert is_module(g, {2})
    assert is_module(g, set(range(4)))
    assert not is_module(g, {0, 3})  # endpoints see different midpoints
    # an id that is not an int, a bool included, is no vertex
    for ids in ({9}, {-1}, {0.5}, {True}, {"a"}):
        with pytest.raises(ValueError, match="must be ints in 0..3"):
            is_module(g, ids)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.randoms(use_true_random=False))
def test_is_module_matches_definition(n, rnd):
    # exhaustive_is_prime takes is_module as its oracle, so is_module is
    # checked here against the definition itself
    g, blocks = inflate(random_graph(rnd, n, rnd.random()),
                        [random_graph(rnd, rnd.randint(1, 3), 0.5)
                         for _ in range(n)])
    if blocks and rnd.random() < 0.5:
        members = set(rnd.choice(blocks))  # a module by construction
    else:
        members = set(rnd.sample(range(g.n), rnd.randint(0, g.n)))
    if g.n and rnd.random() < 0.3:
        members ^= {rnd.randrange(g.n)}
    want = all(len({g.adjacent(x, v) for v in members}) <= 1
               for x in range(g.n) if x not in members)
    assert is_module(g, members) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6),
       st.sampled_from(["any", "block", "empty", "singleton", "within"]),
       st.randoms(use_true_random=False))
def test_is_module_within_a_mask_matches_the_set_definition(n, kind, rnd):
    # the guard's one pass of row XORs against the definition: every member
    # sees the same vertices of ``within`` outside the part. A block of the
    # inflation, cut to the mask, is a module of g[within].
    g, blocks = inflate(random_graph(rnd, n, rnd.random()),
                        [random_graph(rnd, rnd.randint(1, 12 // n), 0.5)
                         for _ in range(n)])
    within = rnd.getrandbits(g.n)
    inside = _bits(within)
    part = {"any": sum(1 << v for v in inside if rnd.random() < 0.5),
            "block": sum(1 << v for v in rnd.choice(blocks)) & within,
            "empty": 0,
            "singleton": 1 << rnd.choice(inside) if inside else 0,
            "within": within}[kind]
    outside = within & ~part
    want = len({g.rows[v] & outside for v in _bits(part)}) <= 1
    assert _is_module(g, within, part) == want


def _modules(g):
    """Oracle: every non-empty vertex set that is a module, as bitmasks,
    found by scanning all subsets with is_module."""
    return [mask for mask in range(1, 1 << g.n)
            if is_module(g, [v for v in range(g.n) if mask >> v & 1])]


def _small_graphs(rng):
    """Random graphs and twin-rich inflations with 2 <= n <= 8."""
    for _ in range(40):
        n = rng.randint(2, 8)
        yield random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
    for _ in range(40):
        base = random_graph(rng, rng.randint(2, 4), rng.random())
        sizes = [1] * base.n
        for _ in range(rng.randint(1, 8 - base.n)):
            sizes[rng.randrange(base.n)] += 1
        yield inflate(base, [random_graph(rng, s, rng.random())
                             for s in sizes])[0]


def test_module_closure_is_the_smallest_module(rng):
    for g in _small_graphs(rng):
        modules = _modules(g)
        seeds = [1 << u | 1 << v for u in range(g.n)
                 for v in range(u + 1, g.n)]
        seeds += [rng.randrange(1, 1 << g.n) for _ in range(10)]
        for seed in seeds:
            closure = _module_closure(g, (1 << g.n) - 1, seed)
            # a module that holds the seed and lies in every such module
            assert closure in modules and closure & seed == seed
            assert all(closure & m == closure
                       for m in modules if m & seed == seed)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10), st.booleans(), st.randoms(use_true_random=False))
def test_module_closure_stop_keeps_the_closure(n, twins, rnd):
    # twin-rich graphs have many pairs with proper closures
    g = twin_rich_graph(rnd, n) if twins else \
        random_graph(rnd, n, rnd.random())
    full = (1 << g.n) - 1
    for u in range(g.n):
        # any set of w whose pair closure with u is all of V may stop
        outsiders = [w for w in range(g.n) if w != u and
                     _module_closure(g, full, 1 << u | 1 << w) == full]
        stop = sum(1 << w for w in outsiders if rnd.random() < 0.5)
        for v in range(g.n):
            if v != u:
                seed = 1 << u | 1 << v
                assert _module_closure(g, full, seed, stop) == \
                    _module_closure(g, full, seed)


def test_quotient_parts_are_the_maximal_proper_modules(rng):
    graphs = [g for n in range(4, 8) for g in all_graphs(n)]
    graphs += list(_small_graphs(rng))
    checked = 0
    for g in graphs:
        full = (1 << g.n) - 1
        if component(g, full) != full or component(g, full, True) != full:
            continue  # a (co-)component split, not maximal modules
        proper = [m for m in _modules(g) if m != full]
        maximal = sorted(m for m in proper
                         if not any(m & o == m != o for o in proper))
        want = [tuple(v for v in range(g.n) if m >> v & 1)
                for m in maximal]
        assert list(quotient(g).modules) == sorted(want)
        checked += 1
    assert checked > 500


def test_module_of_inflated_block():
    g, blocks = inflate(path(4), [matching(1), path(1), path(1), path(1)])
    assert is_module(g, blocks[0])


def test_is_prime_matches_exhaustive_oracle():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert is_prime(g) == exhaustive_is_prime(g)


def test_quotient_is_prime_by_the_exhaustive_oracle():
    # the oracle does not run _module_closure, which quotient's partition
    # and its is_prime guard both run
    for n in range(2, 8):
        for g in all_graphs(n):
            assert exhaustive_is_prime(quotient(g).quotient)


def test_prime_examples():
    assert is_prime(path(4))
    assert is_prime(bull())
    assert not is_prime(complete(3))
    assert all(not is_prime(g) for g in all_graphs(3))


def test_quotient_prime_graph_is_its_own():
    dec = quotient(path(4))
    assert dec.quotient == path(4)
    assert dec.modules == ((0,), (1,), (2,), (3,))


def test_quotient_disconnected_split():
    dec = quotient(matching(2))
    assert dec.quotient.edge_count() == 0 and dec.quotient.n == 2
    assert dec.modules == ((0, 1), (2, 3))


def test_quotient_join_split():
    dec = quotient(complete(3))
    assert dec.quotient.edge_count() == 1
    assert dec.modules[0] == (0,)


def test_quotient_of_nose_inflation():
    g, blocks = inflate(bull(), [path(1)] * 4 + [path(4)])
    dec = quotient(g)
    assert is_isomorphic(dec.quotient, bull())
    assert tuple(blocks[4]) in dec.modules


def _one_round_closure(g, within, seed_mask, stop=0):
    """A wrong closure: one round of splitters, not a worklist; it ignores
    ``stop``."""
    r = (seed_mask & -seed_mask).bit_length() - 1
    mask = seed_mask
    for y in range(g.n):
        if seed_mask >> y & 1:
            mask |= (g.rows[r] ^ g.rows[y]) & within
    return mask


def test_quotient_guards_catch_a_wrong_closure(prime_memo, monkeypatch):
    # connected and co-connected, with the proper module {0, 1}
    g = inflate(path(4), [complete(2)] + [path(1)] * 3)[0]
    real = modular._module_closure
    # too small: every pair closure is proper, so all of V is one part
    monkeypatch.setattr(modular, "_module_closure",
                        lambda h, within, seed, stop=0: seed)
    with pytest.raises(AssertionError, match="one vertex or not prime"):
        quotient(g)
    # too small on some pairs: a part that is not a module
    monkeypatch.setattr(modular, "_module_closure", _one_round_closure)
    with pytest.raises(AssertionError, match="part is not a module"):
        quotient(g)
    # too large on g: singleton parts, and H = g is not prime. is_prime
    # runs the same closure, so this guard checks the partition, not a
    # closure that is too large on every graph.
    monkeypatch.setattr(modular, "_module_closure",
                        lambda h, within, seed, stop=0:
                        within if h is g else real(h, within, seed))
    with pytest.raises(AssertionError, match="one vertex or not prime"):
        quotient(g)


def test_split_checks_the_parts_of_a_quotient_known_to_be_prime(
        prime_memo, monkeypatch):
    assert _split(path(4), 0b1111) == (path(4), [1, 2, 4, 8])
    # a wrong refinement of P5 into {1}, {2} and {3, 4} gives the parts
    # {0}, {1}, {2}, {3, 4}, on whose least members P5 induces the labelled
    # P4 found prime above; the memo's verdict holds, the part check fails
    monkeypatch.setattr(modular, "_avoiding",
                        lambda g, within: [0b10, 0b100, 0b11000])
    with pytest.raises(AssertionError, match="part is not a module"):
        _split(path(5), 0b11111)
    assert prime_memo.cache_info().hits == 1


def test_split_raises_on_every_call_for_a_quotient_that_is_not_prime(
        prime_memo, monkeypatch):
    # a closure too large on g gives singleton parts, so H = g, which has
    # the module {0, 1}; the memo keeps that verdict, and each call raises
    g = inflate(path(4), [complete(2)] + [path(1)] * 3)[0]
    real = modular._module_closure
    monkeypatch.setattr(modular, "_module_closure",
                        lambda h, within, seed, stop=0:
                        within if h is g else real(h, within, seed))
    for _ in range(3):
        with pytest.raises(AssertionError, match="one vertex or not prime"):
            _split(g, (1 << g.n) - 1)
    assert prime_memo.cache_info()[:2] == (2, 1)  # hits, misses


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 14), st.booleans(), st.randoms(use_true_random=False))
def test_split_is_quotient_of_the_induced_subgraph(n, twins, rnd):
    g, mask = masked_graph(rnd, n, twins, 2)
    ids = _bits(mask)
    dec = quotient(g.induced(ids))
    assert _split(g, mask) == (dec.quotient, [
        sum(1 << ids[v] for v in part) for part in dec.modules])


def _brute_avoiding(g, within):
    """Oracle: the maximal modules of g[within] that avoid its least
    vertex, found by scanning every subset of the other vertices."""
    rest = within & within - 1
    subs = [s for s in range(1, rest + 1)
            if s & rest == s and _is_module(g, within, s)]
    return sorted((s for s in subs if not any(s & o == s != o for o in subs)),
                  key=lambda s: s & -s)


def test_avoiding_is_the_maximal_modules_up_to_6_vertices():
    # _split closes parts only on connected and co-connected masks (689 of
    # them here), but the refinement's argument holds on every mask, and
    # on the others _split returns u's (co-)component, then the rest
    checked = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            for mask in range(3, 1 << n):
                if mask & mask - 1:
                    assert _avoiding(g, mask) == _brute_avoiding(g, mask)
                    reach = component(g, mask)
                    if reach == mask:
                        reach = component(g, mask, True)
                    if reach == mask:
                        checked += 1
                    else:
                        assert _split(g, mask)[1] == [reach, mask & ~reach]
    assert checked == 689


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 14), st.booleans(), st.randoms(use_true_random=False))
def test_avoiding_matches_the_pair_closures(n, twins, rnd):
    # v's part is v plus every pair closure of v that avoids the least
    # vertex u: their union is a module that avoids u, and it holds every
    # such module that holds v
    g, mask = masked_graph(rnd, n, twins, 2)
    u = mask & -mask
    want = set()
    for v in _bits(mask ^ u):
        part = 1 << v
        for w in _bits(mask ^ u):
            closure = _module_closure(g, mask, 1 << v | 1 << w)
            if not closure & u:
                part |= closure
        want.add(part)
    assert _avoiding(g, mask) == sorted(want, key=lambda p: p & -p)


def _part_step_closures(g, within):
    """The ``_module_closure`` calls of ``_split(g, within)`` less those of
    its ``is_prime`` guard, which runs on the quotient, a new graph."""
    calls = []
    real = modular._module_closure

    def counted(h, *args):
        calls.append(h is g)
        return real(h, *args)
    modular._quotient_is_prime.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modular, "_module_closure", counted)
        try:
            _split(g, within)
        finally:
            modular._quotient_is_prime.cache_clear()
    return sum(calls)


@pytest.mark.parametrize("quotient_graph, modules, closures", [
    (cycle(5), [path(4)] * 5, 5),
    (bull(), [stacked_path(2)[0], path(3), path(1), path(1), cycle(5)], 5),
    (path(4), [complete(3), empty(3), path(4), cycle(4)], 4),
], ids=["C5[P4]", "bull[R2,P3,P1,P1,C5]", "P4[K3,3K1,P4,C4]"])
def test_split_runs_one_closure_per_refinement_part(quotient_graph, modules,
                                                    closures):
    # one per part outside u's, and one for u's part minus u, whose
    # closure covers the rest of it
    g = inflate(quotient_graph, modules)[0]
    assert _part_step_closures(g, (1 << g.n) - 1) == closures


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 14), st.booleans(), st.randoms(use_true_random=False))
def test_split_runs_at_most_one_closure_per_refinement_part(n, twins, rnd):
    g, mask = masked_graph(rnd, n, twins, 4)
    parts = _avoiding(g, mask) if component(g, mask) == mask and \
        component(g, mask, True) == mask else []
    assert _part_step_closures(g, mask) <= len(parts)


def test_quotient_rejects_single_vertex():
    with pytest.raises(ValueError):
        quotient(path(1))


def test_quotient_roundtrip_random(rng):
    for _ in range(120):
        n = rng.randint(2, 24)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        dec = quotient(g)
        assert is_prime(dec.quotient)
        rebuilt, mapping = reconstruct(g, dec)
        for a in range(n):
            for b in range(a + 1, n):
                assert rebuilt.adjacent(a, b) == \
                    g.adjacent(mapping[a], mapping[b])


def test_classify_vertex_examples():
    role = classify_vertex(bull(), 4)
    assert role.role == BULL_NOSE and verify_role(bull(), 4, role)
    role = classify_vertex(path(4), 0)
    assert role.role == P4_END and role.witness == (0, 1, 2, 3)
    role = classify_vertex(path(4), 1)
    assert role.role == P4_MID
    for v in range(5):
        role = classify_vertex(cycle(5), v)
        assert role.role in (P4_END, P4_MID)
        assert verify_role(cycle(5), v, role)


def test_classify_vertex_needs_four_vertices():
    with pytest.raises(ValueError):
        classify_vertex(path(3), 0)


def test_classify_vertex_rejects_a_graph_that_is_not_prime():
    # no P4 and no bull: the caller's input is at fault, not the classifier
    for g in (empty(4), complete(5), matching(2)):
        with pytest.raises(ValueError, match="prime graph"):
            classify_vertex(g, 0)
    # a vertex on a P4 keeps its role, prime graph or not
    assert classify_vertex(inflate(path(4), [complete(2)] + [path(1)] * 3)[0],
                           2).role == P4_MID


@pytest.mark.parametrize("v", [-1, 5, 7, True, 1.0, "a"])
def test_classify_vertex_rejects_a_vertex_out_of_range(v):
    # True once gave the witness (0, True, 2, 3), which verify_role rejects,
    # and 1.0 raised TypeError
    with pytest.raises(ValueError, match=f"vertex {v!r} is not in 0..4"):
        classify_vertex(bull(), v)


def test_classification_on_all_small_primes():
    for n in range(4, 7):
        for g in all_graphs(n):
            if not is_prime(g):
                continue
            for v in range(g.n):
                role = classify_vertex(g, v)
                assert verify_role(g, v, role)


def _reference_classify_vertex(h, v):
    """The permutation scan classify_vertex ran before its mask walk: the
    first id tuple, in ascending order, that witnesses each role in turn;
    None where no role has one."""
    others = [u for u in range(h.n) if u != v]

    def induced_path4(p):
        return all(h.adjacent(p[i], p[j]) == (j == i + 1)
                   for i in range(4) for j in range(i + 1, 4))

    for a, b, c in itertools.permutations(others, 3):
        if induced_path4((v, a, b, c)):
            return VertexRole(P4_END, (v, a, b, c))
    for a, b, c in itertools.permutations(others, 3):
        if induced_path4((a, v, b, c)):
            return VertexRole(P4_MID, (a, v, b, c))
    for a, b, c, d in itertools.permutations(others, 4):
        if induced_path4((a, b, c, d)) and \
                h.adjacent(v, b) and h.adjacent(v, c) and \
                not h.adjacent(v, a) and not h.adjacent(v, d):
            return VertexRole(BULL_NOSE, (a, b, c, d, v))
    return None


def test_classify_vertex_matches_permutation_scan():
    # every graph with 4 <= n <= 7, prime or not, and every vertex
    for n in range(4, 8):
        for g in all_graphs(n):
            for v in range(n):
                want = _reference_classify_vertex(g, v)
                if want is None:
                    with pytest.raises(ValueError, match="prime graph"):
                        classify_vertex(g, v)
                else:
                    assert classify_vertex(g, v) == want


def test_verify_role_rejects_bogus_witness():
    assert not verify_role(path(4), 0, VertexRole(P4_END, (1, 0, 2, 3)))
    assert not verify_role(bull(), 4, VertexRole(BULL_NOSE, (0, 1, 2, 3, 0)))
    # a witness must have exactly its pattern's length
    assert not verify_role(bull(), 0, VertexRole(P4_END, (0, 1, 2, 3, 4)))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2)))
    assert not verify_role(path(4), 0, VertexRole("P4", (0, 1, 2, 3)))
    # ids outside 0..n-1, and ids that are not ints, fail and never raise
    assert not verify_role(path(4), 9, VertexRole(P4_END, (9, 0, 1, 2)))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2, -1)))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2, 4)))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1.0, 2, 3)))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2, "3")))
    assert not verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2, [3])))
    # False and True decode as 0 and 1, but are not vertex ids
    assert verify_role(path(4), 0, VertexRole(P4_END, (0, 1, 2, 3)))
    assert not verify_role(path(4), 0,
                           VertexRole(P4_END, (False, True, 2, 3)))


def _pairwise_verify_role(h, v, role):
    """Oracle: the witness's vertex pairs against the pattern's."""
    pattern, place = {P4_END: (path(4), 0), P4_MID: (path(4), 1),
                      BULL_NOSE: (bull(), 4)}[role.role]
    w = role.witness
    if len(w) != pattern.n or len(set(w)) != len(w) or w[place] != v:
        return False
    return all(h.adjacent(w[i], w[j]) == pattern.adjacent(i, j)
               for i in range(len(w)) for j in range(i + 1, len(w)))


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 7), st.sampled_from([P4_END, P4_MID, BULL_NOSE]),
       st.randoms(use_true_random=False))
def test_verify_role_matches_the_pairwise_definition(n, kind, rnd):
    g = random_graph(rnd, n, 0.5)
    v = rnd.randrange(n)
    size = rnd.choice([3, 4, 5, 6, 4 if kind != BULL_NOSE else 5])
    # the classification's genuine witness, the same witness under the
    # drawn role, or a random tuple of vertices, possibly repeating
    found = classify_vertex(g, v) if is_prime(g) else None
    roles = [VertexRole(kind, tuple(rnd.choice([rnd.randrange(n), v])
                                    for _ in range(size)))]
    if found is not None:
        roles += [found, VertexRole(kind, found.witness)]
    for role in roles:
        assert verify_role(g, v, role) == _pairwise_verify_role(g, v, role)


def test_decomposition_serialization():
    obj = json.loads(quotient(matching(2)).to_json())
    assert obj["modules"] == [[0, 1], [2, 3]]
    tree = decomposition_tree(matching(2))
    assert tree["n"] == 4
    assert len(tree["modules"]) == 2
    assert tree["modules"][0]["tree"]["n"] == 2


def test_golden_decompositions():
    # the decompositions section of tests/data/golden_solver.json was
    # generated by tests/golden_solver.py before the mask split took its
    # (co-)component split from the refinement
    from tests.golden_solver import decompositions, load
    assert decompositions() == load()["decompositions"]
