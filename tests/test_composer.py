import functools
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from letterkit import (
    BudgetExceeded,
    Run,
    all_graphs,
    bull,
    complete,
    compose,
    cycle,
    decode,
    disjoint_union,
    inflate,
    is_prime,
    matching,
    path,
    profile,
    threshold,
    verify,
)
from letterkit import claims, composer, solver
from letterkit.graphs import (DOMINATING, ISOLATED, Graph, _bits,
                              canonical_code, empty, join, stacked_path,
                              to_graph6)
from letterkit.obstructions import (ClassProfile, max_induced_matching,
                                    max_stacked_path)
from tests.conftest import (climb_stacked_path, masked_graph, random_cograph,
                            random_graph)
from tests.startup_timing import ROOT, child_env


def peel(g):
    """``composer._peel`` of all of ``g``, with the core as a graph: the
    removed vertices in addition order, the core and its ids."""
    removed, core = composer._peel(g, (1 << g.n) - 1)
    core_ids = tuple(_bits(core))
    return SimpleNamespace(removed=removed, core=g.induced(core_ids),
                           core_ids=core_ids)


def test_peel_threshold_graph_fully():
    g = threshold([ISOLATED, ISOLATED, DOMINATING, DOMINATING])
    trace = peel(g)
    assert trace.core.n == 0
    assert len(trace.removed) == 4


def test_peel_p4_is_inert():
    trace = peel(path(4))
    assert trace.removed == ()
    assert trace.core == path(4)


def test_peel_strips_isolated_vertex():
    g = disjoint_union(path(1), path(4))
    trace = peel(g)
    assert trace.removed == ((0, ISOLATED),)
    assert trace.core_ids == (1, 2, 3, 4)


def test_peel_replay_reconstructs():
    g = threshold([ISOLATED, DOMINATING, ISOLATED, DOMINATING, ISOLATED])
    trace = peel(g)
    # trace.removed is in addition order: each vertex is isolated/dominating
    # relative to the vertices before it plus the core
    present = list(trace.core_ids)
    for v, kind in trace.removed:
        for u in present:
            assert g.adjacent(u, v) == (kind == DOMINATING)
        present.append(v)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 5), st.randoms(use_true_random=False))
def test_peel_matches_definition(n, extra, rnd):
    # a random graph with isolated and dominating vertices added around it,
    # relabelled at random
    g = random_graph(rnd, n, rnd.random())
    for _ in range(extra):
        g = rnd.choice((disjoint_union, join))(g, path(1))
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    trace = peel(g)
    alive = set(range(g.n))
    for v, kind in reversed(trace.removed):  # removal order
        kinds = [(x, ISOLATED) for x in sorted(alive)
                 if not any(g.adjacent(x, u) for u in alive - {x})]
        kinds += [(x, DOMINATING) for x in sorted(alive)
                  if all(g.adjacent(x, u) for u in alive - {x})]
        assert (v, kind) == kinds[0]  # the least isolated, else dominating
        alive.remove(v)
    assert trace.core_ids == tuple(sorted(alive))
    core = trace.core
    assert core.n == len(alive)
    assert all(core.adjacent(i, j) ==
               g.adjacent(trace.core_ids[i], trace.core_ids[j])
               for i in range(core.n) for j in range(i + 1, core.n))
    # the core has no isolated and no dominating vertex
    assert all(0 < core.degree(v) < core.n - 1 for v in range(core.n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 4), st.booleans(),
       st.randoms(use_true_random=False))
def test_mask_peel_is_peel_of_the_induced_subgraph(n, extra, twins, rnd):
    # a masked graph, with isolated and dominating vertices added around
    # it and in the mask, relabelled at random; one-vertex masks too (the
    # twin-rich draw needs two vertices)
    g, mask = masked_graph(rnd, n, twins and n > 1, 1)
    for _ in range(extra):
        g = rnd.choice((disjoint_union, join))(g, path(1))
        mask |= 1 << g.n - 1
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    ids = sorted(perm[v] for v in range(g.n) if mask >> v & 1)
    trace = peel(g.induced(ids))
    assert composer._peel(g, sum(1 << v for v in ids)) == (
        tuple((ids[v], kind) for v, kind in trace.removed),
        sum(1 << ids[v] for v in trace.core_ids))


def test_attach_peeled_on_empty_core():
    g = matching(1)
    trace = peel(g)
    assert trace.core.n == 0
    # K2 is complete, so the composer letters it with a single clique letter
    cert = compose(g)
    assert cert.alphabet_size == 1
    assert verify(g, cert.lettering)


def test_attach_peeled_core_p4():
    # the isolated vertex is peeled and takes one fresh letter beside P4's
    # two
    g = disjoint_union(path(4), path(1))
    lett = compose(g).lettering
    assert verify(g, lett)
    assert lett.letters_used() == 3


def test_compose_threshold_two_letters():
    g = threshold([ISOLATED, ISOLATED, DOMINATING, DOMINATING])
    cert = compose(g)
    assert verify(g, cert.lettering)
    assert cert.alphabet_size == 2


def test_compose_homogeneous_single_letter():
    for g in (complete(5), empty(4), path(1)):
        cert = compose(g)
        assert cert.alphabet_size == 1
        assert verify(g, cert.lettering)


def test_compose_union_adds_alphabets():
    cert = compose(matching(2))
    assert verify(matching(2), cert.lettering)
    assert cert.recursion_tree["case"] == "union"
    assert cert.alphabet_size == 2  # one clique letter per K2 side


def test_compose_is_upper_bound_not_optimum():
    from letterkit import lettericity
    g = disjoint_union(path(4), path(4))
    cert = compose(g)
    assert verify(g, cert.lettering)
    assert cert.alphabet_size == 4
    assert lettericity(g)[0] == 3


def test_compose_edgeless_nose_module_uses_copy_letter():
    g, _ = inflate(bull(), [path(1)] * 4 + [empty(2)])
    cert = compose(g)
    assert verify(g, cert.lettering)


def test_compose_all_small_graphs():
    for n in range(1, 7):
        for g in all_graphs(n):
            cert = compose(g)
            assert verify(g, cert.lettering)
            assert cert.bound_check["within_F_impl"]
            assert cert.alphabet_size == cert.lettering.letters_used()


def test_compose_peel_bound_at_root():
    # alphabet grows by at most 2 over the core at each peel step
    g = disjoint_union(path(4), path(1))
    cert = compose(g)
    core_cert = compose(path(4))
    assert cert.alphabet_size <= core_cert.alphabet_size + 2


def test_compose_cograph_inflations(rng):
    for _ in range(40):
        base = rng.choice([path(4), bull(), cycle(5)])
        mods = [random_cograph(rng, rng.randint(1, 40 // base.n))
                for _ in range(base.n)]
        g, _ = inflate(base, mods)
        cert = compose(g)
        assert verify(g, cert.lettering)
        assert cert.bound_check["within_F_impl"]


def _prime_nodes(node):
    """The prime nodes of a certificate's recursion tree."""
    if node.get("case") == "prime":
        yield node
    for sub in [node.get("core"), node.get("tree")] + node.get("modules", []):
        if sub is not None:
            yield from _prime_nodes(sub)


def test_compose_a_set_below_ramsey(rng):
    from letterkit import ramsey

    for _ in range(20):
        base = rng.choice([path(4), bull(), cycle(5)])
        mods = [random_cograph(rng, rng.randint(1, 6)) for _ in range(base.n)]
        g, _ = inflate(base, mods)
        cert = compose(g)
        prof = profile(g)
        for node in _prime_nodes(cert.recursion_tree):
            assert len(node["A"]) < ramsey(prof.p, prof.q)


def _nested_inflation(rng, depth=2):
    """P4, the bull, C5 or P5 inflated ``depth`` levels deep: at each level
    the first module, and each other one half the time, is inflated again;
    the rest are cographs on 1-2 vertices. At depth 2, n <= 50."""
    base = rng.choice([path(4), bull(), cycle(5), path(5)])
    mods = [_nested_inflation(rng, depth - 1)
            if depth > 1 and (v == 0 or rng.random() < 0.5)
            else random_cograph(rng, rng.randint(1, 2)) for v in range(base.n)]
    return inflate(base, mods)[0]


def test_compose_nested_prime_quotients(rng):
    from letterkit import ramsey

    for _ in range(100):
        g = _nested_inflation(rng)
        cert = compose(g)
        assert verify(g, cert.lettering)
        assert cert.bound_check["within_F_impl"]
        prof = cert.bound_check["profile"]
        nodes = list(_prime_nodes(cert.recursion_tree))
        assert len(nodes) >= 2  # the base and at least one prime module
        for node in nodes:
            assert len(node["A"]) < ramsey(prof["p"], prof["q"])


def _stacked_draw(rnd, depth):
    """P4, the bull, C5 or P5 inflated ``depth`` levels deep around one
    deep module, R_2 at the bottom (at the bull's nose half the time, so
    R_3 and R_4 arise); each other module is an R_1 copy a quarter of the
    time, else a cograph on 1-2 vertices. Each level is then, half the
    time, united or joined with R_1 or a cograph on 1-3 vertices, which
    makes union, join and peel nodes. At depth 2, n <= 48."""
    base = rnd.choice([path(4), bull(), cycle(5), path(5)])
    deep = 4 if base == bull() and rnd.random() < 0.5 else \
        rnd.randrange(base.n)
    mods = [(_stacked_draw(rnd, depth - 1) if depth > 1
             else stacked_path(2)[0]) if v == deep
            else path(4) if rnd.random() < 0.25
            else random_cograph(rnd, rnd.randint(1, 2))
            for v in range(base.n)]
    g = inflate(base, mods)[0]
    if rnd.random() < 0.5:
        side = rnd.choice([path(4), random_cograph(rnd, rnd.randint(1, 3))])
        g = rnd.choice((disjoint_union, join))(g, side)
    return g


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.randoms(use_true_random=False))
def test_certificate_r_matches_max_stacked_path(depth, rnd):
    g = _stacked_draw(rnd, depth)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    r = max_stacked_path(g)[0]
    assert r >= 2  # every draw holds R_2 or more
    assert compose(g).bound_check["profile"]["r"] == r + 1
    assert profile(g).r == r + 1


def _matching_draw(rnd, depth):
    """P4, the bull, C5 or P5 inflated ``depth`` levels deep through its
    first module; each other module is a cograph, a complete or an edgeless
    graph on 1-4 vertices. Each level is then united or joined with up to
    two of P1 (a peeled vertex), P4 or a cograph on 1-3 vertices, which
    makes union, join and peel nodes. At depth 2, n <= 52."""
    base = rnd.choice([path(4), bull(), cycle(5), path(5)])
    mods = [_matching_draw(rnd, depth - 1) if depth > 1 and v == 0
            else rnd.choice((random_cograph, lambda _, s: complete(s),
                             lambda _, s: empty(s)))(rnd, rnd.randint(1, 4))
            for v in range(base.n)]
    g = inflate(base, mods)[0]
    for _ in range(rnd.randint(0, 2)):
        side = rnd.choice([path(1), path(4),
                           random_cograph(rnd, rnd.randint(1, 3))])
        g = rnd.choice((disjoint_union, join))(g, side)
    return g


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 2), st.randoms(use_true_random=False))
def test_certificate_p_and_q_match_max_induced_matching(depth, rnd):
    g = _matching_draw(rnd, depth)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    prof, walked = compose(g).bound_check["profile"], profile(g)
    assert prof["p"] == walked.p == max_induced_matching(g)[0] + 1
    assert prof["q"] == walked.q == max_induced_matching(g.complement())[0] + 1


def test_profile_matches_the_whole_input_searches():
    for n in range(8):
        for g in all_graphs(n):
            assert profile(g) == ClassProfile(
                max_induced_matching(g)[0] + 1,
                max_induced_matching(g.complement())[0] + 1,
                max_stacked_path(g)[0] + 1)


@pytest.mark.parametrize("walk", [compose, profile],
                         ids=["compose", "profile"])
def test_compose_searches_no_matching_on_the_input(walk, monkeypatch, rng):
    _fresh_memo(monkeypatch)
    searched = []
    for module in composer, solver:  # the names each of them calls
        monkeypatch.setattr(module, "max_induced_matching",
                            lambda g, weights=None: searched.append(g) or
                            max_induced_matching(g, weights))
    for _ in range(10):
        g = _nested_inflation(rng)
        searched.clear()
        walk(g)
        # the weighted searches on prime quotients, and any climb of the
        # solver, search only smaller graphs
        assert searched
        assert all(h.n < g.n for h in searched)


def test_matchings_are_searched_once_per_labelled_quotient(monkeypatch):
    _fresh_memo(monkeypatch)
    searched = []
    for module in composer, solver:
        monkeypatch.setattr(module, "max_induced_matching",
                            lambda g, weights=None: searched.append(weights)
                            or max_induced_matching(g, weights))
    g = inflate(bull(), [path(4), path(3), path(1), complete(2),
                         cycle(5)])[0]
    first = compose(g)
    # weighted: the bull, P4 and C5, each with its complement; the rest
    # are the solver's lower bounds
    assert sum(w is not None for w in searched) == 6
    searched.clear()
    assert compose(g) == first
    assert searched == []


def test_stacked_depth_climbs_once_per_quotient_and_depths(monkeypatch,
                                                          rng):
    _fresh_memo(monkeypatch)
    searched = []
    monkeypatch.setattr(composer, "max_stacked_path",
                        lambda h, weights: searched.append(h) or
                        max_stacked_path(h, weights))
    # cograph inflations of one labelled C5 share the key (C5, (0,) * 5):
    # one weighted search
    for _ in range(6):
        mods = [random_cograph(rng, rng.randint(1, 6)) for _ in range(5)]
        compose(inflate(cycle(5), mods)[0])
    assert searched == [cycle(5)]


def test_benchmark_tracer_sees_the_composers_obstruction_searches(
        monkeypatch):
    # perfbench's tracer wraps public functions where other modules bound
    # them; the composer must call both searches through those names
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(ROOT, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    _fresh_memo(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        composer.compose(inflate(bull(), [path(4), path(3), path(1),
                                          complete(2), cycle(5)])[0])
    finally:
        tracer.active = False
        tracer.uninstall()

    def above(i):  # the names of span i's ancestors
        names, p = set(), tracer.spans[i][3]
        while p >= 0:
            names.add(tracer.spans[p][0])
            p = tracer.spans[p][3]
        return names

    met = [(s[0], above(i)) for i, s in enumerate(tracer.spans)]
    assert any(name == "obstructions.max_stacked_path" and
               "composer.compose" in up for name, up in met)
    assert any(name == "obstructions.max_induced_matching" and
               "solver.lettericity" not in up for name, up in met)


def test_class_memo_evicts_its_oldest_code(monkeypatch):
    # with room for two codes, C5, P5 and the bull push C5 out, so co-C5,
    # a C5 under other labels, is solved again and pushes P5 out
    bases = [cycle(5), path(5), bull(), cycle(5).complement()]
    inputs = [inflate(h, [complete(2)] + [path(1)] * (h.n - 1))[0]
              for h in bases]

    def run(size):
        with pytest.MonkeyPatch.context() as mp:
            _fresh_memo(mp)
            mp.setattr(composer, "_MEMO_SIZE", size)
            solved = []
            mp.setattr(composer, "lettericity",
                       lambda h: solved.append(h) or solver.lettericity(h))
            certs = [compose(g).to_json() for g in inputs]
            return certs, len(solved), set(composer._classes)

    kept, solves, codes = run(composer._MEMO_SIZE)
    assert solves == 3 and len(codes) == 3
    certs, solves, codes = run(2)
    assert solves == 4
    assert codes == {canonical_code(bull()), canonical_code(cycle(5))}
    assert certs == kept


@functools.lru_cache(maxsize=None)
def _small_primes() -> tuple[Graph, ...]:
    return tuple(g for n in range(4, 7) for g in all_graphs(n) if is_prime(g))


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_stacked_depth_is_the_inflations_under_relabelling(rnd):
    h = rnd.choice(_small_primes())
    n = h.n
    depths = tuple(rnd.choice((0, 0, 1, 2)) for _ in range(n))
    with pytest.MonkeyPatch.context() as mp:
        _fresh_memo(mp)
        for _ in range(3):
            perm = list(range(n))
            rnd.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in h.edges()])
            carried = tuple(depths[perm.index(v)] for v in range(n))
            # the depths carried along, and the same tuple left in place
            for ds in carried, depths:
                inflated = inflate(h, [stacked_path(d)[0] if d else path(1)
                                       for d in ds])[0]
                assert composer._prime_stacked_depth(h, ds) == \
                    climb_stacked_path(inflated)[0]
            depths = carried


def test_certificate_serialization():
    cert = compose(matching(2))
    obj = json.loads(cert.to_json())
    assert obj["alphabet_size"] == 2
    assert obj["recursion_tree"]["case"] == "union"
    assert obj["bound_check"]["within_F_impl"] is True


def test_compose_decode_roundtrip():
    g, _ = inflate(bull(), [path(1)] * 4 + [path(4)])
    cert = compose(g)
    lett = cert.lettering
    pos_graph = decode(lett.decoder, lett.word)
    vo = lett.vertex_of_position
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert pos_graph.adjacent(i, j) == g.adjacent(vo[i], vo[j])


def test_compose_rejects_empty_graph():
    with pytest.raises(ValueError):
        compose(empty(0))


def _nested_primes():
    # P4 of four prime modules, the bull, C5, P5 and the house (co-P5):
    # five prime quotients in five isomorphism classes, so five solver
    # calls on an empty memo
    return inflate(path(4), [bull(), cycle(5), path(5),
                             path(5).complement()])[0]


def _fresh_memo(monkeypatch):
    """Give the composer an empty prime-quotient memo, whose entries hold
    each quotient's lettering, graph6 and pair plan, with an empty class
    table, and empty stacked-depth and matching memos, for this test."""
    memo = functools.lru_cache(maxsize=composer._MEMO_SIZE)(
        composer._prime_lettering.__wrapped__)
    monkeypatch.setattr(composer, "_prime_lettering", memo)
    monkeypatch.setattr(composer, "_classes", {})
    monkeypatch.setattr(composer, "_prime_stacked_depth",
                        functools.lru_cache(maxsize=composer._MEMO_SIZE)(
                            composer._prime_stacked_depth.__wrapped__))
    monkeypatch.setattr(composer, "_prime_matching",
                        functools.lru_cache(maxsize=composer._MEMO_SIZE)(
                            composer._prime_matching.__wrapped__))
    return memo


def _record_time_left(monkeypatch, clock=None):
    """Wrap the composer's solver call, on an empty memo; returns the list
    of (seconds left before the deadline the call runs under, or None for
    none; seconds spent inside the call) it fills. With ``clock``, a
    one-item list that stands for the clock ``Run`` reads, each call takes
    two seconds of it."""
    _fresh_memo(monkeypatch)
    calls = []
    real = composer.lettericity
    now = time.monotonic if clock is None else lambda: clock[0]

    def recording(h, **kwargs):
        deadline, start = Run().deadline, now()
        out = real(h, **kwargs)
        if clock is not None:
            clock[0] += 2
        calls.append((None if deadline is None else deadline - start,
                      now() - start))
        return out

    monkeypatch.setattr(composer, "lettericity", recording)
    return calls


def test_compose_budget_bounds_the_whole_call(monkeypatch):
    calls = _record_time_left(monkeypatch)
    budget = 100.0
    with Run(budget):
        cert = compose(_nested_primes())
    assert verify(_nested_primes(), cert.lettering)
    assert len(calls) == 5
    assert calls[0][0] <= budget
    # each solve gets what is left after the previous solves' own time
    for (before, spent), (after, _) in zip(calls, calls[1:]):
        assert after <= before - spent
        assert after < before


def test_compose_without_budget_passes_none(monkeypatch):
    calls = _record_time_left(monkeypatch)
    compose(_nested_primes())
    assert [b for b, _ in calls] == [None] * 5


def test_compose_raises_once_the_budget_is_spent(monkeypatch):
    # a fake clock that stands still but for the two seconds of each solve
    clock = [0]
    monkeypatch.setattr("letterkit.run.time",
                        SimpleNamespace(monotonic=lambda: clock[0]))
    calls = _record_time_left(monkeypatch, clock)
    # the outer solve has 3.5 s left and the first module's solve 1.5 s;
    # the second module's build finds none left
    with Run(3.5), pytest.raises(BudgetExceeded):
        compose(_nested_primes())
    assert [b for b, _ in calls] == [3.5, 1.5]


def test_compose_zero_budget_raises_before_any_work():
    # matching(3) is a disjoint union: no prime quotient is ever solved
    with Run(0.0), pytest.raises(BudgetExceeded):
        compose(matching(3))


def test_compose_budget_cannot_outlive_the_enclosing_run():
    with Run(1e-9), Run(600), pytest.raises(BudgetExceeded):
        compose(matching(3))


def test_compose_budget_bounds_the_final_profile(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr("letterkit.run.time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    # readings: the budget's run (0), compose's own run (1), the top of
    # build (2: 0.5 s left), the check after the lettering is verified (3:
    # none left)
    with Run(2.5), pytest.raises(BudgetExceeded):
        compose(complete(3))


def test_memo_solves_each_quotient_class_once(monkeypatch):
    memo = _fresh_memo(monkeypatch)
    solved = []
    real = composer.lettericity
    monkeypatch.setattr(composer, "lettericity",
                        lambda h: solved.append(h) or real(h))
    # two different inflations whose quotient is the same labelled C5
    compose(inflate(cycle(5), [path(3)] + [path(1)] * 4)[0])
    compose(inflate(cycle(5), [path(1)] * 3 + [complete(2), matching(2)])[0])
    assert solved == [cycle(5)]
    # C5 under other labels (its complement is one) is another labelled
    # key but the same class: no solve, and lettericity's own answer
    relabelled = cycle(5).complement()
    assert relabelled != cycle(5)
    compose(inflate(relabelled, [path(3)] + [path(1)] * 4)[0])
    assert solved == [cycle(5)]
    assert memo(relabelled)[:2] == real(relabelled)
    # a new class is solved; P5 has C5's vertex count but other degrees
    compose(inflate(path(5), [path(3)] + [path(1)] * 4)[0])
    assert solved == [cycle(5), path(5)]
    assert list(composer._classes) == [canonical_code(h) for h in solved]


def test_memo_hit_searches_under_the_callers_deadline(monkeypatch):
    _fresh_memo(monkeypatch)
    compose(cycle(5))
    deadlines = []
    real = composer._least_lettering
    monkeypatch.setattr(composer, "_least_lettering",
                        lambda h, k, code, run: deadlines.append(run.deadline)
                        or real(h, k, code, run))
    with Run(50) as outer, Run(100):
        compose(cycle(5).complement())
    assert deadlines == [outer.deadline]


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 8), st.randoms(use_true_random=False))
def test_memo_letters_a_relabelled_class_as_lettericity_does(n, rnd):
    g = random_graph(rnd, n, 0.5)
    assume(is_prime(g))
    perm = list(range(n))
    rnd.shuffle(perm)
    relabelled = Graph.from_edges(n, [(perm[u], perm[v])
                                      for u, v in g.edges()])
    with pytest.MonkeyPatch.context() as mp:
        memo = _fresh_memo(mp)
        solved = []
        real = composer.lettericity
        mp.setattr(composer, "lettericity",
                   lambda h: solved.append(h) or real(h))
        assert memo(g)[:2] == real(g)
        # the class is stored: the relabelling runs a word search only
        assert memo(relabelled)[:2] == real(relabelled)
        assert solved == [g]
    for h in g, relabelled:
        _, lett, h6, plan = memo(h)
        assert h6 == to_graph6(h)
        # the plan's pairs (v, u) with v first in the word are h's edges
        place = {v: i for i, v in enumerate(lett.vertex_of_position)}
        assert len(plan) == len(set(plan))
        assert {(v, u) for v, u in plan if place[v] < place[u]} == \
            {(v, u) if place[v] < place[u] else (u, v)
             for v, u in h.edges()}


def _memo_inputs():
    # inputs that share labelled quotients (bull, C5, P4) in different
    # positions, so either order meets some quotients warm
    return [
        _nested_primes(),
        inflate(bull(), [cycle(5)] + [path(1)] * 4)[0],
        bull(),
        join(inflate(cycle(5), [path(3)] + [path(1)] * 4)[0], path(1)),
        inflate(path(4), [path(4)] * 4)[0],
        path(4),
        cycle(5),
    ]


def test_compose_n7_sweep_keeps_its_certificates():
    # the digest pins the certificates of all 1252 graphs with n <= 7, as
    # one solve per labelled quotient gave them; both memos hold all 389
    # labelled quotients and all 291 classes, so each class is solved once;
    # climbs are weighted stacked-path searches, one per labelled
    # (quotient, module depths)
    from tests.solver_timing import _compose_sweep
    _, _, extra = _compose_sweep()()
    assert extra == {
        "solves": 291, "quotients": 389, "classes": 291, "climbs": 391,
        "sha256": "c80ae978c16db85cba9cfddeb00156ff"
                  "425293aee9073d0a720eb8ead0f632df"}


def test_memo_keeps_certificates_byte_identical(monkeypatch):
    inputs = _memo_inputs()
    cold = []
    for g in inputs:  # each on an empty memo
        _fresh_memo(monkeypatch)
        cold.append(compose(g).to_json())
    indices = range(len(inputs))
    for order in (indices, indices[::-1]):
        memo = _fresh_memo(monkeypatch)
        for _ in range(2):  # once filling the memo, once reading it
            assert [compose(inputs[i]).to_json() for i in order] == \
                [cold[i] for i in order]
        assert memo.cache_info().hits > memo.cache_info().misses


def test_memo_keeps_only_completed_solves(monkeypatch):
    g = _nested_primes()
    _fresh_memo(monkeypatch)
    cold = compose(g).to_json()
    memo = _fresh_memo(monkeypatch)
    real = composer.lettericity
    solves = []

    def third_runs_out(h):
        solves.append(h)
        if len(solves) == 3:
            raise BudgetExceeded("lettericity ran past its budget")
        return real(h)

    monkeypatch.setattr(composer, "lettericity", third_runs_out)
    with pytest.raises(BudgetExceeded):
        compose(g)
    assert memo.cache_info().currsize == 2
    assert compose(g).to_json() == cold
    # the two stored solves are reused; the failed one is run again
    assert len(solves) == 6 and solves[3] == solves[2]
    assert memo.cache_info().currsize == 5


def test_compose_soundness_guard_raises(monkeypatch):
    monkeypatch.setattr(composer, "verify", lambda graph, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        compose(path(4))


def test_golden_compositions():
    # the compositions section of tests/data/golden_solver.json was
    # generated by tests/golden_solver.py before the composer was rewritten
    from tests.golden_solver import compositions, load
    assert compositions() == load()["compositions"]


def test_acceptance_inflation_certificates_keep_their_bytes():
    # the golden compositions reach n <= 6; these 200 inflations of
    # acceptance 6 (n up to 37) pin the letter ids and the alphabet order
    # of large, deeply nested certificates
    certs = "\n".join(compose(g).to_json() for g in claims._composer_inputs(
        0, 200, 40, random.Random(0x5EED)))
    assert hashlib.sha256(certs.encode()).hexdigest() == \
        "4fd9396f7fbd3487bfebd95c22b50fb3e85d91e24270efd7f90343ff54470ef3"


def test_bytecode_count_repeats_on_a_cold_pass():
    # each run is a fresh process, so both start with an empty solve memo
    def count(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "tests.bytecode_count", *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    first, second = (count("compose-inflations", "--items", "3")
                     for _ in range(2))
    assert set(first) == {"workload", "seed", "items", "total",
                          "warm_total", "outputs", "top"}
    assert (first["workload"], first["seed"], first["items"]) == \
        ("compose-inflations", 1, 3)
    counts = [n for _, n in first["top"]]
    assert len(counts) == 12 and counts == sorted(counts, reverse=True)
    assert all("." in name for name, _ in first["top"])  # module.qualname
    assert 0 < sum(counts) <= first["total"]
    assert (second["total"], second["warm_total"], second["outputs"]) == \
        (first["total"], first["warm_total"], first["outputs"])
    # the second pass finds the quotients solved and checked
    assert 0 < first["warm_total"] < first["total"]
    assert len(first["outputs"]) == 64
    # a verify-paper suite runs in the script's own process
    suite = count("verify-paper", "--suite", "prop41")
    assert (suite["workload"], suite["suite"], suite["seed"],
            suite["items"]) == ("verify-paper", "prop41", 0, 1)
    assert suite["total"] > 0 and suite["outputs"] != first["outputs"]


def test_bytecode_count_refuses_verify_paper():
    from tests import bytecode_count
    with pytest.raises(SystemExit, match="child processes"):
        bytecode_count.main(["verify-paper"])
