import json
import time
from types import SimpleNamespace

import pytest

from letterkit import (
    BudgetExceeded,
    Lettering,
    all_graphs,
    attach_peeled,
    bull,
    complete,
    compose,
    cycle,
    decode,
    disjoint_union,
    inflate,
    matching,
    path,
    peel,
    threshold,
    verify,
)
from letterkit import composer
from letterkit.graphs import DOMINATING, ISOLATED, empty
from letterkit.letters import Decoder
from tests.conftest import random_cograph


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


def test_attach_peeled_on_empty_core():
    g = matching(1)
    trace = peel(g)
    assert trace.core.n == 0
    # K2 is complete, so the composer letters it with a single clique letter
    cert = compose(g)
    assert cert.alphabet_size == 1
    assert verify(g, cert.lettering)


def test_attach_peeled_core_p4():
    g = disjoint_union(path(4), path(1))
    trace = peel(g)
    core_lett = Lettering(
        Decoder.from_pairs("ab", [("b", "a")]), (1, 0, 1, 0), (1, 0, 3, 2))
    lett = attach_peeled(core_lett, trace, g)
    assert verify(g, lett)
    assert lett.letters_used() == 3


def test_attach_peeled_rejects_bad_core_lettering():
    g = disjoint_union(path(4), path(1))
    trace = peel(g)
    bad = Lettering(Decoder.from_pairs("ab", []), (1, 0, 1, 0), (1, 0, 3, 2))
    with pytest.raises(ValueError):
        attach_peeled(bad, trace, g)


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


def test_compose_a_set_below_ramsey(rng):
    from letterkit import profile, ramsey

    def prime_nodes(node):
        if node.get("case") == "prime":
            yield node
        for key in ("core", "tree"):
            if key in node:
                yield from prime_nodes(node[key])
        for sub in node.get("modules", []):
            yield from prime_nodes(sub)

    for _ in range(20):
        base = rng.choice([path(4), bull(), cycle(5)])
        mods = [random_cograph(rng, rng.randint(1, 6)) for _ in range(base.n)]
        g, _ = inflate(base, mods)
        cert = compose(g)
        prof = profile(g)
        for node in prime_nodes(cert.recursion_tree):
            assert len(node["A"]) < ramsey(prof.p, prof.q)


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
    # P4 of P4 modules: five prime quotients, so five solver calls
    return inflate(path(4), [path(4)] * 4)[0]


def _record_budgets(monkeypatch):
    """Wrap the composer's solver call; returns the list of
    (budget, seconds spent inside the call) it fills."""
    calls = []
    real = composer.lettericity

    def recording(h, **kwargs):
        start = time.monotonic()
        out = real(h, **kwargs)
        calls.append((kwargs["budget"], time.monotonic() - start))
        return out

    monkeypatch.setattr(composer, "lettericity", recording)
    return calls


def test_compose_budget_bounds_the_whole_call(monkeypatch):
    calls = _record_budgets(monkeypatch)
    budget = 100.0
    cert = compose(_nested_primes(), budget=budget)
    assert verify(_nested_primes(), cert.lettering)
    assert len(calls) == 5
    assert calls[0][0] <= budget
    # each solve gets what is left after the previous solves' own time
    for (before, spent), (after, _) in zip(calls, calls[1:]):
        assert after <= before - spent
        assert after < before


def test_compose_without_budget_passes_none(monkeypatch):
    calls = _record_budgets(monkeypatch)
    compose(_nested_primes())
    assert [b for b, _ in calls] == [None] * 5


def test_compose_raises_once_the_budget_is_spent(monkeypatch):
    # a fake clock that advances one second per reading
    ticks = iter(range(1000))
    monkeypatch.setattr(composer, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    calls = _record_budgets(monkeypatch)
    with pytest.raises(BudgetExceeded):
        compose(_nested_primes(), budget=2.5)
    assert [b for b, _ in calls] == [1.5, 0.5]


def test_attach_peeled_soundness_guard_raises(monkeypatch):
    g = disjoint_union(path(4), path(1))
    trace = peel(g)
    core_lett = Lettering(
        Decoder.from_pairs("ab", [("b", "a")]), (1, 0, 1, 0), (1, 0, 3, 2))
    # the core check passes; only the reattached lettering fails
    monkeypatch.setattr(composer, "verify",
                        lambda graph, lett: graph is trace.core)
    with pytest.raises(AssertionError, match="failed verification"):
        attach_peeled(core_lett, trace, g)


def test_compose_soundness_guard_raises(monkeypatch):
    monkeypatch.setattr(composer, "verify", lambda graph, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        compose(path(4))
