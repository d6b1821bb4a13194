import json

import pytest

from letterkit import (
    BudgetExceeded,
    LetterClassConstraint,
    all_graphs,
    complete,
    contains_induced,
    decode,
    is_k_letterable,
    lettericity,
    matching,
    path,
    stacked_path,
    verify,
)
from letterkit.graphs import ScaleError


def test_matching_lettericities():
    for m in (1, 2, 3):
        k, lett = lettericity(matching(m))
        assert k == m
        assert verify(matching(m), lett)
    assert is_k_letterable(matching(3), 2).outcome == "exhausted"


def test_p4_two_letterable():
    report = is_k_letterable(path(4), 2)
    assert report.outcome == "found"
    assert verify(path(4), report.lettering)
    # canonical least: decoder {(b,a)} with word "baba"
    assert report.lettering.word_string() == "baba"
    assert report.lettering.decoder.pair_list() == [("b", "a")]


def test_complete_graphs_single_letter():
    for n in range(1, 9):
        k, lett = lettericity(complete(n))
        assert k == 1 and lett.word_string() == "a" * n


def test_p4_not_one_letterable():
    assert is_k_letterable(path(4), 1).outcome == "exhausted"
    assert lettericity(path(4))[0] == 2


def test_returned_lettering_always_verifies():
    for g in all_graphs(5):
        k, lett = lettericity(g)
        assert verify(g, lett)
        assert lett.letters_used() <= k


def test_determinism():
    a = is_k_letterable(path(4), 2)
    b = is_k_letterable(path(4), 2)
    assert (a.outcome, a.lettering, a.decoders_tried, a.nodes_expanded) == \
        (b.outcome, b.lettering, b.decoders_tried, b.nodes_expanded)


def test_complement_duality_small():
    for n in range(1, 6):
        for g in all_graphs(n):
            assert lettericity(g)[0] == lettericity(g.complement())[0]


def test_monotone_under_induced_subgraphs():
    for g in all_graphs(5):
        k = lettericity(g)[0]
        for v in range(g.n):
            sub = g.induced([u for u in range(g.n) if u != v])
            if sub.n:
                assert lettericity(sub)[0] <= k


def test_constraint_validation():
    with pytest.raises(ValueError):
        LetterClassConstraint.of({0, 1}, {1, 2})
    with pytest.raises(ValueError):
        LetterClassConstraint.of(set())


def test_empty_constraint_agrees_with_unconstrained():
    none_c = LetterClassConstraint.of()
    for g in all_graphs(4):
        for k in (1, 2, 3):
            assert is_k_letterable(g, k, none_c).outcome == \
                is_k_letterable(g, k).outcome


def test_mixed_class_is_unsatisfiable():
    # class {0, 1, 2} of P3 has both an edge and a non-edge
    c = LetterClassConstraint.of({0, 1, 2})
    report = is_k_letterable(path(3), 3, c)
    assert report.outcome == "exhausted" and report.decoders_tried == 0


def test_more_classes_than_letters_exhausts():
    c = LetterClassConstraint.of({0}, {1}, {2})
    assert is_k_letterable(path(3), 2, c).outcome == "exhausted"


def test_constrained_search_respects_classes():
    # 2K2 with each edge forced onto one letter per class
    c = LetterClassConstraint.of({0, 1}, {2, 3})
    report = is_k_letterable(matching(2), 2, c)
    assert report.outcome == "found"
    lett = report.lettering
    pos = {v: i for i, v in enumerate(lett.vertex_of_position)}
    assert lett.word[pos[0]] == lett.word[pos[1]]
    assert lett.word[pos[2]] == lett.word[pos[3]]
    assert lett.word[pos[0]] != lett.word[pos[2]]


def test_stacked_two_constrained_exhausts():
    g, labels = stacked_path(2)
    constraint = LetterClassConstraint.of(
        {labels.id_of("s", 1, 1), labels.id_of("s", 2, 1)},
        {labels.id_of("c", 1, 1), labels.id_of("c", 2, 1)},
        {labels.id_of("c", 1, 2), labels.id_of("c", 2, 2)},
        {labels.id_of("s", 1, 2), labels.id_of("s", 2, 2)})
    report = is_k_letterable(g, 4, constraint)
    assert report.outcome == "exhausted"
    # but R2 is 4-letterable without the same-letter requirement
    assert is_k_letterable(g, 4).outcome == "found"


def test_scale_guards():
    with pytest.raises(ScaleError):
        is_k_letterable(complete(13), 2)
    with pytest.raises(ScaleError):
        is_k_letterable(path(4), 6)
    assert is_k_letterable(complete(13), 2, max_n=13).outcome == "found"


def test_budget():
    g = stacked_path(2)[0]
    with pytest.raises(BudgetExceeded):
        is_k_letterable(g, 4, budget=1e-9)


def test_report_serialization():
    report = is_k_letterable(path(4), 2)
    obj = json.loads(report.to_json())
    assert obj["outcome"] == "found"
    assert obj["lettering"]["word"] == ["b", "a", "b", "a"]
    assert obj["decoders_tried"] >= 1


def test_lettericity_at_most_vertex_count():
    for g in all_graphs(4):
        assert lettericity(g)[0] <= g.n


def test_found_lettering_decodes_back():
    report = is_k_letterable(stacked_path(2)[0], 4)
    lett = report.lettering
    g = decode(lett.decoder, lett.word)
    # positions graph equals R2 relabeled by the stored bijection
    assert contains_induced(g, g) is not None  # sanity: decode worked
    assert verify(stacked_path(2)[0], lett)


def test_solver_soundness_guard_raises(monkeypatch):
    # an explicit raise, so the guard also runs under python -O
    from letterkit import solver
    monkeypatch.setattr(solver, "verify", lambda g, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        is_k_letterable(path(4), 2)
