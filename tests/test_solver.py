import functools
import itertools
import json
import math
import operator
import random
import subprocess
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from letterkit import (
    BudgetExceeded,
    LetterClassConstraint,
    Run,
    all_graphs,
    bull,
    co_matching,
    complete,
    contains_induced,
    cycle,
    decode,
    inflate,
    is_k_letterable,
    lettericity,
    matching,
    path,
    stacked_path,
    verify,
)
from letterkit import claims, solver
from letterkit.graphs import Graph, ScaleError, _canonical, from_graph6
from letterkit.letters import Decoder, Lettering, symbol
from letterkit.solver import _search_word
from tests.conftest import random_cograph, random_graph
from tests.startup_timing import child_env


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
    # the same counters too: an empty constraint keeps the nogoods on
    none_c = LetterClassConstraint.of()
    for g in all_graphs(4):
        for k in (1, 2, 3):
            a, b = is_k_letterable(g, k, none_c), is_k_letterable(g, k)
            assert (a.outcome, a.lettering, a.decoders_tried,
                    a.nodes_expanded) == (b.outcome, b.lettering,
                                          b.decoders_tried, b.nodes_expanded)


def test_every_class_id_is_checked_before_the_search():
    # {0, 1, 2} is mixed in P3, which alone would exhaust at once
    for classes in (({0, 1, 2}, {9}), ({9}, {0, 1, 2})):
        with pytest.raises(ValueError, match="bad vertex ids"):
            is_k_letterable(path(3), 2, LetterClassConstraint.of(*classes))
    # an id that is not an int >= 0, a bool included, fails as the
    # constraint is built, before its overlap check, where True met {1}
    for classes in (({0, 1, 2}, {-1}), ({0.5},), ({"a"},), ({True}, {2}),
                    ({True}, {1}), ({0, 1}, {1, -3})):
        with pytest.raises(ValueError, match="bad vertex ids"):
            LetterClassConstraint.of(*classes)


def test_a_failed_word_search_fails_the_soundness_guard(monkeypatch):
    monkeypatch.setattr(solver, "_search_word", lambda *args: None)
    with pytest.raises(AssertionError, match="failed verification"):
        is_k_letterable(path(4), 2)


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
    g = stacked_path(2)[0]
    report = is_k_letterable(g, 4, claims.r2_four_classes())
    assert report.outcome == "exhausted"
    # but R2 is 4-letterable without the same-letter requirement
    assert is_k_letterable(g, 4).outcome == "found"


def test_scale_guards(monkeypatch):
    with pytest.raises(ScaleError):
        is_k_letterable(complete(13), 2)
    with pytest.raises(ScaleError):
        is_k_letterable(path(4), 6)
    # the guards are read at each call: lifted, the same query runs
    monkeypatch.setattr(solver, "MAX_N", 13)
    assert is_k_letterable(complete(13), 2).outcome == "found"


def test_climb_starts_at_matching_bound(monkeypatch):
    seen = []
    real = solver.is_k_letterable

    def record(g, k, *args, **kwargs):
        seen.append(k)
        return real(g, k, *args, **kwargs)

    monkeypatch.setattr(solver, "is_k_letterable", record)
    assert lettericity(matching(3))[0] == 3
    assert lettericity(matching(3).complement())[0] == 3
    assert lettericity(path(4))[0] == 2
    assert seen == [3, 3, 1, 2]


def test_six_matching_hits_scale_guard_at_once():
    # 6K2 needs 6 letters; the climb starts there instead of spending
    # its budget (BudgetExceeded) on an exhaustive k = 5 search, and says
    # that the bound, not a k asked for, passes the guard
    with pytest.raises(ScaleError, match=r"^the matching lower bound is 6; "
                       r"the solver scale guard is k <= 5$"):
        lettericity(matching(6), budget=1.0)
    # too many vertices: the guard fires before the lower bound is sought
    with pytest.raises(ScaleError):
        lettericity(matching(30), budget=1.0)


def test_climb_past_the_guard_names_the_highest_k_exhausted(monkeypatch):
    # C5 needs 3 letters; its bound is 1, so the climb exhausts k = 1, 2
    monkeypatch.setattr(solver, "MAX_K", 2)
    with pytest.raises(ScaleError, match=r"^k = 2 exhausted; the solver "
                       r"scale guard is k <= 2$"):
        lettericity(cycle(5))


def test_is_k_letterable_rejects_k_below_1_and_the_empty_graph():
    with pytest.raises(ValueError, match="k must be >= 1"):
        is_k_letterable(path(3), 0)
    with pytest.raises(ValueError, match="graph must be nonempty"):
        is_k_letterable(Graph(0, ()), 1)


def test_lettericity_of_the_empty_graph_raises():
    with pytest.raises(ValueError, match="graph must be nonempty"):
        lettericity(Graph(0, ()))


def test_budget():
    g = stacked_path(2)[0]
    with Run(1e-9), pytest.raises(BudgetExceeded):
        is_k_letterable(g, 4)


def test_lettericity_budget_bounds_the_climb():
    g = stacked_path(2)[0]
    with pytest.raises(BudgetExceeded):
        lettericity(g, budget=1e-9)
    with Run(600), pytest.raises(BudgetExceeded):  # the earlier deadline
        lettericity(g, budget=1e-9)


def test_nan_budget_is_rejected():
    # a NaN deadline compares false with every time, so no check would fire
    # and a nested run's own budget would be lost in min(nan, own)
    with pytest.raises(ValueError, match="NaN"):
        Run(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        lettericity(cycle(6), budget=float("nan"))
    with pytest.raises(BudgetExceeded):  # a negative budget is spent at once
        lettericity(cycle(6), budget=-1.0)


def test_a_run_may_be_entered_again_while_entered():
    # each exit restores the run enclosing its own entry; with one token
    # slot the outer exit raised RuntimeError, as its token was spent
    outer, again = Run(100), Run(50)
    with outer:
        with outer:
            assert Run().deadline == outer.deadline
        assert Run().deadline == outer.deadline
        with again:
            with outer, again:
                assert Run().deadline == again.deadline
            assert Run().deadline == again.deadline
        assert Run().deadline == outer.deadline
    assert Run().deadline is None


def test_report_serialization():
    report = is_k_letterable(path(4), 2)
    obj = json.loads(report.to_json())
    assert obj["outcome"] == "found"
    assert obj["lettering"]["word"] == ["b", "a", "b", "a"]
    assert obj["decoders_tried"] >= 1


@pytest.mark.parametrize("g, k, outcome", [
    (cycle(5), 3, "found"), (matching(3), 2, "exhausted")])
def test_the_run_supplies_elapsed_and_the_counters(monkeypatch, g, k,
                                                   outcome):
    # a fake clock that stands still but for a quarter second per search
    clock, calls = [0.0], []
    monkeypatch.setattr("letterkit.run.time",
                        SimpleNamespace(monotonic=lambda: clock[0]))
    real = solver._fits

    def counted(*args):
        calls.append(args)
        clock[0] += 0.25
        return real(*args)

    monkeypatch.setattr(solver, "_fits", counted)
    report = is_k_letterable(g, k)
    assert report.outcome == outcome
    assert report.decoders_tried == len(calls) >= 1
    assert report.elapsed == 0.25 * len(calls)
    assert report.nodes_expanded > 0


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
    monkeypatch.setattr(solver, "verify", lambda g, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        is_k_letterable(path(4), 2)


_GUARD_UNDER_O = """
import sys
from letterkit import path, solver
solver.verify = lambda g, lett: False
try:
    solver.is_k_letterable(path(4), 2)
except AssertionError as exc:
    print(sys.flags.optimize, exc)
"""


def test_solver_soundness_guard_runs_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _GUARD_UNDER_O],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 ") and \
        "failed verification" in proc.stdout


def test_golden_solver_outputs():
    # tests/data/golden_solver.json was generated by tests/golden_solver.py
    # before the solver's word search was rewritten
    from tests.golden_solver import build, load
    got, want = build(), load()
    assert got["letterings"] == want["letterings"]
    assert got["counters"] == want["counters"]


def test_solver_timing_script_reports_a_query(capsys, monkeypatch):
    from tests import solver_timing
    solver_timing.main(["r3-k4"])
    line = json.loads(capsys.readouterr().out)
    assert set(line) == {"name", "outcome", "elapsed", "decoders", "nodes",
                         "us_per_node", "split", "gc"}
    assert (line["name"], line["outcome"], line["decoders"]) == \
        ("r3-k4", "exhausted", 1)
    assert line["nodes"] > 0 and line["elapsed"] > 0
    split = line["split"]  # the one decision exhausts, so no descent
    assert {kind: entry["calls"] for kind, entry in split.items()} == {
        "decisions": 1, "descent_hits": 0, "descent_exhausted": 0,
        "word_searches": 0, "completion_checks": 0}
    assert 0 < split["decisions"]["s"] <= line["elapsed"] + 5e-4  # ms
    assert line["us_per_node"] == pytest.approx(
        line["elapsed"] / line["nodes"] * 1e6, rel=0.05)
    with pytest.raises(SystemExit, match="unknown query r3"):
        solver_timing.main(["r3"])
    # a found query: its word search's completion checks are word-search
    # work, counted apart, and no descent question; timing them leaves the
    # search as it is unpatched
    g = next(_exact_p10_labellings())
    monkeypatch.setitem(solver_timing.QUERIES, "p10",
                        lambda: solver_timing._single(g, 4))
    solver_timing.main(["p10"])
    line = json.loads(capsys.readouterr().out)
    split, plain = line["split"], is_k_letterable(g, 4)
    assert (line["nodes"], line["decoders"]) == \
        (plain.nodes_expanded, plain.decoders_tried)
    assert line["outcome"] == "found" and split["word_searches"]["calls"] == 1
    assert sum(split[kind]["calls"] for kind in solver_timing.SPLIT[:3]) == \
        line["decoders"]
    assert split["completion_checks"]["calls"] > 0
    assert split["completion_checks"]["s"] <= split["word_searches"]["s"]


def test_lettericity_sweep_n7_keeps_its_answers_and_search_tree():
    # the digest pins the answers for all 1044 graphs with n = 7, and the
    # totals pin every letter-class search and placement of their climbs
    from tests.solver_timing import _lettericity_sweep
    _, reports, extra = _lettericity_sweep()()
    assert extra["sha256"] == \
        "5a80bdf1317539a7a7980b8c2c9ea428e4eabd91797d8805f0dabf105290cb0b"
    assert sum(r.decoders_tried for r in reports) == 7039
    assert sum(r.nodes_expanded for r in reports) == 505_460


def test_exact_workload_searches_keep_their_trees():
    # (k, outcome, decoders_tried, nodes_expanded) of every is_k_letterable
    # call of the climbs on pass 0 of seed 1 of the exact workload, and of
    # R3 at k = 3 and 4: the search trees of the benchmark's slowest items
    want = {
        "C8": [(2, "exhausted", 1, 11), (3, "exhausted", 1, 148),
               (4, "found", 5, 2341)],
        "P10": [(3, "exhausted", 1, 179), (4, "found", 4, 2214)],
        "R2": [(1, "exhausted", 1, 2), (2, "exhausted", 1, 12),
               (3, "exhausted", 1, 217), (4, "found", 8, 3626)],
        "co-R2": [(1, "exhausted", 1, 2), (2, "exhausted", 1, 12),
                  (3, "exhausted", 1, 206), (4, "found", 7, 1898)]}
    real, calls = solver.is_k_letterable, []

    def record(g, k, *args):
        report = real(g, k, *args)
        calls.append((k, report.outcome, report.decoders_tried,
                      report.nodes_expanded))
        return report

    for name, g in _exact_lettericity_graphs(0).items():
        calls.clear()
        with mock.patch.object(solver, "is_k_letterable", record):
            lettericity(g)
        assert calls == want[name], name
    r3 = stacked_path(3)[0]
    assert [(r.outcome, r.decoders_tried, r.nodes_expanded)
            for r in (is_k_letterable(r3, 3), is_k_letterable(r3, 4))] == \
        [("exhausted", 1, 157), ("exhausted", 1, 6017)]


def test_golden_section_rewrite_leaves_other_sections_alone():
    from tests.golden_solver import merge
    old = {"counters": {"g": [1]}, "letterings": {"g": "a"}}
    fresh = {"counters": {"g": [2]}, "letterings": {"g": "a"}}
    assert merge(old, fresh, "counters") == fresh
    assert merge({}, fresh) == fresh
    moved = {**fresh, "letterings": {"g": "b"}}
    with pytest.raises(ValueError, match="section letterings would change"):
        merge(old, moved, "counters")
    with pytest.raises(ValueError, match="no section 'words'"):
        merge(old, fresh, "words")


# -- _search_word against the per-vertex search it replaced ----------------

def _reference_search_word(g: Graph, k: int, matrix: tuple[int, ...],
                           class_of: list[int], class_kind: list[int],
                           counter: list[int], deadline: float | None):
    """Find the lexicographically least word (letters ascending, then vertex
    ids ascending) decoding to ``g`` under ``matrix``; None if exhausted."""
    n = g.n
    full_letters = (1 << k) - 1
    # letters compatible with each class's clique/co-clique kind
    kind_mask = []
    for kind in class_kind:
        mask = 0
        for a in range(k):
            self_pair = matrix[a] >> a & 1
            if kind == -1 or kind == self_pair:
                mask |= 1 << a
        kind_mask.append(mask)
    if any(m == 0 for m in kind_mask):
        return None
    # propagation masks: after placing letter a, a later vertex adjacent to
    # it needs a letter in row_true[a], a non-adjacent one in row_false[a]
    row_true = [matrix[a] for a in range(k)]
    row_false = [full_letters & ~matrix[a] for a in range(k)]

    feas = [full_letters] * n
    word: list[int] = []
    placed: list[int] = []
    n_classes = len(class_kind)
    class_letter = [-1] * n_classes
    letters_bound = 0  # letters claimed by some class

    def dfs() -> bool:
        nonlocal letters_bound
        pos = len(placed)
        if pos == n:
            return True
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded("lettering search ran past its budget")
        for a in range(k):
            bit = 1 << a
            for v in range(n):
                if v in placed_set or not feas[v] & bit:
                    continue
                c = class_of[v]
                if c >= 0:
                    if class_letter[c] >= 0:
                        if class_letter[c] != a:
                            continue
                    elif (letters_bound & bit) or not kind_mask[c] & bit:
                        continue
                counter[0] += 1
                # place v with letter a
                saved = []
                ok = True
                row = g.rows[v]
                for u in range(n):
                    if u == v or u in placed_set:
                        continue
                    upd = row_true[a] if row >> u & 1 else row_false[a]
                    newf = feas[u] & upd
                    if newf != feas[u]:
                        saved.append((u, feas[u]))
                        feas[u] = newf
                        if not newf:
                            ok = False
                if ok:
                    placed.append(v)
                    placed_set.add(v)
                    word.append(a)
                    bound_here = c >= 0 and class_letter[c] < 0
                    if bound_here:
                        class_letter[c] = a
                        letters_bound |= bit
                    if dfs():
                        return True
                    if bound_here:
                        class_letter[c] = -1
                        letters_bound &= ~bit
                    word.pop()
                    placed_set.remove(v)
                    placed.pop()
                for u, old in saved:
                    feas[u] = old
        return False

    placed_set: set[int] = set()
    if dfs():
        return word, placed
    return None


def _class_arrays(g: Graph, classes):
    """class_of and class_kind as is_k_letterable builds them; classes
    must be cliques, co-cliques or singletons."""
    class_of = [-1] * g.n
    class_kind = []
    for ci, cls in enumerate(classes):
        for v in cls:
            class_of[v] = ci
        pairs = list(itertools.combinations(sorted(cls), 2))
        class_kind.append(-1 if not pairs else int(g.adjacent(*pairs[0])))
    return class_of, class_kind


def _cuts(g: Graph, classes):
    """The per-vertex cuts is_k_letterable builds for ``classes``."""
    return solver._class_cuts(g, LetterClassConstraint(tuple(classes)))


def _uniform_classes(g: Graph, rnd, count: int):
    """Up to ``count`` disjoint random classes, each a clique, a co-clique
    or a singleton of ``g``."""
    free = list(range(g.n))
    rnd.shuffle(free)
    classes = []
    while free and len(classes) < count:
        cls = [free.pop()]
        for v in list(free)[:rnd.randint(0, 3)]:
            trial = cls + [v]
            kinds = {g.adjacent(x, y)
                     for x, y in itertools.combinations(trial, 2)}
            if len(kinds) == 1:
                cls = trial
                free.remove(v)
        classes.append(frozenset(cls))
    return classes


def _code(matrix: tuple[int, ...]) -> int:
    """The solver's code of the decoder with row masks ``matrix`` (bit b of
    row a is entry (a, b)): bit a*k + b is entry (a, b)."""
    return sum(row << a * len(matrix) for a, row in enumerate(matrix))


def _both_searches(g: Graph, k: int, matrix, classes, check_after=None):
    """Both searches' words and node counts, under the enclosing deadline;
    ``_search_word`` checks for a completion after a dead subtree of
    ``check_after`` nodes (``solver._CHECK_AFTER`` for None)."""
    class_of, class_kind = _class_arrays(g, classes)
    new, ref = Run(), [0]
    with mock.patch.object(solver, "_CHECK_AFTER", solver._CHECK_AFTER
                           if check_after is None else check_after):
        word = _search_word(g, k, _code(matrix), _cuts(g, classes), new)
    return [(word, new.nodes),
            (_reference_search_word(g, k, matrix, class_of, class_kind,
                                    ref, new.deadline), ref[0])]


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 5),
       st.randoms(use_true_random=False))
def test_search_word_matches_reference(n, k, n_classes, rnd):
    g = random_graph(rnd, n, rnd.random())
    matrix = tuple(rnd.getrandbits(k) for _ in range(k))
    classes = _uniform_classes(g, rnd, n_classes)
    LetterClassConstraint(tuple(classes))  # the classes are valid
    try:
        # some draws up to n = 9, k = 4 search for minutes
        with Run(2):
            new, ref = _both_searches(g, k, matrix, classes)
            eager, _ = _both_searches(g, k, matrix, classes, check_after=0)
            off, _ = _both_searches(g, k, matrix, classes,
                                    check_after=math.inf)
    except BudgetExceeded:
        reject()
    # the same word, or None; the completion check skips subtrees with no
    # word, so the new search may try fewer nodes than the reference
    assert new[0] == eager[0] == off[0] == ref[0]
    # with no check, the dead-branch test, which sees the class cuts,
    # prunes at least as much as the reference's, which does not
    assert off[1] <= ref[1]


def test_word_search_dead_branch_test_sees_the_class_cuts():
    # the cuts act on the candidate masks, so a branch that leaves a class
    # member in no letter it may take is dead at once; the reference, whose
    # dead-branch test is blind to them, tries 1,768 nodes
    g = from_graph6("G}~Z~w")
    classes = [frozenset({7}), frozenset({1, 2, 6})]
    new, ref = _both_searches(g, 3, (6, 6, 7), classes)
    off, _ = _both_searches(g, 3, (6, 6, 7), classes, check_after=math.inf)
    assert new == off == (None, 250) and ref == (None, 1768)


def test_search_word_edge_cases():
    one = path(1)
    for k, matrix in ((1, (0,)), (1, (1,)), (2, (0b10, 0b01))):
        new, ref = _both_searches(one, k, matrix, [])
        assert new == ref
        assert new[0] == ([0], [0])
    # a clique class under a decoder whose only letter has no self-pair
    new, ref = _both_searches(complete(3), 1, (0,), [frozenset({0, 1})])
    assert new == ref == (None, 0)
    # the class's kind is allowed on letter b only, so a is never tried
    # for its members
    new, ref = _both_searches(complete(3), 2, (0b10, 0b11),
                              [frozenset({0, 1})])
    assert new == ref
    assert new[0] is not None


class _ClockReads(Run):
    """A run that records its node count at each reading of the clock, and
    is past its deadline from its ``late``-th reading on."""

    __slots__ = ("reads", "late")

    def __init__(self, late: float = math.inf):
        super().__init__()
        self.reads, self.late = [], late

    def check(self, what: str) -> None:
        self.reads.append(self.nodes)
        if len(self.reads) >= self.late:
            self.deadline = -math.inf
        super().check(what)


def test_word_search_reads_the_clock_once_per_64_nodes():
    # P10's least word, with completion checks off, so that every reading
    # is the word search's own: the first call reads the clock, and then
    # each one at least 64 nodes after the last
    g = next(_exact_p10_labellings())
    code, cuts = _code(_least_decoder(g, 4)), [None] * g.n
    with mock.patch.object(solver, "_CHECK_AFTER", math.inf):
        with Run(600):
            run, late = _ClockReads(), _ClockReads(late=3)
            assert _search_word(g, 4, code, cuts, run) is not None
            with pytest.raises(BudgetExceeded):  # past it mid-search
                _search_word(g, 4, code, cuts, late)
        free = _ClockReads()  # no deadline: no reading
        assert _search_word(g, 4, code, cuts, free) is not None
    reads = run.reads
    assert reads[0] == 0 and len(reads) > 10
    assert all(b - a >= 64 for a, b in zip(reads, reads[1:]))
    assert late.reads == reads[:3] and free.reads == []


def _exact_lettericity_graphs(pass_index: int) -> dict[str, Graph]:
    """C8, P10, R2 and co-R2 as pass ``pass_index`` of seed 1 of the
    benchmark's exact workload labels them, drawing their labels in that
    order (``perfbench/workloads.py``)."""
    from tests.bytecode_count import _workloads
    workloads = _workloads()
    rng = random.Random(1 * workloads.PASS_STRIDE + pass_index)
    r2 = stacked_path(2)[0]
    return {name: workloads._relabel(g, rng)[0] for name, g in (
        ("C8", cycle(8)), ("P10", path(10)), ("R2", r2),
        ("co-R2", r2.complement()))}


def _exact_p10_labellings():
    """P10 as passes 0, 1 and 2 of seed 1 of the exact workload label it."""
    for i in range(3):
        yield _exact_lettericity_graphs(i)["P10"]


def _least_decoder(g: Graph, k: int, classes=()) -> tuple[int, ...]:
    """D*, the decoder of the least k-lettering of ``g``, as row masks."""
    report = is_k_letterable(g, k, LetterClassConstraint.of(*classes))
    pairs = report.lettering.decoder.pairs
    return tuple(sum(1 << b for b in range(k) if pairs[a][b])
                 for a in range(k))


def test_p10_word_search_places_at_most_a_fifth_of_the_reference_dfs():
    # the depth-first search without completion checks tries 5,800-7,900
    # candidates on these labellings, in dead subtrees but for ten
    for g in _exact_p10_labellings():
        new, ref = _both_searches(g, 4, _least_decoder(g, 4), [])
        assert new[0] == ref[0] is not None
        assert new[1] * 5 <= ref[1]


def _check_states(g: Graph, k: int, code: int, classes):
    """The placed mask and start masks of each completion check that a word
    search of ``g`` under the decoder ``code`` makes when it checks after
    every dead subtree."""
    states, real = [], solver._placements

    def recording(*args):  # the check's placed mask and start masks last
        states.append((args[-2], args[-1][:]))
        return real(*args)

    with mock.patch.object(solver, "_placements", recording), \
            mock.patch.object(solver, "_CHECK_AFTER", 0):
        assert _search_word(g, k, code, _cuts(g, classes), Run())
    return states


# -- the decoder walk that the letter-class search replaced ------------------

def _canonical_matrices(k: int):
    """Yield, in increasing row-major code order, the decoder matrices
    (row bitmasks; bit j of row i is entry (i, j)) that are least in their
    orbit under letter renaming, which maps entry (i, j) to (sigma[i],
    sigma[j]). Code order compares the rows read from column 0.

    Orderly generation (Read 1978; McKay, J. Algorithms 1998) appends rows
    in increasing order. Row i of a renaming is known once row sigma[i] is,
    so each renaming is compared with the prefix as far as the known rows
    go and the tie is carried down: a larger renaming is dropped, and a
    smaller one cuts the prefix. At full depth the test is exact."""
    full = 1 << k
    # key[row] reads the row from column 0, so keys order rows by code
    key = [sum((row >> j & 1) << (k - 1 - j) for j in range(k))
           for row in range(full)]
    by_key = sorted(range(full), key=key.__getitem__)
    # each renaming but the identity, with the keys of the rows under its
    # column permutation and the number of leading rows tied so far
    renamings = [(sigma, [key[sum((row >> sigma[j] & 1) << j
                                  for j in range(k))]
                          for row in range(full)], 0)
                 for sigma in itertools.permutations(range(k))][1:]
    rows: list[int] = []

    def extend(tied):
        r = len(rows) + 1
        for row in by_key:
            rows.append(row)
            still = []
            for sigma, moved, i in tied:
                while i < r and sigma[i] < r:
                    a, b = moved[rows[sigma[i]]], key[rows[i]]
                    if a != b:
                        break
                    i += 1
                else:
                    still.append((sigma, moved, i))
                    continue
                if a < b:
                    break  # a smaller renaming: cut
            else:
                if r == k:
                    yield tuple(rows)
                else:
                    yield from extend(still)
            rows.pop()

    yield from extend(renamings)


@functools.lru_cache(maxsize=None)
def _kept_matrices(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(_canonical_matrices(k))


def _decoder_walk(g: Graph, k: int, classes=(), matrices=None):
    """The lettering is_k_letterable returned before the letter-class
    search, and the number of decoders tried: the word search on each
    decoder up to letter renaming, in code order, first success wins."""
    cuts, tried, run = _cuts(g, classes), 0, Run()
    for matrix in _kept_matrices(k) if matrices is None else matrices:
        tried += 1
        hit = _search_word(g, k, _code(matrix), cuts, run)
        if hit is not None:
            dec = Decoder(tuple(symbol(i) for i in range(k)),
                          tuple(tuple(bool(matrix[a] >> b & 1)
                                      for b in range(k)) for a in range(k)))
            return Lettering(dec, tuple(hit[0]), tuple(hit[1])), tried
    return None, tried


def _matches_decoder_walk(g: Graph, k: int, classes) -> None:
    report = is_k_letterable(g, k, LetterClassConstraint(tuple(classes)))
    try:
        # with classes the walk's word search can take a minute at n = 9
        with Run(2):
            want, _ = _decoder_walk(g, k, classes)
    except BudgetExceeded:
        reject()
    assert report.outcome == ("exhausted" if want is None else "found")
    assert report.lettering == want


def _relabelled(g: Graph, rnd) -> Graph:
    label = list(range(g.n))
    rnd.shuffle(label)
    return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])


def _twin_rich_graph(rnd) -> Graph:
    """A relabelled inflation of P4, the bull or C5 with small cograph
    modules, or a relabelled matching or co-matching; n <= 8."""
    kind = rnd.randrange(5)
    if kind < 3:
        h = (path(4), bull(), cycle(5))[kind]
        sizes = [1] * h.n
        for _ in range(rnd.randint(0, 8 - h.n)):
            sizes[rnd.randrange(h.n)] += 1
        g = inflate(h, [random_cograph(rnd, size) for size in sizes])[0]
    else:
        g = (matching, co_matching)[kind - 3](rnd.randint(1, 4))
    return _relabelled(g, rnd)


def _symmetric_graph(rnd) -> Graph:
    """A relabelled cycle, matching, co-matching, R1 or R2; n <= 8: graphs
    with many automorphisms, where the root's orbit nogoods act."""
    kind = rnd.randrange(5)
    if kind < 3:
        g = (cycle(rnd.randint(3, 8)), matching(rnd.randint(1, 4)),
             co_matching(rnd.randint(1, 4)))[kind]
    else:
        g = stacked_path(kind - 2)[0]
    return _relabelled(g, rnd)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_letter_class_search_matches_decoder_walk(n, k, n_classes, rnd):
    g = random_graph(rnd, n, rnd.random())
    _matches_decoder_walk(g, k, _uniform_classes(g, rnd, n_classes))


@settings(max_examples=50, deadline=None)  # an exhausted walk takes ~1 s
@given(st.integers(1, 4), st.integers(0, 4),
       st.randoms(use_true_random=False))
def test_letter_class_search_matches_decoder_walk_on_twin_rich_graphs(
        k, n_classes, rnd):
    # many equal rows, where fixed entries bind letters still empty
    g = _twin_rich_graph(rnd)
    _matches_decoder_walk(g, k, _uniform_classes(g, rnd, n_classes))


# -- _fits against the letter-class search it replaced ------------------------

def _reference_fits(g: Graph, k: int, prefix: int, fixed: int,
                    class_of: list[int], run: Run) -> int | None:
    """A decoder code (bit a*k + b is entry (a, b), unset entries 0) that
    agrees with ``prefix`` on its ``fixed`` low bits and fits a k-lettering
    of ``g``, or None. Entries (M[a][b], M[b][a]) = (1, 0) put u in a before
    w in b if uw is an edge and after it if not, (0, 1) the reverse; equal
    ones fix the adjacency. Entries are set once both letters have members;
    a fixed pair of equal entries x between a and b binds b's candidates to
    the x side of each member of a even while b is empty. A vertex in no
    ``cand`` mask or a cycle in ``succ`` cuts the branch. Each placement
    tried counts one ``run`` node."""
    n, rows, full, known = g.n, g.rows, (1 << g.n) - 1, (1 << fixed) - 1
    deadline = run.deadline
    stride = ((1 << k * k) - 1) // ((1 << k) - 1)  # bit i*k for each row i
    column = [(prefix & known) >> a & stride | (known >> a & stride) << k * k
              for a in range(k)]
    cls = [sum(1 << v for v in range(n) if class_of[v] == c) for c in
           range(max(class_of, default=-1) + 1)]
    members = [(0, full, full)] * k  # members, adjacent to none, to all
    tied = [[(b, prefix >> a * k + b & 1) for b in range(k)
             if b != a and known >> a * k + b & known >> b * k + a & 1
             and prefix >> a * k + b & 1 == prefix >> b * k + a & 1]
            for a in range(k)]  # fixed equal entries (a, b) = (b, a) = x

    def place(code: int, placed: int, near: int, cand: list[int],
              succ: list[int]):
        left = full & ~placed
        if not left:
            return code
        if deadline is not None:
            run.check("lettering search")
        one = two = three = 0  # in at least one, two, three masks
        for m in cand:
            one, two, three = one | m, two | one & m, three | two & m
        if one & left != left:
            return None
        v = (one & ~two & left) or (two & ~three & left) or left
        v = ((v & near or v) & -(v & near or v)).bit_length() - 1
        c, bit = class_of[v], 1 << v
        sides, opened = (full & ~rows[v] & ~bit, rows[v]), set()
        first = members[0][0]  # (0, 0) leads the code: try clique a last
        for a in (*range(1, k), 0) if not fixed and rows[v] & first and \
                0 < first == first & -first else range(k):
            own, none, every = members[a]
            if not cand[a] >> v & 1 or not own and a * k >= fixed and (
                    column[a] in opened or opened.add(column[a])):
                continue  # v can't join a, or a is a twin of a letter tried
            here = code | bool(0 < own == own & -own and a * k + a >= fixed
                               and rows[v] & own) << a * k + a
            choices = itertools.product(*(  # entries (a, b) and (b, a)
                [(b, x, y) for y in ((here >> b * k + a & 1,) if own or
                                     known >> b * k + a & 1 else (0, 1))
                 for x in ((here >> a * k + b & 1,) if own or
                           known >> a * k + b & 1 else (0, 1))
                 if x != y or members[b][0] & sides[x] == members[b][0]]
                for b in range(k) if b != a and members[b][0]))
            members[a] = own | bit, none & sides[0], every & sides[1]
            for choice in choices:
                run.nodes += 1
                nxt, now, after, before = cand[:], here, 0, 0
                for b, x, y in choice:
                    now |= x << a * k + b | y << b * k + a
                    if x != y:
                        after |= members[b][0] & sides[x]
                        before |= members[b][0] & sides[y]
                    else:
                        nxt[b] &= sides[x]
                        nxt[a] &= members[b][1 + x]
                for b, x in tied[a]:  # fixed entries bind an empty b too
                    if not members[b][0]:
                        nxt[b] &= sides[x]
                if own or a * k + a < fixed:
                    nxt[a] &= members[a][1 + (now >> a * k + a & 1)]
                for b in range(k) if c >= 0 else ():  # one letter per class
                    nxt[b] &= ~(sum(cls) ^ cls[c]) if b == a else ~cls[c]
                for u in range(n) if after else ():
                    after |= succ[u] if after >> u & 1 else 0
                if after & before:
                    continue  # the forced order has a cycle
                hit = place(now, placed | bit, near | rows[v], nxt, [
                    after if u == v else s | after | bit if s & before or
                    before >> u & 1 else s for u, s in enumerate(succ)]
                    if after | before else succ)
                if hit is not None:
                    return hit
            members[a] = own, none, every
        return None

    return place(prefix & known, 0, 0, [full] * k, [0] * n)


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 8), st.integers(1, 5), st.just(0) | st.integers(1, 3),
       st.sampled_from([random_graph, _twin_rich_graph, _symmetric_graph]),
       st.randoms(use_true_random=False))
def test_fits_matches_reference(n, k, n_classes, draw, rnd):
    # the golden file pins only the prefixes that the descent asks about;
    # here any prefix, with any number of fixed entries, is asked; five
    # letters only up to n = 6, where the reference search stays short
    g = random_graph(rnd, n, rnd.random()) if draw is random_graph else \
        draw(rnd)
    assume(k < 5 or g.n <= 6)
    fixed, prefix = rnd.randint(0, k * k), rnd.getrandbits(k * k)
    classes = _uniform_classes(g, rnd, n_classes)
    class_of, _ = _class_arrays(g, classes)
    try:
        with Run(2):
            new, ref = Run(), Run()
            got = solver._fits(g, k, prefix, fixed, _cuts(g, classes), new)
            want = _reference_fits(g, k, prefix, fixed, class_of, ref)
    except BudgetExceeded:
        reject()
    if max(class_of, default=-1) >= 0:  # classes switch nogoods off
        assert got == want
        _same_or_mirror_pruned(fixed, new.nodes, ref.nodes)
        return
    # nogoods prune the tree, so another fitting code may be found first
    assert (got is None) == (want is None)
    if got is not None:
        known = (1 << fixed) - 1
        assert got & known == prefix & known
        solver._least_lettering(g, k, got, Run())


def _same_or_mirror_pruned(fixed: int, nodes: int, reference: int) -> None:
    """A search and a reference without the mirror rule, from the same
    start, count the same placements, or, where the rule acts, no more.
    It acts from the starts with fewer than two fixed entries, the only
    prefixes of the row-major code whose fixed entries are closed under
    transposition and leave a pair free; a fully fixed symmetric decoder
    leaves no choice to drop, so it is held to the same count too."""
    if fixed < 2:
        assert nodes <= reference
    else:
        assert nodes == reference


# -- _placements against the search it was rewritten from --------------------

def _reference_placements(g: Graph, k: int, prefix: int, fixed: int,
                          cuts: list[tuple[int, int] | None], run: Run):
    """``solver._placements`` as it was before its placements were made
    cheaper, verbatim but for its tables (``_reference_tables``), the same
    search tree at more Python work per placement and without the mirror
    rule, which drops a choice whose subtree mirrors one tried before it."""
    n, rows, full = g.n, g.rows, (1 << g.n) - 1
    deadline = run.deadline
    prefix &= (1 << fixed) - 1
    column, letters, rotated, tied, options = _reference_tables(k, prefix,
                                                                fixed)
    non = [full & ~rows[v] & ~(1 << v) for v in range(n)]
    members = [(0, full, full)] * k  # members, adjacent to none, to all
    twins = None if any(cuts) else solver._twins(g)  # None: no nogoods

    def place(code: int, placed: int, near: int, cand: list[int],
              succ: list[int], pred: list[int]):
        left = full & ~placed
        if not left:
            return code
        if deadline is not None:
            run.check("lettering search")
        one = two = three = 0  # in at least one, two, three masks
        for m in cand:
            one, two, three = one | m, two | one & m, three | two & m
        if one & left != left:
            return None
        v = (one & ~two & left) or (two & ~three & left) or left
        v = ((v & near or v) & -(v & near or v)).bit_length() - 1
        cut, bit, row = cuts[v], 1 << v, rows[v]
        sides, opened = (non[v], row), []
        first = members[0][0]  # (0, 0) leads the code: try clique a last
        for a, ak, aa in rotated if not fixed and row & first and \
                0 < first == first & -first else letters:
            own, none, every = members[a]
            if not cand[a] & bit or not own and ak >= fixed and (
                    column[a] in opened or opened.append(column[a])):
                continue  # v can't join a, or a is a twin of a letter tried
            here = code
            if own and not own & own - 1 and row & own and aa >= fixed:
                here |= 1 << aa  # the second member sets entry (a, a)
            members[a] = own | bit, none & sides[0], every & sides[1]
            nxt = cand[:]
            for b, x in tied[a]:  # fixed entries bind an empty b too
                if not members[b][0]:
                    nxt[b] &= sides[x]
            if own or aa < fixed:
                nxt[a] &= members[a][1 + (here >> aa & 1)]
            if cut:  # one letter per class
                nxt = [m & cut[b != a] for b, m in enumerate(nxt)]
            if own:  # a join: each entry to a letter with members is set
                after, before, out, into = 0, 0, here >> ak, here >> a
                for b, m in enumerate(members):
                    if b == a or not m[0]:
                        continue
                    x = out >> b & 1
                    if x != into >> b * k & 1:
                        after |= m[0] & sides[x]
                        before |= m[0] & sides[1 - x]
                    else:
                        nxt[b] &= sides[x]
                choices = (here, nxt, after, before),
            else:  # an opening: a's options with each letter b with members
                choices = [(here, nxt, 0, 0)]
                for b, table in options[a]:
                    m = members[b]
                    if not m[0]:
                        continue
                    split, grown = (m[0] & sides[0], m[0] & sides[1]), []
                    for now, base, after, before in choices:
                        for x, y, bits in table:
                            if x != y:
                                grown.append((now | bits, base, after |
                                              split[x], before | split[y]))
                            elif m[1 + x] >> v & 1:  # b's members on side x
                                eq = base[:]
                                eq[b] &= sides[x]
                                eq[a] &= m[1 + x]
                                grown.append((now | bits, eq, after, before))
                    choices = grown
            for now, nxt, after, before in choices:
                run.nodes += 1
                rest = after  # close after: add succ[u] for each u in it
                while rest:
                    low = rest & -rest
                    after |= succ[low.bit_length() - 1]
                    rest ^= low
                if after & before:
                    continue  # the forced order has a cycle
                nsucc, npred = succ, pred
                if after | before:
                    nsucc, npred, rest = succ[:], pred[:], before
                    while rest:  # close before: add pred[u] for each u
                        low = rest & -rest
                        before |= pred[low.bit_length() - 1]
                        rest ^= low
                    rest = before  # before precedes v and after
                    while rest:
                        low = rest & -rest
                        nsucc[low.bit_length() - 1] |= after | bit
                        rest ^= low
                    rest = after  # after follows before and v
                    while rest:
                        low = rest & -rest
                        npred[low.bit_length() - 1] |= before | bit
                        rest ^= low
                    nsucc[v], npred[v] = after, before
                hit = place(now, placed | bit, near | row, nxt, nsucc, npred)
                if hit is not None:
                    return hit
            members[a] = own, none, every
            # v's images; with no fixed entry the root tries one letter
            same = twins and (twins[v] & left if placed else
                              fixed and _canonical(g)[2][0])
            if same:  # none of them takes a
                cand = cand[:]  # an opening's choices share one cand list
                cand[a] &= ~same
        return None

    def search(placed: int, cand: list[int]):
        members[:] = [(0, full, full)] * k  # a hit left the last one's
        return place(prefix, placed, 0, cand, [0] * n, [0] * n)

    return search


@functools.lru_cache(maxsize=None)
def _reference_tables(k: int, prefix: int, fixed: int) -> tuple:
    """The tables ``_reference_placements`` reads, as ``solver._tables``
    built them before: each letter's column of fixed entries, (a, a*k,
    a*k + a) per letter in letter and in clique-last order, the fixed
    pairs of equal entries per letter, and the options of opening a
    letter beside each other letter."""
    known = (1 << fixed) - 1
    stride = ((1 << k * k) - 1) // ((1 << k) - 1)  # bit i*k for each row i
    column = tuple(prefix >> a & stride | (known >> a & stride) << k * k
                   for a in range(k))
    tied = tuple(tuple((b, prefix >> a * k + b & 1) for b in range(k)
                       if b != a
                       and known >> a * k + b & known >> b * k + a & 1
                       and prefix >> a * k + b & 1 == prefix >> b * k + a & 1)
                 for a in range(k))
    given = [(prefix >> e & 1,) if known >> e & 1 else (0, 1)
             for e in range(k * k)]  # the values entry e may take
    options = tuple(tuple(
        (b, tuple((x, y, x << a * k + b | y << b * k + a)
                  for y in given[b * k + a] for x in given[a * k + b]))
        for b in range(k) if b != a) for a in range(k))
    letters = tuple((a, a * k, a * k + a) for a in range(k))
    return column, letters, letters[1:] + letters[:1], tied, options


def _same_placements(g: Graph, k: int, prefix: int, fixed: int,
                     cuts, placed: int, cand: list[int]) -> None:
    """Both searches from one start state give the same code and count
    the same placements, or no more where the mirror rule acts."""
    new, ref = Run(), Run()
    got = solver._placements(g, k, prefix, fixed, cuts, new, placed, cand[:])
    want = _reference_placements(g, k, prefix, fixed, cuts, ref)(placed,
                                                                  cand[:])
    assert (got, new.decoders_tried) == (want, ref.decoders_tried)
    _same_or_mirror_pruned(fixed, new.nodes, ref.nodes)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.just(0) | st.integers(1, 3),
       st.sampled_from([random_graph, _twin_rich_graph, _symmetric_graph]),
       st.randoms(use_true_random=False))
def test_placements_match_reference(n, k, n_classes, draw, rnd):
    # from the empty state, with any prefix and number of fixed entries;
    # then, once a code fits, from the start states of the completion
    # checks that a word search under it makes
    g = random_graph(rnd, n, rnd.random()) if draw is random_graph else \
        draw(rnd)
    fixed, prefix = rnd.randint(0, k * k), rnd.getrandbits(k * k)
    classes = _uniform_classes(g, rnd, n_classes)
    cuts = _cuts(g, classes)
    full = (1 << g.n) - 1
    try:
        with Run(2):
            _same_placements(g, k, prefix, fixed, cuts, 0, [full] * k)
            code = solver._fits(g, k, prefix, fixed, cuts, Run())
            if code is None:
                return
            for placed, cand in _check_states(g, k, code, classes)[:20]:
                _same_placements(g, k, code, k * k, cuts, placed, cand)
    except BudgetExceeded:
        reject()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 4), st.just(0) | st.integers(1, 3),
       st.sampled_from([random_graph, _twin_rich_graph, _symmetric_graph]),
       st.booleans(), st.randoms(use_true_random=False))
def test_mirror_pruned_decision_returns_the_unpruned_code(n, k, n_classes,
                                                          draw, question,
                                                          rnd):
    # a decision, or the descent's question about entry (0, 0): the starts
    # whose fixed entries are closed under transposition, where the mirror
    # rule drops choices; the unpruned reference has the same nogoods
    g = random_graph(rnd, n, rnd.random()) if draw is random_graph else \
        draw(rnd)
    classes = _uniform_classes(g, rnd, n_classes)
    cuts = _cuts(g, classes)
    try:
        with Run(2):
            new, ref = Run(), Run()  # under the enclosing deadline
            got = solver._fits(g, k, 0, int(question), cuts, new)
            want = _reference_placements(g, k, 0, int(question), cuts, ref)(
                0, [(1 << g.n) - 1] * k)
    except BudgetExceeded:
        reject()
    assert got == want
    assert new.nodes <= ref.nodes


def test_mirror_rule_halves_the_exhausted_decisions():
    # R3 and 5K2 at k = 4: below the root's few symmetric placements,
    # each choice with an asymmetric pair has its mirror, so the rule drops
    # about half of the placements (12,029 to 6017 and 16,162 to 8090)
    for g, k in ((stacked_path(3)[0], 4), (matching(5), 4)):
        new, ref = Run(), Run()
        cuts = [None] * g.n
        assert solver._fits(g, k, 0, 0, cuts, new) is None
        assert _reference_placements(g, k, 0, 0, cuts, ref)(
            0, [(1 << g.n) - 1] * k) is None
        assert ref.nodes < 2 * new.nodes <= ref.nodes * 1.01


def test_mirror_rule_keeps_openings_with_both_orientations():
    # each first fitting code at k = 3 opens letter 2 with (1, 0) to letter
    # 0 and (0, 1) to letter 1, a choice whose mirror is dropped but which
    # itself is kept: only a choice whose first asymmetric pair is (0, 1)
    # has its mirror tried before it
    for rows, code in (((102, 53, 107, 116, 106, 31, 29), 379),
                       ((156, 144, 217, 149, 207, 128, 20, 63), 123),
                       ((90, 109, 26, 39, 5, 10, 3), 122)):
        g = Graph(len(rows), rows)
        assert solver._fits(g, 3, 0, 0, [None] * g.n, Run()) == code


def _tuples_of_ints(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_tuples_of_ints, value))
    return type(value) is int


def test_shared_tables_give_the_same_reports_cold_and_warm(monkeypatch):
    # every search with the same (k, prefix, fixed) shares one copy of the
    # tables, so the reports must not depend on what was cached before,
    # and no table may be a list a search could change under the next one
    built, real = [], solver._tables.__wrapped__

    def build(*key):
        built.append(real(*key))
        return built[-1]

    tables = functools.lru_cache(
        maxsize=solver._tables.cache_parameters()["maxsize"])(build)
    monkeypatch.setattr(solver, "_tables", tables)
    queries = [(_relabelled(cycle(8), random.Random(8)), 4, None),
               (stacked_path(2)[0], 4, claims.r2_four_classes()),
               (matching(3), 2, None)]

    def report(g, k, constraint):
        r = is_k_letterable(g, k, constraint)
        return r.outcome, r.lettering, r.decoders_tried, r.nodes_expanded

    cold = []
    for query in queries:
        tables.cache_clear()
        cold.append(report(*query))
    assert [r[0] for r in cold] == ["found", "exhausted", "exhausted"]
    assert cold[0][2] > 1  # the descent asked questions too
    tables.cache_clear()  # later queries reuse earlier queries' tables
    assert [report(*query) for query in queries] == cold
    misses = tables.cache_info().misses
    assert [report(*query) for query in queries] == cold
    assert tables.cache_info().misses == misses  # every table was warm
    assert built and all(map(_tuples_of_ints, built))


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_of_vertex_0_matches_brute_force(n):
    # every vertex's orbit, as _canonical gives them, on each graph and two
    # relabellings; the solver's root nogoods read vertex 0's
    rnd = random.Random(n)
    for g in all_graphs(n):
        for h in g, _relabelled(g, rnd), _relabelled(g, rnd):
            want = [0] * n
            for perm in itertools.permutations(range(n)):
                if all(sum(1 << perm[w] for w in h.neighbors(u))
                       == h.rows[perm[u]] for u in range(n)):
                    for v in range(n):
                        want[v] |= 1 << perm[v]
            assert _canonical(h)[2] == tuple(want), h


def _nx_orbits(g: Graph) -> tuple[int, ...]:
    """Each vertex's orbit under Aut(g) by networkx: w joins v's orbit if
    some automorphism maps v to w, that is g with v marked is isomorphic
    to g with w marked. A graph and its complement have the same
    automorphisms, and the sparser one is searched (VF2 is slow on dense
    graphs)."""
    nx = pytest.importorskip("networkx")
    matcher = nx.algorithms.isomorphism.GraphMatcher
    if 2 * g.edge_count() > g.n * (g.n - 1) // 2:
        g = g.complement()
    orbits = [1 << v for v in range(g.n)]
    for v, w in itertools.combinations(range(g.n), 2):
        if orbits[v] >> w & 1:
            continue
        one, two = nx.Graph(g.edges()), nx.Graph(g.edges())
        one.add_nodes_from(range(g.n), pin=False)
        two.add_nodes_from(range(g.n), pin=False)
        one.nodes[v]["pin"] = two.nodes[w]["pin"] = True
        if matcher(one, two, node_match=operator.eq).is_isomorphic():
            merged = orbits[v] | orbits[w]
            for u in range(g.n):
                if merged >> u & 1:
                    orbits[u] = merged
    return tuple(orbits)


def test_orbits_match_networkx_on_symmetric_graphs():
    nx = pytest.importorskip("networkx")
    from tests.solver_timing import SYMMETRIC
    rnd = random.Random(12)
    cube = nx.convert_node_labels_to_integers(nx.hypercube_graph(3))
    graphs = [SYMMETRIC[name]() for name in ("C12", "icosahedron",
                                             "rook3x4", "R3")]
    graphs += [matching(4), Graph.from_edges(8, cube.edges()),
               Graph.from_edges(10, nx.petersen_graph().edges())]
    for g in graphs:
        h = _relabelled(g, rnd)
        assert _canonical(h)[2] == _nx_orbits(h), h


def test_orbits_of_vertex_transitive_twelve_vertex_graphs():
    # vertex-transitive, so each has one orbit of all 12 vertices
    from tests.solver_timing import SYMMETRIC
    for g in matching(6), co_matching(6), SYMMETRIC["crown6"]():
        assert _canonical(g)[2] == ((1 << 12) - 1,) * 12, g


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.booleans(), st.randoms(use_true_random=False))
def test_orbits_match_networkx(n, symmetric, rnd):
    g = _symmetric_graph(rnd) if symmetric else random_graph(rnd, n,
                                                             rnd.random())
    assert _canonical(g)[2] == _nx_orbits(g), g


@pytest.mark.parametrize("n", range(1, 7))
def test_twins_match_their_definition(n):
    for g in all_graphs(n):
        assert solver._twins(g) == tuple(
            sum(1 << u for u in range(n) if u != v and
                g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u))
            for v in range(n)), g


# -- decoder generation against the brute-force table it replaced ----------

def _code_matrix(code: int, k: int) -> tuple[int, ...]:
    """Decoder matrix (row bitmasks) of a row-major code whose most
    significant bit is entry (0, 0), so integer order on codes equals
    lexicographic order on the flattened matrices."""
    top = k * k - 1
    return tuple(sum((code >> (top - i * k - j) & 1) << j for j in range(k))
                 for i in range(k))


def _matrix_code(matrix: tuple[int, ...], k: int) -> int:
    top = k * k - 1
    return sum((matrix[i] >> j & 1) << (top - i * k - j)
               for i in range(k) for j in range(k))


def _reference_canonical_codes(k: int) -> tuple[int, ...]:
    """Codes of all k x k binary matrices that are lexicographically least
    in their orbit under simultaneous row/column permutation, by brute
    force over all 2^(k*k) codes and all permutations."""
    maps = [[sigma[i] * k + sigma[j] for i in range(k) for j in range(k)]
            for sigma in itertools.permutations(range(k))][1:]
    out = []
    top = k * k - 1
    for code in range(1 << (k * k)):
        # bit (i, j) of the permuted matrix comes from (sigma[i], sigma[j])
        if all(sum((code >> (top - src[dst]) & 1) << (top - dst)
                   for dst in range(k * k)) >= code for src in maps):
            out.append(code)
    return tuple(out)


def _burnside_orbits(k: int) -> int:
    """Orbits of k x k binary matrices under simultaneous row/column
    permutation: sigma fixes 2^c matrices, c being its number of cycles on
    the k^2 entries; cycles of lengths a and b share gcd(a, b) of them."""
    total = 0
    for sigma in itertools.permutations(range(k)):
        lengths, seen = [], set()
        for start in range(k):
            length, i = 0, start
            while i not in seen:
                seen.add(i)
                i = sigma[i]
                length += 1
            if length:
                lengths.append(length)
        total += 2 ** sum(math.gcd(a, b) for a in lengths for b in lengths)
    return total // math.factorial(k)


def _least_in_orbit(matrix: tuple[int, ...], k: int) -> bool:
    code = _matrix_code(matrix, k)
    return all(_matrix_code(tuple(sum((matrix[s[i]] >> s[j] & 1) << j
                                      for j in range(k)) for i in range(k)),
                            k) >= code
               for s in itertools.permutations(range(k)))


@pytest.mark.parametrize("k, codes", [
    (1, range(1 << 1)), (2, range(1 << 4)), (3, range(1 << 9)),
    (4, range(0, 1 << 16, 97)), (5, range(0, 1 << 25, 99991))],
    ids=["k1", "k2", "k3", "k4-sample", "k5-sample"])
def test_least_renaming_is_least_in_orbit(k, codes):
    # the solver's bit a*k + b is entry (a, b) and bit 0 decides first,
    # the order _least_in_orbit compares in
    def matrix(code):
        return tuple(code >> a * k & (1 << k) - 1 for a in range(k))

    for code in codes:
        least, start = matrix(solver._least_renaming(code, k)), matrix(code)
        assert least in {tuple(sum((start[s[i]] >> s[j] & 1) << j
                                   for j in range(k)) for i in range(k))
                         for s in itertools.permutations(range(k))}
        assert _least_in_orbit(least, k)


def test_generator_matches_brute_force_table():
    for k in range(1, 5):
        want = tuple(_code_matrix(c, k) for c in _reference_canonical_codes(k))
        assert tuple(_canonical_matrices(k)) == want
        assert _kept_matrices(k) == want
        assert len(want) == _burnside_orbits(k)
    assert [_burnside_orbits(k) for k in range(1, 5)] == [2, 10, 104, 3044]


def test_generator_k5_count_and_order():
    codes = [_matrix_code(m, 5) for m in _canonical_matrices(5)]
    assert all(a < b for a, b in zip(codes, codes[1:]))
    assert len(codes) == _burnside_orbits(5) == 291968
    # a sample is least in its orbit, so none was yielded in place of a
    # canonical matrix
    assert all(_least_in_orbit(_code_matrix(c, 5), 5) for c in codes[::997])


def _full_space(k: int):
    """The enumeration k = 5 used before orderly generation: every code,
    with no symmetry reduction."""
    return (_code_matrix(code, k) for code in range(1 << (k * k)))


@pytest.mark.parametrize("g, tried", [
    (bull(), 15), (cycle(5), 79), (matching(2), 14)],
    ids=["bull", "C5", "2K2"])
def test_k5_search_matches_full_space(g, tried):
    # the full space tried 38, 173 and 37 decoders
    new, new_tried = _decoder_walk(g, 5, matrices=_canonical_matrices(5))
    old, old_tried = _decoder_walk(g, 5, matrices=_full_space(5))
    assert new is not None and new == old
    assert new_tried == tried < old_tried
    assert is_k_letterable(g, 5).lettering == new


def test_k5_exhaustion_stops_at_its_budget():
    # R3 has no 5-lettering; the full search takes about a second
    start = time.monotonic()
    with Run(0.2), pytest.raises(BudgetExceeded):
        is_k_letterable(stacked_path(3)[0], 5)
    assert time.monotonic() - start < 3.0
