import json
import time
from types import SimpleNamespace

import pytest

from letterkit import (bull, composer, cycle, from_graph6, is_isomorphic,
                       matching, max_induced_matching, max_stacked_path,
                       path, solver, stacked_path, to_graph6)
from letterkit.cli import main
from tests import startup_timing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_stacked_graph6(capsys):
    code, out, _ = run(capsys, "gen", "--family", "stacked", "--n", "2")
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n == 8 and g.edge_count() == 14


def test_gen_json_includes_labels(capsys):
    code, out, _ = run(capsys, "gen", "--family", "stacked", "--n", "1",
                       "--json")
    obj = json.loads(out)
    assert code == 0 and obj["n"] == 4
    assert obj["labels"][0] == ["s", 1, 1]


def test_gen_threshold_sequence(capsys):
    code, out, _ = run(capsys, "gen", "--family", "threshold", "--seq", "iid")
    assert code == 0
    assert is_isomorphic(from_graph6(out.strip()), path(3))


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "--family", "matching", "--n", "1",
                       "--dot")
    assert code == 0 and "0 -- 1;" in out


def test_gen_missing_argument_is_a_usage_error(capsys):
    for family in ("path", "stacked"):
        code, out, err = run(capsys, "gen", "--family", family)
        assert code == 2 and out == ""
        assert err == f"error: family {family!r} needs a size n\n"
    code, _, err = run(capsys, "gen", "--family", "threshold")
    assert code == 2 and "needs a creation sequence" in err


def test_gen_threshold_bad_sequence_is_a_usage_error(capsys):
    code, out, err = run(capsys, "gen", "--family", "threshold", "--seq", "ix")
    assert code == 2 and out == "" and "must be over i/d" in err


def test_gen_bull(capsys):
    code, out, _ = run(capsys, "gen", "--family", "bull")
    assert code == 0 and from_graph6(out.strip()) == bull()


def test_decode(capsys):
    code, out, _ = run(capsys, "decode", "--decoder", "ba",
                       "--word", "baba")
    assert code == 0
    assert is_isomorphic(from_graph6(out.strip()), path(4))


def test_lettericity_file_and_stdin(tmp_path, capsys, monkeypatch):
    f = tmp_path / "m3.g6"
    f.write_text(to_graph6(matching(3)) + "\n")
    code, out, _ = run(capsys, "lettericity", str(f))
    assert code == 0 and out.strip() == "3"
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(matching(2))))
    code, out, _ = run(capsys, "lettericity", "-")
    assert code == 0 and out.strip() == "2"


def test_lettericity_json_roundtrips(tmp_path, capsys):
    f = tmp_path / "p4.g6"
    f.write_text(to_graph6(path(4)))
    code, out, _ = run(capsys, "lettericity", str(f), "--json")
    obj = json.loads(out)
    assert code == 0 and obj["lettericity"] == 2
    from letterkit import lettering_from_json, verify
    lett = lettering_from_json(json.dumps(obj["lettering"]))
    assert verify(path(4), lett)


def test_single_k_check_with_classes(tmp_path, capsys):
    g, labels = stacked_path(2)
    f = tmp_path / "r2.g6"
    f.write_text(to_graph6(g))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([
        [labels.id_of("s", 1, 1), labels.id_of("s", 2, 1)],
        [labels.id_of("c", 1, 1), labels.id_of("c", 2, 1)],
        [labels.id_of("c", 1, 2), labels.id_of("c", 2, 2)],
        [labels.id_of("s", 1, 2), labels.id_of("s", 2, 2)],
    ]))
    code, out, _ = run(capsys, "lettericity", str(f), "--max-k", "4",
                       "--classes", str(classes))
    obj = json.loads(out)
    assert code == 0 and obj["outcome"] == "exhausted"


@pytest.mark.parametrize("data", [{"a": 1}, [[0, "x"]], [0, 1], [[True, 1]]],
                         ids=["dict", "string-id", "flat-list", "bool-id"])
def test_malformed_classes_are_a_usage_error(tmp_path, capsys, data):
    f = tmp_path / "p4.g6"
    f.write_text(to_graph6(path(4)))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(data))
    code, out, err = run(capsys, "lettericity", str(f), "--max-k", "2",
                         "--classes", str(classes))
    assert code == 2 and out == ""
    assert "list of lists of vertex ids" in err


def test_a_class_id_outside_the_graph_is_a_usage_error(tmp_path, capsys):
    # the mixed class [0, 1, 2] comes first, and alone would exhaust
    f = tmp_path / "p4.g6"
    f.write_text(to_graph6(path(4)))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([[0, 1, 2], [4]]))
    code, out, err = run(capsys, "lettericity", str(f), "--max-k", "2",
                         "--classes", str(classes))
    assert code == 2 and out == "" and "bad vertex ids" in err


def test_lettericity_of_the_empty_graph_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "empty.g6"
    f.write_text("?")
    code, out, err = run(capsys, "lettericity", str(f))
    assert code == 2 and out == "" and "graph must be nonempty" in err


def test_decompose(tmp_path, capsys):
    f = tmp_path / "m2.g6"
    f.write_text(to_graph6(matching(2)))
    code, out, _ = run(capsys, "decompose", str(f))
    obj = json.loads(out)
    assert code == 0 and obj["modules"] == [[0, 1], [2, 3]]
    code, out, _ = run(capsys, "decompose", str(f), "--tree")
    assert code == 0 and json.loads(out)["n"] == 4


def test_profile(tmp_path, capsys):
    f = tmp_path / "m2.g6"
    f.write_text(to_graph6(matching(2)))
    code, out, _ = run(capsys, "profile", str(f), "--m", "2")
    obj = json.loads(out)
    assert code == 0
    assert (obj["p"], obj["q"], obj["r"]) == (3, 2, 1)
    assert "f_paper" in obj and "F_impl" in obj
    for g in (path(13), cycle(13)):  # prime, past the solver's guard
        f.write_text(to_graph6(g))
        code, out, _ = run(capsys, "profile", str(f))
        assert code == 0
        assert json.loads(out) == {
            "p": max_induced_matching(g)[0] + 1,
            "q": max_induced_matching(g.complement())[0] + 1,
            "r": max_stacked_path(g)[0] + 1}


def test_compose_cli(tmp_path, capsys):
    f = tmp_path / "m2.g6"
    f.write_text(to_graph6(matching(2)))
    code, out, _ = run(capsys, "compose", str(f), "--json")
    obj = json.loads(out)
    assert code == 0 and obj["alphabet_size"] == 2


def test_compose_cli_raises_its_soundness_guard(tmp_path, capsys,
                                                monkeypatch):
    # compose verifies its own lettering before it returns
    f = tmp_path / "p4.g6"
    f.write_text(to_graph6(path(4)))
    monkeypatch.setattr(composer, "verify", lambda graph, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        main(["compose", str(f)])


def test_lettericity_cli_raises_its_soundness_guard(tmp_path, monkeypatch):
    # a word search that finds no word is a solver defect, not a usage error
    f = tmp_path / "p4.g6"
    f.write_text(to_graph6(path(4)))
    monkeypatch.setattr(solver, "_search_word", lambda *args: None)
    with pytest.raises(AssertionError, match="failed verification"):
        main(["lettericity", str(f)])


def test_compose_past_52_letters_exits_0(tmp_path, capsys):
    # 60K2 needs 60 letters; letters past Z are written a1, b1, ...
    f = tmp_path / "m60.g6"
    f.write_text(to_graph6(matching(60)))
    code, out, err = run(capsys, "compose", str(f))
    assert code == 0 and err == ""
    assert out.startswith("alphabet_size=60 ")


def test_cli_keeps_the_solver_scale_guards(tmp_path, capsys):
    def graph_file(name, g):
        f = tmp_path / name
        f.write_text(to_graph6(g))
        return str(f)

    p4, p13 = graph_file("p4.g6", path(4)), graph_file("p13.g6", path(13))
    code, out, err = run(capsys, "lettericity", p4, "--max-k", "6")
    assert code == 2 and out == "" and "k <= 5" in err
    for command in ("lettericity", "compose"):
        code, out, err = run(capsys, command, p13)
        assert code == 2 and out == "" and "n <= 12" in err
    # n = 14, but no prime quotient: the guard applies to prime quotients
    code, out, _ = run(capsys, "compose", graph_file("m7.g6", matching(7)))
    assert code == 0 and out.startswith("alphabet_size=")


def test_verify_paper_fast_suites(capsys):
    code, out, _ = run(capsys, "verify-paper", "--suite",
                       "prop41,dualities,prop41")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [entry["check"] for entry in lines] == ["dualities", "prop41"]
    assert all(entry["status"] == "pass" for entry in lines)


def test_verify_paper_default_run_results(capsys):
    # every check with the default seed; only the timings may change
    code, out, _ = run(capsys, "verify-paper")
    lines = [json.loads(line) for line in out.strip().splitlines()]
    for entry in lines:
        del entry["elapsed"]
    assert code == 0
    assert lines == [
        {"check": "dualities", "graphs_checked": 52, "status": "pass"},
        {"check": "prop41", "status": "pass"},
        {"check": "prop43", "decoders_tried": 1,
         "nodes_expanded": 79, "status": "pass"},
        {"check": "thm32", "vertices_checked": 2000, "status": "pass"},
        {"check": "thm51", "graphs_checked": 233, "status": "pass"},
    ]


def test_verify_paper_elapsed_is_the_suites_run(capsys, monkeypatch):
    # a fake clock that stands still but for two seconds per solve
    from letterkit import solver
    clock, real = [0], solver.is_k_letterable
    monkeypatch.setattr("letterkit.run.time",
                        SimpleNamespace(monotonic=lambda: clock[0]))

    def timed(*args):
        clock[0] += 2
        return real(*args)

    monkeypatch.setattr(solver, "is_k_letterable", timed)
    code, out, _ = run(capsys, "verify-paper", "--suite", "prop41")
    assert code == 0 and clock[0] > 0
    assert json.loads(out) == {"check": "prop41", "status": "pass",
                               "elapsed": clock[0]}


def test_verify_paper_unknown_suite(capsys):
    code, _, err = run(capsys, "verify-paper", "--suite", "nope")
    assert code == 2 and "unknown suite" in err


def test_verify_paper_rejects_an_empty_suite(capsys):
    code, out, err = run(capsys, "verify-paper", "--suite", "")
    assert code == 2 and out == "" and "unknown suite ''" in err


def test_verify_paper_budget_exhaustion(capsys):
    code, out, _ = run(capsys, "verify-paper", "--suite", "prop43",
                       "--budget", "1e-9")
    assert code == 1
    entry = json.loads(out.strip().splitlines()[-1])
    assert entry["status"] == "budget-exhausted"


def _record_solver_time_left(monkeypatch, pause=0.0):
    """Wrap solver.is_k_letterable (lettericity and compose reach it too);
    returns the list of seconds each call has left before the deadline it
    runs under (None for no deadline). Each call first sleeps ``pause``
    seconds."""
    from letterkit import solver
    left = []
    real = solver.is_k_letterable

    def recording(*args, **kwargs):
        deadline = solver.Run().deadline
        left.append(None if deadline is None else
                    deadline - time.monotonic())
        time.sleep(pause)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "is_k_letterable", recording)
    return left


def test_verify_paper_hands_each_solve_the_time_left(capsys, monkeypatch):
    left = _record_solver_time_left(monkeypatch)
    code, out, _ = run(capsys, "verify-paper", "--suite",
                       "dualities,prop41,prop43,thm51", "--budget", "600")
    assert code == 0
    assert all(json.loads(line)["status"] == "pass"
               for line in out.strip().splitlines())
    assert left and all(b is not None and 0 < b <= 600 for b in left)


def test_verify_paper_budget_runs_out_inside_a_check(capsys, monkeypatch):
    # prop41 makes four solver calls; at 0.1 s each the 0.25 s budget
    # runs out inside the check, not between checks
    left = _record_solver_time_left(monkeypatch, pause=0.1)
    code, out, _ = run(capsys, "verify-paper", "--suite", "prop41",
                       "--budget", "0.25")
    assert code == 1
    assert json.loads(out)["status"] == "budget-exhausted"
    assert left and all(b <= 0.25 for b in left)


@pytest.mark.parametrize("argv", [
    ("lettericity", "--max-k", "4", "--budget", "1e-9"),
    ("compose", "--budget", "1e-9"),
])
def test_cli_budget_exhaustion(tmp_path, capsys, argv):
    f = tmp_path / "r3.g6"
    f.write_text(to_graph6(stacked_path(3)[0]))
    code, out, _ = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 1
    assert json.loads(out)["status"] == "budget-exhausted"


def test_verify_paper_rejects_a_nan_budget(capsys):
    code, out, err = run(capsys, "verify-paper", "--suite", "prop41",
                         "--budget", "nan")
    assert code == 2 and out == "" and "NaN" in err
    code, out, _ = run(capsys, "verify-paper", "--suite", "prop41",
                       "--budget", "-1")
    assert code == 1
    assert json.loads(out)["status"] == "budget-exhausted"


def test_lettericity_rejects_an_overlong_graph6_payload(tmp_path, capsys):
    f = tmp_path / "k2.g6"
    f.write_text("A_???\n")
    code, out, err = run(capsys, "lettericity", str(f))
    assert code == 2 and out == "" and "wrong length" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "lettericity", "/nonexistent/file.g6")[0] == 2
    assert main(["gen", "--family", "nope"]) == 2
    # flags that changed nothing are gone
    assert main(["gen", "--family", "path", "--n", "3", "--g6"]) == 2
    assert main(["compose", "-", "--verify"]) == 2


def test_malformed_graph6(tmp_path, capsys):
    f = tmp_path / "bad.g6"
    f.write_text("B")
    code, _, err = run(capsys, "lettericity", str(f))
    assert code == 2 and "error" in err


# -- what each CLI process loads --------------------------------------------
# each runs in a fresh process, where nothing of letterkit is loaded yet

_SEARCH_MODULES = {"letterkit.composer", "letterkit.modular",
                   "letterkit.solver", "letterkit.letters",
                   "letterkit.obstructions"}


def test_importing_the_cli_loads_no_search_module():
    _, out = startup_timing.spawn(startup_timing.IMPORT)
    added = set(out.split()[1:])
    assert "letterkit.cli" in added
    assert not _SEARCH_MODULES & added


@pytest.mark.parametrize("suite, unloaded", [
    ("thm32", {"letterkit.solver", "letterkit.composer"}),
    ("dualities", {"letterkit.composer", "letterkit.modular"})])
def test_a_suite_loads_only_the_modules_it_runs(suite, unloaded):
    line, modules = startup_timing.run_suite(suite)
    assert json.loads(line)["status"] == "pass"
    assert "letterkit.claims" in modules
    assert not unloaded & set(modules)
