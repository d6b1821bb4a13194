import json
import os
import re

from tests import bench_record


def test_bench_record_writes_every_field_on_a_short_run():
    # one workload, two untraced runs of three passes each, one query and
    # the first item's opcodes, through JSON as the file holds them: the
    # fields a full recording writes
    data = json.loads(json.dumps(bench_record.record(
        bench_record.ROOT, workloads=["exact"], runs=2, seconds=0,
        queries=["r3-k4"], items=1, startup_runs=2)))
    with open(os.path.join(bench_record.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(data) == {"commit", "dirty", "python", "dont_write_bytecode",
                         "seed", "runs", "seconds", "end_to_end",
                         "per_layer", "solver_timing", "startup",
                         "bytecodes", "source_tokens"}
    assert data["commit"] is None or re.fullmatch("[0-9a-f]{40}",
                                                  data["commit"])
    assert (data["seed"], data["runs"]) == (1, 2)
    e2e = data["end_to_end"]["exact"]
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]} | \
        {"failed_frac"}
    assert e2e.pop("failed_frac") == [0.0, 0.0]
    for metric in e2e.values():
        assert len(metric["values"]) == 2
        assert metric["q1"] <= metric["median"] <= metric["q3"]
    layers = data["per_layer"]["exact"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]} | \
        {"failed_frac"}
    assert layers["failed_frac"] == 0 and layers["solver.nodes_expanded"] > 0
    query = data["solver_timing"]["r3-k4"]
    assert (query["outcome"], query["decoders"]) == ("exhausted", 1)
    collected = query["gc"]
    assert set(collected) == {"collections", "s"}
    assert collected["collections"] >= 0 and collected["s"] >= 0
    assert collected["s"] == 0 or collected["collections"] > 0
    assert len(data["startup"]["import_ms"]) == 3
    assert data["startup"]["runs"] == 2
    counted = data["bytecodes"]["exact"]
    assert set(counted) == {"items", "total", "warm_total", "outputs"}
    assert counted["items"] == 1 and counted["total"] > 0
    assert re.fullmatch("[0-9a-f]{64}", counted["outputs"])
    tokens = data["source_tokens"]
    package = os.path.join(bench_record.ROOT, "src", "letterkit")
    assert set(tokens) == {name for name in os.listdir(package)
                           if name.endswith(".py")}
    assert all(type(count) is int and count > 0 for count in
               tokens.values())


def test_source_tokens_skip_comments_and_blank_lines(tmp_path):
    # the count the parser sees: a comment, a blank line or a docstring's
    # length moves nothing, another operand does
    package = tmp_path / "src" / "letterkit"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\nx = 1\n')
    (package / "b.py").write_text('"""A longer doc."""\n\n# note\n'
                                  'x = 1  # note\n')
    (package / "c.py").write_text('"""Doc."""\nx = y + 1\n')
    (package / "notes.txt").write_text("x = 1\n")
    counts = bench_record.source_tokens(str(tmp_path))
    assert counts == {"a.py": 7, "b.py": 7, "c.py": 9}


def test_bench_record_reads_the_default_queries_of_the_recorded_checkout():
    # the recorded checkout's own tests.solver_timing names them, so a
    # recording of another checkout never asks for queries it lacks
    from tests.solver_timing import OPT_IN, QUERIES
    queries = bench_record._run(bench_record.ROOT, [
        "-c", bench_record.DEFAULT_QUERIES])[-1]["queries"]
    assert queries == [q for q in QUERIES if q not in OPT_IN and
                       q != "5k2-k5"]


def test_bench_compare_prints_medians_pairs_exact_figures_and_warnings(
        tmp_path, capsys):
    # two small synthetic recordings, read back from their files
    from tests import bench_compare

    def recording(python, wall, tokens, thm32):
        return {"commit": None, "dirty": None, "python": python,
                "dont_write_bytecode": True, "seed": 1, "runs": 3,
                "seconds": 20.0, "end_to_end": {"exact": {
                    "wall_s": bench_record._summary(wall),
                    "failed_frac": [0.0] * 3}},
                "bytecodes": {"exact": {"total": 10, "warm_total": 5,
                                        "outputs": "ab" * 32}},
                "solver_timing": {"r3-k4": {"decoders": 1, "nodes": 5311}},
                "source_tokens": tokens,
                "startup": {"suite_modules": {"thm32": thm32}}}
    old = recording("3.11.7", [1.0, 2.0, 3.0], {"graphs.py": 4719},
                    ["letterkit.graphs"])
    new = recording("3.12.0", [0.5, 2.5, 1.5],
                    {"_graph_core.py": 1167, "graphs.py": 3575},
                    ["letterkit._graph_core", "letterkit.graphs"])
    paths = []
    for name, data in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        with open(paths[-1], "w") as fh:
            json.dump(data, fh)
    bench_compare.main(paths)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["warning: a file has no commit",
                         "warning: python differs: '3.11.7' against "
                         "'3.12.0'"]
    assert "exact / wall_s: 2 [1.5, 2.5], 1.5 [1, 2], -25.0 %, 2/3" in lines
    assert "  exact: (10, 5, 'abababab') -> (10, 5, 'abababab')" in lines
    assert "  r3-k4: (1, 5311, '-') -> (1, 5311, '-')" in lines
    assert "* _graph_core.py: - -> 1167" in lines
    assert "* graphs.py: 4719 -> 3575" in lines
    assert lines[-1] == \
        "thm32 loads letterkit._graph_core more and nothing less"
