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
                         "bytecodes"}
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


def test_bench_record_reads_the_default_queries_of_the_recorded_checkout():
    # the recorded checkout's own tests.solver_timing names them, so a
    # recording of another checkout never asks for queries it lacks
    from tests.solver_timing import OPT_IN, QUERIES
    queries = bench_record._run(bench_record.ROOT, [
        "-c", bench_record.DEFAULT_QUERIES])[-1]["queries"]
    assert queries == [q for q in QUERIES if q not in OPT_IN and
                       q != "5k2-k5"]
