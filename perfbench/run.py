"""letterkit benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

A run times a fixed number of passes over the workload's items, which it
draws from the seed. Each pass is a fresh child process that sets up (the
import, the inputs, the first-use decoder tables), reports ready, runs
every item once and reports each item's time and output. No state is
carried from one pass into the next. The run checks every output.

Each child runs on one CPU. Between items, an untraced pass times slices
of a fixed reference kernel (``reference.py``: small pure-Python searches
and loops). The host is shared and changes speed by up to 2x for seconds
to minutes; the kernel slows with it. Each time of a pass is scaled to a
host on which a slice takes ``REF_NOMINAL_S``, so the end-to-end timings
read in seconds of that reference host. The raw times are on the info
line.

With ``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``.
With ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics. The last line of standard output is the result as
one JSON object; the line before it records the seed, the item and pass
counts, the raw times and the reference kernel's time. Spans of the first
traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from reference import reference_slice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RUN_PY = os.path.abspath(__file__)
# name -> (seconds of one pass, its set-up and reference slices included,
# on a 2-core host; set-up samples per run). A run makes
# max(3, --seconds // pass seconds) passes. The count comes from these
# constants, never from the speed measured, so two commits that are
# compared get the same count. Each pass is also a set-up sample; cheap
# set-ups get extra set-up-only processes until there are enough samples.
PLAN = {
    "exact": (6.5, 5),
    "compose-small": (4.5, 4),
    "compose-inflations": (5.0, 11),
    "verify-paper": (4.0, 11),
}
MIN_PASSES = 3
# reference slices an untraced child times before and again after set-up
SETUP_SLICES = 4


def import_package():
    """Put the checkout's ``src`` first on the path; refuse to measure any
    other copy of letterkit."""
    if not os.path.isfile(os.path.join(SRC, "letterkit", "__init__.py")):
        sys.exit(f"perfbench: no letterkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import letterkit
    if not os.path.abspath(letterkit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported letterkit from {letterkit.__file__}")


def setup(workload: str, seed: int, pass_index: int, tracer=None):
    """Everything before the first timed item: the inputs and the first-use
    decoder tables. Only the inputs are traced."""
    import workloads
    build, kmax, _ = workloads.WORKLOADS[workload]
    if tracer is not None:
        tracer.install()
        tracer.item, tracer.active = "setup", True
    items = build(seed, pass_index)
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
    workloads.warm_decoder_tables(kmax)
    return items


# Times are scaled to a host on which one slice of the reference kernel
# takes REF_NOMINAL_S. An untraced pass takes a reading before its first
# item, after any item that ends REF_GAP_S or more after the last reading,
# and after its last item. A reading is the median of slices back to back,
# at least REF_BURST (the first slice after a CLI process has run on the
# same CPU can take twice as long) and enough to fill REF_SHARE of the
# time since the last reading. An item's time is scaled by the median of
# the REF_WINDOW readings nearest to it, half before and half after.
REF_NOMINAL_S = 0.014
REF_GAP_S = 0.5
REF_BURST = 3
REF_SHARE = 0.1
REF_WINDOW = 4


def reference_reading(since_last: float = 0.0) -> float:
    slices = max(REF_BURST, round(REF_SHARE * since_last / REF_NOMINAL_S))
    return statistics.median(reference_slice() for _ in range(slices))


def run_pass(items, tracer=None, refs=None):
    """Time every item once; returns (seconds per item, signature per
    item, index in ``refs`` of the last reading before each item). A
    signature is the JSON text of the checked output, or None for a wrong
    or failed output. With a list ``refs``, reference readings are taken
    between items and appended to it."""
    times, signatures, ref_before = [], [], []
    if refs is not None:
        refs.append(reference_reading())
    last_ref = time.perf_counter()
    for name, run, check in items:
        if refs is not None:
            since_last = time.perf_counter() - last_ref
            if since_last >= REF_GAP_S:
                refs.append(reference_reading(since_last))
                last_ref = time.perf_counter()
            ref_before.append(len(refs) - 1)
        if tracer is not None:
            tracer.item, tracer.active = name, True
        t0 = time.perf_counter()
        try:
            out = run(tracer)
        except Exception:  # a failing item is counted, the run goes on
            traceback.print_exc()
            out = None
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        try:
            sig = None if out is None else check(out)
            signatures.append(None if sig is None else json.dumps(sig))
        except Exception:
            traceback.print_exc()
            signatures.append(None)
    if refs is not None:
        refs.append(reference_reading(time.perf_counter() - last_ref))
    return times, signatures, ref_before


def pin_to_one_cpu():
    """Keep this process, and the CLI processes it starts, on one CPU, so
    that the reference readings are taken on the CPU the items run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child(args) -> int:
    """One pass in this fresh process: set up, report ready, run every
    item once and print the result as JSON. An untraced child times
    reference slices just before and just after its set-up, for the
    scale of its set-up time; ``setup`` children stop there."""
    pin_to_one_cpu()
    tracer, refs, out = None, None, {}
    if args.child == "traced":
        import spans
        tracer = spans.Tracer()
    else:
        start = time.perf_counter()
        out["setup_refs"] = [reference_slice() for _ in range(SETUP_SLICES)]
        out["pre_setup_s"] = time.perf_counter() - start
        refs = []
    import_package()
    items = setup(args.workload, args.seed, args.pass_index, tracer)
    print("ready", flush=True)
    if tracer is None:
        out["setup_refs"] += [reference_slice() for _ in range(SETUP_SLICES)]
    if args.child == "setup":
        print(json.dumps(out))
        return 0
    if tracer is not None:
        tracer.install()
    try:
        times, signatures, ref_before = run_pass(items, tracer, refs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update(times=times, signatures=signatures, refs=refs,
               ref_before=ref_before)
    if tracer is not None:
        if args.spans_out:
            write_spans(args.spans_out, tracer.spans)
        out["metrics"] = traced_metrics(tracer)
    print(json.dumps(out))
    return 0


def spawn(args, mode: str, pass_index: int = 0,
          spans_out: str | None = None):
    """Run one child process to its end. Returns the seconds from spawn
    until it reported ready, and its result."""
    argv = [sys.executable, RUN_PY, "--child", mode, "--workload",
            args.workload, "--seed", str(args.seed),
            "--pass-index", str(pass_index)]
    if spans_out:
        argv += ["--spans-out", spans_out]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit(f"perfbench: {mode} child process failed")
    return ready, json.loads(rest.splitlines()[-1])


def count_failures(passes, same_inputs: bool) -> tuple[int, int]:
    """(attempted, failed): an item fails in a pass when its output is
    wrong or, where every pass has the same inputs, differs from the
    item's output in the first pass."""
    first = passes[0]["signatures"]
    attempted = failed = 0
    for p in passes:
        for i, sig in enumerate(p["signatures"]):
            attempted += 1
            failed += sig is None or (same_inputs and sig != first[i])
    return attempted, failed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def children_peak_rss_mb() -> float:
    """The largest maximum RSS of any child process (and of the CLI
    processes they waited for)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def pass_count(args) -> int:
    return max(MIN_PASSES, int(args.seconds // PLAN[args.workload][0]))


def setup_sample(ready: float, result) -> float:
    """A child's set-up time on the reference host: from spawn until it
    reported ready, less its slices before set-up, scaled by the median
    of its slices before and after set-up."""
    return (ready - result["pre_setup_s"]) * REF_NOMINAL_S / \
        statistics.median(result["setup_refs"])


def scaled_times(result) -> list[float]:
    """A pass's item times on the reference host."""
    refs, half = result["refs"], REF_WINDOW // 2
    return [t * REF_NOMINAL_S / statistics.median(
                refs[max(0, j + 1 - half):j + 1 + half])
            for t, j in zip(result["times"], result["ref_before"])]


def measure(args, info):
    """Untraced passes: the end-to-end metrics. Every time is first
    scaled to the reference host. ``setup_s`` is the median set-up
    sample; ``wall_s`` the median over the passes of a pass's total item
    time; ``item_p50_ms`` and ``item_p90_ms`` the median and nearest-rank
    90th percentile over the items of each item's median time over the
    passes. The pass count is fixed per workload, so no estimator depends
    on the speed measured."""
    n = pass_count(args)
    setups = [spawn(args, "setup")
              for _ in range(max(0, PLAN[args.workload][1] - n))]
    passes = []
    for i in range(n):
        ready, result = spawn(args, "plain", i)
        setups.append((ready, result))
        passes.append(result)
    scaled = [scaled_times(p) for p in passes]
    item_s = [statistics.median(times) for times in zip(*scaled)]
    info["host.calib_s"] = statistics.median(
        r for p in passes for r in p["refs"])
    info["raw_setup_s"] = statistics.median(
        ready - result["pre_setup_s"] for ready, result in setups)
    info["raw_pass_wall_s"] = [sum(p["times"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_sample(ready, result)
                                     for ready, result in setups),
        "wall_s": statistics.median(sum(times) for times in scaled),
        "item_p50_ms": statistics.median(item_s) * 1000,
        "item_p90_ms": percentile(item_s, 90) * 1000,
        "peak_rss_mb": children_peak_rss_mb(),
    }
    return passes, metrics


def measure_traced(args, info):
    """Pairs of an untraced and a traced pass, back to back and in
    alternating order, so that both see the same state of the host: the per-layer metrics of each traced
    pass (set-up spans included), their median, and the median overhead
    of tracing over the pairs."""
    import spans
    n = max(2, pass_count(args) // 2)
    plain, traced = [], []
    for i in range(n):
        spans_out = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl") \
            if i == 0 else None
        if i % 2:  # alternate which pass of a pair goes first
            traced.append(spawn(args, "traced", i, spans_out)[1])
        plain.append(spawn(args, "plain", i)[1])
        if not i % 2:
            traced.append(spawn(args, "traced", i, spans_out)[1])
    walls = [[sum(p["times"]), sum(t["times"])]
             for p, t in zip(plain, traced)]
    info["raw_pass_wall_s"] = walls
    metrics = spans.median_metrics([t["metrics"] for t in traced])
    metrics["trace_overhead_frac"] = statistics.median(
        t / p for p, t in walls) - 1
    metrics["host.calib_s"] = statistics.median(
        r for p in plain for r in p["refs"])
    return plain + traced, metrics


def traced_metrics(tracer) -> dict[str, float]:
    import spans
    import workloads
    metrics = spans.layer_metrics(tracer.spans)
    startup = tracer.extra.pop("cli.startup_s", [])
    metrics["cli.startup_s"] = statistics.median(startup) if startup \
        else 0.0
    for suite in workloads.SUITES:
        metrics[f"cli.{suite}.s"] = sum(tracer.extra.get(
            f"cli.{suite}.s", []))
    return metrics


def write_spans(path: str, recorded):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# name, start, end, parent, item, note\n")
        for span in recorded:
            fh.write(json.dumps(span) + "\n")


def cli_child(spans_path: str, argv: list[str]) -> int:
    """A CLI process for a traced pass: install the wrappers, run
    ``letterkit.cli.main`` and write the spans for the parent."""
    spawned = float(os.environ["PERFBENCH_SPAWN_T"])
    import_package()
    import letterkit.cli
    import spans
    tracer = spans.Tracer()
    tracer.install()
    tracer.item, tracer.active = "cli", True
    startup = time.monotonic() - spawned
    try:
        return letterkit.cli.main(argv)
    finally:
        tracer.active = False
        with open(spans_path, "w") as fh:
            json.dump({"startup_s": startup, "spans": tracer.spans}, fh)


def main() -> int:
    if sys.argv[1:2] == ["--cli-child"]:
        return cli_child(sys.argv[2], sys.argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args)
    import_package()
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        passes, metrics = measure_traced(args, info)
        probe_ok, probe_s = workloads.probe_6k2(args.seed) \
            if args.workload == "exact" else (False, 0.0)
        metrics["probe.6K2.passed"] = int(probe_ok)
        metrics["probe.6K2.s"] = probe_s
        info["host.calib_s"] = metrics["host.calib_s"]
        wanted = spec["per_layer"]
    else:
        passes, metrics = measure(args, info)
        wanted = spec["end_to_end"]
    attempted, failed = count_failures(
        passes, not workloads.WORKLOADS[args.workload][2])
    info.update({"items": len(passes[0]["times"]), "passes": len(passes),
                 "failed_frac": failed / attempted})
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
