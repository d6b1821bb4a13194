"""Record one point of the performance trajectory as a JSON file.

The script runs each of these in child processes of its own, with the
checkout's ``src`` first on ``PYTHONPATH``, and only reads their output:

- ``perfbench/run.py --seconds 20`` on each workload of
  ``BENCHMARK.json``: ten untraced runs, on seeds 1 to 10, for the median
  and quartiles of each end-to-end metric, and one traced run
  (``--trace 1``) on seed 1 for the per-layer metrics;
- ``tests.solver_timing`` on its default queries but ``5k2-k5``, each
  line with its cyclic collections and their seconds (``gc``);
- ``tests.startup_timing``;
- ``tests.bytecode_count`` on ``exact``, ``compose-small`` and
  ``compose-inflations`` at seed 1: the cold and warm opcode totals and
  the outputs digest. These repeat exactly on any host, so two files
  compare across the host's speed states.

It writes one JSON object: ``commit`` (``git rev-parse HEAD`` of the
checkout, or None outside git) and ``dirty`` (whether its tracked files
differ from it), ``python``, ``dont_write_bytecode`` (whether
``PYTHONDONTWRITEBYTECODE`` is set, as it makes every benchmark child
compile the sources it imports), ``end_to_end`` and ``per_layer`` per
workload, each with its ``failed_frac``, ``solver_timing`` per query,
``startup`` and ``bytecodes`` per workload. An end-to-end metric is
``{"median", "q1", "q3", "values"}`` over the runs.

Run from the repository root; it takes about three minutes on a 2-vCPU
host:

    PYTHONPATH=src python3 -m tests.bench_record BENCH_<n>.json

where n numbers the change recorded.

``--root DIR`` records another checkout, say an earlier commit cloned
beside this one, with that checkout's own benchmark and scripts; its
``tests.solver_timing`` names its own default queries.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BYTECODE_WORKLOADS = ("exact", "compose-small", "compose-inflations")
SEED = 1  # the first untraced run's, the traced run's and the opcodes' seed
# prints the default queries of the checkout it runs in, but 5k2-k5
DEFAULT_QUERIES = ("import json; from tests.solver_timing import OPT_IN, "
                   "QUERIES; print(json.dumps({'queries': [q for q in "
                   "QUERIES if q not in OPT_IN and q != '5k2-k5']}))")


def _run(root: str, argv: list[str]) -> list[dict]:
    """The JSON lines that ``python3 argv`` prints, run in ``root`` with its
    ``src`` first on the path; a failed child stops the recording."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_record: {' '.join(argv)} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def _summary(values: list[float]) -> dict:
    """The median and quartiles of ``values``, and the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _commit(root: str) -> dict:
    """The checkout's commit and whether its tracked files differ from it;
    both None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(
            git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def record(root: str, workloads: list[str] | None = None, runs: int = 10,
           seconds: float = 20.0,
           queries: list[str] | None = None, items: int | None = None,
           startup_runs: int = 15) -> dict:
    """The recording of checkout ``root``: ``runs`` untraced runs, on
    seeds ``SEED`` on, and one traced run on ``SEED``, each of ``seconds``,
    on each of ``workloads`` (all of ``BENCHMARK.json``'s by default), the
    solver ``queries`` (by default ``root``'s default ones but
    ``5k2-k5``), ``startup_runs`` fresh processes of
    ``tests.startup_timing``, and the opcodes of the first ``items`` items
    (all for None) of each in-process workload among ``workloads``."""
    if workloads is None:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            workloads = [w["name"] for w in json.load(fh)["workloads"]]
    if queries is None:
        queries = _run(root, ["-c", DEFAULT_QUERIES])[-1]["queries"]
    bench = ["perfbench/run.py", "--seconds", str(seconds)]
    out = {**_commit(root), "python": sys.version.split()[0],
           "dont_write_bytecode": bool(os.environ.get(
               "PYTHONDONTWRITEBYTECODE")),
           "seed": SEED, "runs": runs, "seconds": seconds,
           "end_to_end": {}, "per_layer": {}}
    for workload in workloads:
        args = [*bench, "--workload", workload]
        plain = [_run(root, [*args, "--seed", str(SEED + i), "--trace",
                             "0"]) for i in range(runs)]
        metrics = [lines[-1]["metrics"] for lines in plain]
        out["end_to_end"][workload] = {
            name: _summary([m[name]["value"] for m in metrics])
            for name in metrics[0]}
        out["end_to_end"][workload]["failed_frac"] = [
            lines[-2]["failed_frac"] for lines in plain]
        traced = _run(root, [*args, "--seed", str(SEED), "--trace", "1"])
        out["per_layer"][workload] = {
            name: m["value"] for name, m in traced[-1]["metrics"].items()}
        out["per_layer"][workload]["failed_frac"] = traced[-2]["failed_frac"]
    out["solver_timing"] = {line.pop("name"): line for line in _run(
        root, ["-m", "tests.solver_timing", *queries])}
    out["startup"] = _run(root, ["-m", "tests.startup_timing",
                                 str(startup_runs)])[-1]
    out["bytecodes"] = {}
    for workload in (w for w in BYTECODE_WORKLOADS if w in workloads):
        line = _run(root, ["-m", "tests.bytecode_count", workload,
                           "--seed", str(SEED),
                           *(["--items", str(items)] if items else [])])
        out["bytecodes"][workload] = {key: line[-1][key] for key in (
            "items", "total", "warm_total", "outputs")}
    return out


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="python3 -m tests.bench_record")
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--root", default=ROOT,
                        help="the checkout to record (default: this one)")
    args = parser.parse_args(argv)
    data = record(os.path.abspath(args.root))
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
