"""The four benchmark workloads: inputs drawn from a seed, the timed call
for each item, and the check of each item's output.

An item is ``(name, run, check)``. ``run(tracer)`` makes the timed call
and returns its output; ``tracer`` is None unless the pass is traced.
``check(output)`` returns a JSON-serialisable signature of a correct
output (compared across passes, so a run must give the same answer every
time) or None for a wrong one. Every letterkit call goes through module attributes so
that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

from letterkit import composer, graphs, letters, solver

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_PY = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")

# Passes are sized to 2.5-6 s on a 2-core host, so that at least three
# fit in a run. compose-small: every graph with n <= 6 and every 12th graph with
# n = 7 in catalogue order; it costs the same for every seed (the full
# n <= 7 sweep takes about 30 s).
SMALL_N7_STRIDE = 12
# compose-inflations: inflations on INFLATION_N vertices, with modules as
# equal in size as n allows, so the cost of a pass depends little on the
# seed. With random module sizes, or n above 18, single graphs take up to
# seconds and the pass cost varies with the seed. P4 inflations cost about
# 15 ms each, the bull 15-150 ms and C5 about 35 ms. With equal shares the
# median item falls on the sparse lower tail of the bull costs, where it
# moved by 20 % between two passes on one seed whose totals differed by
# 3 %; with these shares it falls among the C5 and bull costs, which lie
# close together.
INFLATION_N = 16
INFLATION_SHARES = (("P4", 10), ("bull", 60), ("C5", 70))
# prop43 is the R2 four-class exhaustion, already an item of exact.
SUITES = ("dualities", "prop41", "thm32", "thm51")
# exact draws the labels of pass i of seed s from s * PASS_STRIDE + i.
PASS_STRIDE = 1000
# lettericity(6K2) needs 6 letters; the probe gives it this many seconds.
PROBE_BUDGET_S = 2.0


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.Graph.from_edges(
        g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def _lettericity_item(name, g, expected):
    def check(out):
        k, lett = out
        if k != expected or not letters.verify(g, lett):
            return None
        return k, lett.word, lett.vertex_of_position, lett.decoder.pairs
    return name, lambda tracer: solver.lettericity(g), check


def _exhaustion_item(name, g, k, constraint=None):
    def check(rep):
        if rep.outcome != "exhausted":
            return None
        return rep.outcome, rep.decoders_tried, rep.nodes_expanded
    return (name, lambda tracer: solver.is_k_letterable(g, k, constraint),
            check)


def _compose_item(name, g):
    def check(cert):
        if not (letters.verify(g, cert.lettering)
                and cert.bound_check["within_F_impl"]):
            return None
        return (cert.alphabet_size, cert.lettering.word,
                cert.lettering.vertex_of_position)
    return name, lambda tracer: composer.compose(g), check


def exact(seed: int, pass_index: int):
    # Each pass relabels the graphs anew. The search time of a query
    # changes with the labels (C8 took 1.3-2.0 s over five seeds), and the
    # median over the passes of a run is steadier across seeds than one
    # labelling.
    rng = random.Random(seed * PASS_STRIDE + pass_index)
    items = []
    r2, labels = graphs.stacked_path(2)
    for name, g in (("C8", graphs.cycle(8)), ("P10", graphs.path(10)),
                    ("R2", r2),
                    ("co-R2", r2.complement())):
        items.append(_lettericity_item(f"lettericity {name}",
                                       _relabel(g, rng)[0], 4))
    g, perm = _relabel(r2, rng)
    classes = [{perm[labels.id_of(role, level, slot)] for level in (1, 2)}
               for role, slot in (("s", 1), ("c", 1), ("c", 2), ("s", 2))]
    items.append(_exhaustion_item(
        "R2 four classes k=4", g, 4,
        solver.LetterClassConstraint.of(*classes)))
    for name, g in (("4K2", graphs.matching(4)),
                    ("co-4K2", graphs.co_matching(4)),
                    ("R3", graphs.stacked_path(3)[0])):
        items.append(_exhaustion_item(f"{name} k=3", _relabel(g, rng)[0], 3))
    return items


def probe_6k2(seed: int) -> tuple[bool, float]:
    """lettericity(6K2) under a short budget: passes on a fast ScaleError
    or the verified answer 6; running out the budget is a failure."""
    g = _relabel(graphs.matching(6), random.Random(seed))[0]
    start = time.perf_counter()
    try:
        k, lett = solver.lettericity(g, budget=PROBE_BUDGET_S)
        ok = k == 6 and letters.verify(g, lett)
    except graphs.ScaleError:
        ok = True
    except solver.BudgetExceeded:
        ok = False
    return ok, time.perf_counter() - start


def compose_small(seed: int, pass_index: int):
    chosen = [g for n in range(1, 7) for g in graphs.all_graphs(n)]
    chosen += graphs.all_graphs(7)[::SMALL_N7_STRIDE]
    return [_compose_item(graphs.to_graph6(g), g) for g in chosen]


def compose_inflations(seed: int, pass_index: int):
    # The generator of the CLI's thm51 check; importing cli adds about
    # 10 ms to this workload's set-up.
    from letterkit.cli import _random_cograph
    rng = random.Random(seed)
    bases = {"P4": graphs.path(4), "bull": graphs.bull(),
             "C5": graphs.cycle(5)}
    items = []
    for name, count in INFLATION_SHARES:
        base = bases[name]
        for i in range(count):
            q, r = divmod(INFLATION_N, base.n)
            sizes = [q + (v < r) for v in range(base.n)]
            rng.shuffle(sizes)
            g, _ = graphs.inflate(
                base, [_random_cograph(rng, s) for s in sizes])
            items.append(_compose_item(f"{name} inflation {i}", g))
    rng.shuffle(items)  # a change of host speed in a pass hits every base
    return items


def _cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LETTERKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _suite_item(suite: str):
    argv = ["verify-paper", "--suite", suite]

    def run(tracer):
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "letterkit.cli",
                                   *argv], cwd=ROOT, env=_cli_env(),
                                  capture_output=True, text=True)
            return proc.returncode, proc.stdout
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"cli-{os.getpid()}-{suite}.json")
        env = _cli_env()
        env["PERFBENCH_SPAWN_T"] = repr(time.monotonic())
        proc = subprocess.run([sys.executable, RUN_PY, "--cli-child",
                               spans_path, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        with open(spans_path) as fh:
            child = json.load(fh)
        os.remove(spans_path)
        tracer.ingest(child["spans"], suite)
        tracer.extra["cli.startup_s"].append(child["startup_s"])
        for line in proc.stdout.splitlines():
            tracer.extra[f"cli.{suite}.s"].append(
                json.loads(line).get("elapsed", 0.0))
        return proc.returncode, proc.stdout

    def check(out):
        returncode, stdout = out
        lines = [json.loads(line) for line in stdout.splitlines()]
        if returncode != 0 or len(lines) != 1 or \
                lines[0].get("check") != suite or \
                lines[0].get("status") != "pass":
            return None
        return json.dumps({k: v for k, v in lines[0].items()
                           if k != "elapsed"}, sort_keys=True)
    return suite, run, check


def verify_paper(seed: int, pass_index: int):
    """One fresh ``letterkit verify-paper --suite <s>`` process per item;
    the suites use their default seed, so a pass costs the same for every
    benchmark seed."""
    import letterkit.cli  # noqa: F401  the import each CLI process pays
    return [_suite_item(s) for s in SUITES]


# name -> (item builder, called with the seed and the pass index; largest k
# whose decoder table set-up builds before timing, 0 where each timed
# process builds its own, as a user's does; whether the inputs change with
# the pass index)
WORKLOADS = {
    "exact": (exact, 4, True),
    "compose-small": (compose_small, 4, False),
    "compose-inflations": (compose_inflations, 3, False),
    "verify-paper": (verify_paper, 0, False),
}


def warm_decoder_tables(kmax: int):
    """Build the first-use decoder tables for k <= kmax with one trivial
    query each, so the first timed item does not pay for them."""
    for k in range(1, kmax + 1):
        solver.is_k_letterable(graphs.path(1), k)
