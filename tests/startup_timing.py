"""What a fresh letterkit process pays before it does any work.

Every ``letterkit`` command, and each suite of ``verify-paper``, runs in a
process of its own and first imports ``letterkit.cli``. This script starts
fresh interpreters, in turn a bare one (``python3 -c pass``) and one that
imports ``letterkit.cli``, both with the environment the benchmark gives
its CLI processes: the checkout's ``src`` first on ``PYTHONPATH`` and
``LETTERKIT_THREADS`` unset, as the benchmark unsets it (nothing in
letterkit reads it). It prints one JSON line:

- ``import_ms``: the import alone, timed inside each process;
- ``bare_ms``: the bare interpreter from spawn to exit, which includes
  the host's ``site`` hooks and which letterkit cannot change;

each as ``[first quartile, median, third quartile]`` over the runs;
``added``, the modules the import adds to ``sys.modules`` (the
difference taken inside the process, so ``site`` hooks do not count);
and ``suite_modules``, for each suite of ``verify-paper``, the
``letterkit.*`` modules that a fresh process running that suite alone
has loaded by its end.

Run from the repository root (15 runs of each by default):

    PYTHONPATH=src python3 -m tests.startup_timing [runs]
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# imports nothing before the clock starts that letterkit might import
IMPORT = """\
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import letterkit.cli
elapsed = time.perf_counter() - start
print(elapsed, *sorted(set(sys.modules) - before))
"""

# runs the verify-paper suite named by its argument, as the CLI does
SUITE = """\
import sys
from letterkit import cli
cli.main(["verify-paper", "--suite", sys.argv[1]])
print(*sorted(m for m in sys.modules if m.startswith("letterkit.")))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LETTERKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(code: str, *args: str) -> tuple[float, str]:
    """Seconds from spawn to exit of ``python3 -c code args``, and its
    output."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=True)
    return time.perf_counter() - start, proc.stdout


def quartiles_ms(values: list[float]) -> list[float]:
    return [round(q * 1000, 1) for q in statistics.quantiles(values, n=4)]


def run_suite(suite: str) -> tuple[str, list[str]]:
    """The line a fresh process running ``verify-paper --suite suite``
    prints, and the ``letterkit.*`` modules it has loaded by its end."""
    line, modules = spawn(SUITE, suite)[1].splitlines()
    return line, modules.split()


def measure(runs: int) -> dict:
    from letterkit import cli

    imports, bare, added = [], [], None
    for _ in range(runs):
        bare.append(spawn("pass")[0])
        elapsed, *added = spawn(IMPORT)[1].split()
        imports.append(float(elapsed))
    return {"runs": runs, "import_ms": quartiles_ms(imports),
            "bare_ms": quartiles_ms(bare), "added": added,
            "suite_modules": {suite: run_suite(suite)[1]
                              for suite in sorted(cli._SUITES)}}


def main(argv: list[str]) -> None:
    if len(argv) > 1 or argv and not (argv[0].isdigit()
                                      and int(argv[0]) >= 2):
        sys.exit("usage: python3 -m tests.startup_timing [runs >= 2]")
    print(json.dumps(measure(int(argv[0]) if argv else 15)))


if __name__ == "__main__":
    main(sys.argv[1:])
