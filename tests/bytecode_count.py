"""Bytecodes executed by one cold pass of a benchmark workload.

The time of a pass that takes a tenth of a second moves with the host's
speed state; the number of bytecodes it executes does not. The cyclic
garbage collector runs in C between bytecodes, so its time is in no
count here; ``tests.solver_timing`` reports its runs. This script
builds pass 0's items of a workload through ``perfbench/workloads.py``
(loaded from its file, unchanged) and warms the decoder tables as the
benchmark's set-up does. It then runs each item once under
``sys.settrace`` with opcode events on, checks each output with the
workload's own check, and prints one JSON line: the workload, seed and
item count, ``total``, the opcodes executed, ``outputs``, a SHA-256 over
the items' check signatures in item order (equal outputs give equal
digests), and ``top``, the 12 functions that executed the most, as
``[module.qualname, count]``. It then runs the same items a second time in
the same process, once the memos have filled, checks that they give the
same outputs, and prints that pass's count as ``warm_total``.

Each run is a fresh process, so the composer's solve memo starts empty
and a second run of the same command prints the same counts.
``verify-paper`` runs its items in child processes, which the trace does
not see, so it needs ``--suite NAME``: that counts ``cli._SUITES[NAME](0)``
(seed 0, the CLI's default) in this process, after ``import
letterkit.cli``, as each CLI process of the workload runs it. Its output
signature is the suite's result, which must pass.

Run from the repository root:

    PYTHONPATH=src python3 -m tests.bytecode_count \\
        {exact,compose-small,compose-inflations} [--seed N] [--items N]
    PYTHONPATH=src python3 -m tests.bytecode_count verify-paper \\
        --suite {dualities,prop41,prop43,thm32,thm51}
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP = 12


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _suite_item(suite: str):
    from letterkit import cli  # the import each CLI process pays

    def check(result):
        return json.dumps(result, sort_keys=True) if result["pass"] else None
    return suite, lambda tracer: cli._SUITES[suite](0), check


def count(workload: str, seed: int, items: int | None,
          suite: str | None = None) -> dict:
    """Count the opcodes of pass 0's first ``items`` items (all for None),
    or of the verify-paper ``suite``: once cold, then once more warm."""
    if suite is None:
        workloads = _workloads()
        build, kmax, _ = workloads.WORKLOADS[workload]
        chosen = build(seed, 0)[:items]
        workloads.warm_decoder_tables(kmax)
    else:
        chosen = [_suite_item(suite)]
    names: dict = {}

    def traced_pass() -> tuple[Counter, list]:
        counts: Counter = Counter()

        def on_opcode(frame, event, arg):
            if event == "opcode":
                counts[frame.f_code] += 1
            return on_opcode

        def on_call(frame, event, arg):
            code = frame.f_code
            if code not in names:  # co_qualname is new in Python 3.11
                names[code] = (f"{frame.f_globals.get('__name__')}."
                               f"{getattr(code, 'co_qualname', code.co_name)}")
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return on_opcode

        signatures = []
        for name, run, check in chosen:
            sys.settrace(on_call)
            try:
                out = run(None)
            finally:
                sys.settrace(None)
            signatures.append(check(out))
            if signatures[-1] is None:
                raise SystemExit(
                    f"{workload} item {name!r} gave a wrong output")
        return counts, signatures

    counts, signatures = traced_pass()
    warm, again = traced_pass()
    if again != signatures:
        raise SystemExit(f"{workload}: the warm pass gave other outputs")
    per_function: Counter = Counter()
    for code, n in counts.items():
        per_function[names[code]] += n
    outputs = hashlib.sha256(json.dumps(signatures).encode()).hexdigest()
    return {"workload": workload, **({"suite": suite} if suite else {}),
            "seed": seed, "items": len(chosen),
            "total": sum(counts.values()),
            "warm_total": sum(warm.values()), "outputs": outputs,
            "top": [[name, n] for name, n in per_function.most_common(TOP)]}


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(prog="python3 -m tests.bytecode_count")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument("--suite", default=None)
    args = parser.parse_args(argv)
    if args.workload == "verify-paper":
        if args.suite is None:
            sys.exit("verify-paper runs its items in child processes, which "
                     "the trace does not see; count one suite in this "
                     "process with --suite NAME")
        from letterkit import cli
        if args.suite not in cli._SUITES:
            sys.exit(f"unknown suite {args.suite!r}")
        print(json.dumps(count(args.workload, 0, None, args.suite)))
        return
    if args.suite is not None:
        sys.exit("--suite counts a verify-paper suite only")
    if args.workload not in _workloads().WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    print(json.dumps(count(args.workload, args.seed, args.items)))


if __name__ == "__main__":
    main(sys.argv[1:])
