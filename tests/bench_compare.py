"""Compare two recordings of ``tests.bench_record``, an old and a new one.

For each workload and end-to-end metric, it prints both medians with
their quartiles, the change of the median, and in how many same-seed pairs
of runs the new file reads lower (run i of each file has seed ``seed`` +
i). Then the figures that repeat exactly on any host: the bytecode totals
and outputs digests of ``tests.bytecode_count``, the decoders and nodes
of each ``tests.solver_timing`` query with its digest where it has one,
and the parser tokens of each module; then each verify-paper suite's
loaded modules where they differ. A row whose figures differ is marked
``*``.

It warns first when the new file's commit does not descend from the old
one's (read with ``git`` in this checkout), when either file was recorded
from a tree with uncommitted changes, or when the files differ in
``python``, ``dont_write_bytecode``, ``seed``, ``runs`` or ``seconds``.
Run from the repository root:

    python3 -m tests.bench_compare BENCH_<old>.json BENCH_<new>.json
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME = ("python", "dont_write_bytecode", "seed", "runs", "seconds")


def _descends(old: str | None, new: str | None) -> str | None:
    """A warning unless commit ``new`` descends from ``old`` in this
    checkout's history; None if it does."""
    if old is None or new is None:
        return "a file has no commit"
    try:
        count = subprocess.run(
            ["git", "-C", ROOT, "rev-list", "--count", f"{old}..{new}"],
            capture_output=True, text=True, check=True).stdout.strip()
        ancestor = subprocess.run(
            ["git", "-C", ROOT, "merge-base", "--is-ancestor", old, new],
            capture_output=True).returncode == 0
    except (OSError, subprocess.CalledProcessError):
        return f"commits {old[:8]} and {new[:8]} are not both in this checkout"
    if not ancestor:
        return f"commit {new[:8]} does not descend from {old[:8]}"
    if count != "1":
        return f"commit {new[:8]} is {count} commits after {old[:8]}"
    return None


def warnings(old: dict, new: dict) -> list[str]:
    out = []
    if old.get("commit") != new.get("commit") or old.get("commit") is None:
        found = _descends(old.get("commit"), new.get("commit"))
        if found:
            out.append(found)
    else:
        out.append("both files record the same commit")
    out += [f"the {side} file was recorded from a tree with uncommitted "
            "changes" for side, data in (("old", old), ("new", new))
            if data.get("dirty")]
    out += [f"{key} differs: {old.get(key)!r} against {new.get(key)!r}"
            for key in SAME if old.get(key) != new.get(key)]
    return out


def _spread(metric: dict) -> str:
    return f"{metric['median']:.4g} [{metric['q1']:.4g}, {metric['q3']:.4g}]"


def end_to_end(old: dict, new: dict) -> list[str]:
    out = ["workload / metric: old median [q1, q3], new median [q1, q3], "
           "change, pairs lower"]
    for workload, metrics in sorted(old["end_to_end"].items()):
        for name, a in sorted(metrics.items()):
            b = new["end_to_end"].get(workload, {}).get(name)
            if name == "failed_frac" or b is None:
                continue
            pairs = list(zip(a["values"], b["values"]))
            lower = sum(y < x for x, y in pairs)
            change = (f"{(b['median'] / a['median'] - 1) * 100:+.1f} %"
                      if a["median"] else "-")
            out.append(f"{workload} / {name}: {_spread(a)}, {_spread(b)}, "
                       f"{change}, {lower}/{len(pairs)}")
        failed = [max(data["end_to_end"].get(workload, {}).get(
            "failed_frac", [0]) or [0]) for data in (old, new)]
        if any(failed):
            out.append(f"{workload} / failed_frac (largest): "
                       f"{failed[0]} -> {failed[1]}")
    return out


def _row(name: str, a, b) -> str:
    return f"{'*' if a != b else ' '} {name}: {a} -> {b}"


def exact_figures(old: dict, new: dict) -> list[str]:
    out = ["bytecodes (cold, warm, outputs):"]
    for workload in sorted({*old.get("bytecodes", {}),
                            *new.get("bytecodes", {})}):
        a, b = (data.get("bytecodes", {}).get(workload, {})
                for data in (old, new))
        out.append(_row(workload, *[(d.get("total"), d.get("warm_total"),
                                     (d.get("outputs") or "-")[:8])
                                    for d in (a, b)]))
    out.append("solver timing (decoders, nodes, digest):")
    for query in sorted({*old.get("solver_timing", {}),
                         *new.get("solver_timing", {})}):
        a, b = (data.get("solver_timing", {}).get(query, {})
                for data in (old, new))
        out.append(_row(query, *[(d.get("decoders"), d.get("nodes"),
                                  (d.get("sha256") or "-")[:8])
                                 for d in (a, b)]))
    out.append("parser tokens:")
    for module in sorted({*old.get("source_tokens", {}),
                          *new.get("source_tokens", {})}):
        out.append(_row(module, *[data.get("source_tokens", {}).get(
            module, "-") for data in (old, new)]))
    return out


def suite_modules(old: dict, new: dict) -> list[str]:
    out = []
    a, b = (data.get("startup", {}).get("suite_modules", {})
            for data in (old, new))
    for suite in sorted({*a, *b}):
        gained = sorted(set(b.get(suite, ())) - set(a.get(suite, ())))
        lost = sorted(set(a.get(suite, ())) - set(b.get(suite, ())))
        if gained or lost:
            out.append(f"{suite} loads {' '.join(gained) or 'nothing'} more"
                       f" and {' '.join(lost) or 'nothing'} less")
    return ["suite modules:", *out] if out else []


def compare(old: dict, new: dict) -> list[str]:
    return [*(f"warning: {w}" for w in warnings(old, new)),
            *end_to_end(old, new), *exact_figures(old, new),
            *suite_modules(old, new)]


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        sys.exit("usage: python3 -m tests.bench_compare OLD.json NEW.json")
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh))
    print("\n".join(compare(*files)))


if __name__ == "__main__":
    main(sys.argv[1:])
