"""Named one-line mutants of ``src`` and the tests that catch each one.

Each mutant is (file, old text, new text); the old text occurs once in its
file. For each mutant named on the command line, or for all of them, the
script copies the repository to a temporary directory, applies the mutant
there, runs ``SELECTION`` at ``--hypothesis-seed=0``, and prints the
mutant and the tests that fail. It changes no file of the checkout:

    python3 -m tests.mutants [NAME...]

A mutant no test catches prints ``-`` and the script exits 1.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOLVER = "src/letterkit/solver.py"
SEARCH = "src/letterkit/_letter_classes.py"  # the letter-class search
COMPOSER = "src/letterkit/composer.py"
SELECTION = ("tests/test_solver.py", "tests/test_composer.py",
             "tests/test_acceptance.py", "tests/test_cli.py")

MUTANTS = {
    # a join skipped as if it were a duplicate opening
    "M1": (SEARCH, "if not own and opened & dup:", "if opened & dup:"),
    # a fixed pair of equal entries cuts an empty letter to the wrong side
    "M2": (SEARCH, "nxt[b] &= row if x else non",
           "nxt[b] &= non if x else row"),
    # no third fail-first level: sound, the tree moves
    "M3": (SEARCH, "(three & ~functools.reduce(operator.and_, cand) & left)"
           " or left", "left"),
    # completion checks pair letters whose swap maps the code onto itself:
    # no wrong answer is known, the tree moves
    "M4": (SEARCH, "whole = range(fixed // k if fixed < k * k else 0)",
           "whole = range(fixed // k)"),
    # the swap rule pairs two equal fixed rows that are not swaps
    "M5": (SEARCH, "if list(map(given.__getitem__, _swap(k, a, b))) == given)",
           "if given[a * k:a * k + k] == given[b * k:b * k + k])"),
    # the mirror rule drops (1, 0) instead of (0, 1): sound, the tree moves
    "M6": (SEARCH, "if sym and x < y and", "if sym and x > y and"),
    # a completion check leaves the candidate unplaced, in no mask
    "M7": (SOLVER, "full & ~left, nxt) is None", "full & ~rest, nxt) is None"),
    # a class member may take another letter than its class's
    "M8": (SOLVER, "cuts[v] = (~(every ^ m), ~m)",
           "cuts[v] = (~(every ^ m), -1)"),
    # a disjoint union keeps the larger induced matching instead of adding
    "M9": (COMPOSER, "return max(r1, r2), m1 + m2,",
           "return max(r1, r2), max(m1, m2),"),
}


def apply(root: pathlib.Path, name: str) -> None:
    """Apply mutant ``name`` to the tree at ``root``, in place."""
    file, old, new = MUTANTS[name]
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text is not once in {file}")
    path.write_text(text.replace(old, new))


def failures(root: pathlib.Path) -> list[str]:
    """The ids of the tests of ``SELECTION`` that fail in the tree at
    ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *SELECTION], cwd=root, env=env,
        capture_output=True, text=True)
    return re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = set(names) - set(MUTANTS)
    if unknown:
        raise SystemExit(f"unknown mutants: {' '.join(sorted(unknown))}")
    missed = 0
    for name in names:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp) / "repo"
            shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
            apply(root, name)
            failed = failures(root)
        missed += not failed
        print(f"{name} ({time.perf_counter() - start:.0f} s): "
              f"{len(failed)} failed", *failed or ["-"], sep="\n  ",
              flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
