"""The reference kernel that measures how fast the host is right now.

The host is shared with other tenants and its speed changes by up to 2x
for seconds to minutes. Different code slows by different amounts: a
tight recursion on a tiny working set slows most, the solver's search
and ``compose`` less. One slice runs four small pure-Python parts, each
written apart from letterkit, whose mix slowed on the host of
``baseline.json`` about as much as the workloads did:

- ``_independent_sets`` (twice): recursion over bit masks and a set;
- ``_queens``: the 8-queens search with a closure, like the solver's DFS;
- ``_churn``: tuple keys in a dict, a sort and set lookups;
- ``_spin``: integer arithmetic in a loop.

The kernel never imports letterkit, so a change to the package cannot
change it. Each part checks its own answer.
"""

from __future__ import annotations

import time

IS_N, IS_COUNT = 20, 1423
IS_ROWS = [sum(1 << v for v in range(IS_N)
               if u != v and ((u * 7 + v * 13) % 5 == 0 or abs(u - v) == 1))
           for u in range(IS_N)]


def _independent_sets() -> int:
    rows, chosen, count = IS_ROWS, set(), [0]

    def grow(i: int, banned: int):
        if i == IS_N:
            count[0] += 1
            return
        grow(i + 1, banned)
        if not banned >> i & 1 and i not in chosen:
            chosen.add(i)
            grow(i + 1, banned | rows[i])
            chosen.discard(i)
    grow(0, 0)
    return count[0]


def _queens(n: int = 8) -> int:
    placed: list[int] = []
    taken: set[int] = set()
    count = 0

    def place(row: int, diag: int, anti: int):
        nonlocal count
        if row == n:
            count += 1
            return
        for col in range(n):
            if col in taken or diag >> (row + col) & 1 or \
                    anti >> (row - col + n) & 1:
                continue
            placed.append(col)
            taken.add(col)
            place(row + 1, diag | 1 << (row + col), anti | 1 << (row - col + n))
            taken.remove(col)
            placed.pop()
    place(0, 0, 0)
    return count


def _churn(m: int = 2500) -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(m):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    seen = {(i * 7919) % 10007 for i in range(m)}
    return len(ordered) + sum(1 for v in range(0, 10007, 3) if v in seen)


def _spin(m: int = 30_000) -> int:
    x = 0
    for i in range(m):
        x = (x * 31 + i) & 0xFFFF
    return x


EXPECTED = (2 * IS_COUNT, 92, 3334, 35480)


def reference_slice() -> float:
    """Seconds of one slice of the kernel: about 14 ms on the host of
    ``baseline.json``."""
    start = time.perf_counter()
    got = (_independent_sets() + _independent_sets(), _queens(), _churn(),
           _spin())
    elapsed = time.perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError(f"reference kernel computed {got}")
    return elapsed
