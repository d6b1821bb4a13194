"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the toolkit, runs it at full
stated scale, and prints a single pass/fail line with its runtime.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines as they complete.
Checks 1-4 and 6 run the claims of ``letterkit.claims``, which
``letterkit verify-paper`` runs at a smaller scale.
"""

import random
import time

from letterkit import (
    Run,
    claims,
    is_k_letterable,
    is_prime,
    max_induced_matching,
    quotient,
    stacked_path,
    threshold_lettering,
    verify,
)
from letterkit.graphs import DOMINATING, ISOLATED, threshold
from tests.conftest import random_graph, reconstruct, stacked_path_inductive


def report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status} "
          f"({elapsed:.1f} s, limit {limit:.0f} s)")
    assert ok and elapsed < limit, f"criterion {num} ({name}) {status}"


def test_01_matching_lettericity():
    start = time.monotonic()
    ok = claims.matching_lettericity()["pass"]
    report(1, "matching lettericity", ok, time.monotonic() - start, 60)


def test_02_r2_constrained_exhaustion():
    start = time.monotonic()
    ok = claims.constrained_stacked()["pass"]
    report(2, "R2 four-class exhaustion", ok, time.monotonic() - start, 600)


def test_03_complement_duality_n6():
    start = time.monotonic()
    ok = claims.complement_duality(max_n=6)["pass"]
    report(3, "complement duality n<=6", ok, time.monotonic() - start, 1800)


def test_04_prime_vertex_classification():
    start = time.monotonic()
    ok = claims.prime_classification()["pass"]
    report(4, "prime vertex roles n<=7", ok, time.monotonic() - start, 600)


def test_05_decomposition_roundtrip():
    rng = random.Random(0x5EED)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        n = rng.randint(2, 32)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        dec = quotient(g)
        if not is_prime(dec.quotient):
            ok = False
        rebuilt, mapping = reconstruct(g, dec)
        for a in range(n):
            for b in range(a + 1, n):
                if rebuilt.adjacent(a, b) != g.adjacent(mapping[a], mapping[b]):
                    ok = False
    report(5, "quotient/inflate roundtrip", ok, time.monotonic() - start, 300)


def test_06_composer_soundness_and_bound():
    start = time.monotonic()
    ok = claims.composer_bound(max_n=7, inflations=200, max_module=40,
                               seed=0x5EED)["pass"]
    report(6, "composer soundness and bound", ok,
           time.monotonic() - start, 1200)


def test_07_stacked_path_constructions():
    start = time.monotonic()
    ok = all(stacked_path(n)[0] == stacked_path_inductive(n)
             for n in range(1, 6))
    for n in range(1, 5):
        g = stacked_path(n)[0]
        ok = ok and max_induced_matching(g)[0] == 1
        ok = ok and max_induced_matching(g.complement())[0] == 1
    report(7, "stacked path constructions", ok, time.monotonic() - start, 120)


def test_08_threshold_encoding():
    rng = random.Random(0x5EED)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        n = rng.randint(1, 50)
        seq = [rng.choice([ISOLATED, DOMINATING]) for _ in range(n)]
        lett = threshold_lettering(seq)
        if not verify(threshold(seq), lett):
            ok = False
        expected = 1 if len(set(seq[1:])) <= 1 else 2
        if lett.letters_used() != expected:
            ok = False
    report(8, "threshold encoding", ok, time.monotonic() - start, 60)


def test_09_r3_not_four_letterable():
    # stretch criterion: complete 4-letter exhaustion on the 12-vertex R3
    g = stacked_path(3)[0]
    start = time.monotonic()
    with Run(3600):
        rep = is_k_letterable(g, 4)
    report(9, "R3 has no 4-lettering", rep.outcome == "exhausted",
           time.monotonic() - start, 3600)
