"""Timings of the exact solver's long queries.

Prints one JSON line per query: its outcome, the elapsed seconds, the
decoders tried (letter-class searches), the nodes expanded, the
microseconds per node and ``split``, the calls and seconds of each kind
of search: ``decisions`` (letter-class searches with no fixed entries),
``descent_hits`` and ``descent_exhausted`` (the descent's questions,
by answer), ``word_searches`` and ``completion_checks``, the letter-class
searches a word search runs to skip a candidate with no word below it
(``solver._search_word``). A check is word-search work: its seconds are
also part of ``word_searches``', and it is no descent question. The
split times each call with its own clock readings, so ``elapsed``
includes a little of that overhead. ``gc`` gives the cyclic garbage
collector's runs during the query, ``collections`` and their seconds
``s``, read through ``gc.callbacks``; a full collection before each query
empties the young generation, so the count does not depend on the queries
before it. The queries are:

- ``r3-k4`` and ``r3-k5``: the stacked path R3 (12 vertices) at k = 4
  and k = 5, both exhausted;
- ``r3-k6``: R3 at k = 6, one past the scale guard, which the query
  lifts by patching ``solver.MAX_K`` to 6; the line also gives the word
  found;
- ``6k2-k5``: the matching 6K2 at k = 5, exhausted;
- ``5k2-k5``: the matching 5K2 at k = 5, found after the decision and
  five exhausted descent questions; the line gives the word;
- ``lettericity-n7``: ``lettericity`` of every graph with n = 7, in
  catalogue order. Its counters add up the ``is_k_letterable`` calls of
  every climb, and ``sha256`` hashes ``to_graph6(g) + str(k) +
  lettering_to_json(lettering)`` for each graph in turn, so two versions
  of the solver can be shown to give the same answers; ``tables`` gives
  the hits and misses of the letter-class search's table cache
  (``solver._tables``);
- ``compose-n7``: ``compose`` of every graph with n <= 7, in catalogue
  order, on an empty solve memo. Its counters add up the
  ``is_k_letterable`` calls of every solve; ``solves`` counts the
  composer's ``lettericity`` calls, ``quotients`` the distinct labelled
  prime quotients met and ``classes`` their isomorphism classes,
  ``climbs`` the composer's weighted stacked-path searches (its calls of
  ``max_stacked_path``, patched where the composer looks the name up), on
  an empty stacked-depth memo, ``sha256`` hashes every certificate's
  ``to_json()`` and a newline, in turn, and ``tables`` gives the table
  cache's hits and misses, as for ``lettericity-n7``;
- ``compose-acc6``: ``compose`` of the 200 inflations of acceptance
  check 6, thm51 at full scale (``claims._composer_inputs(0, 200, 40,
  random.Random(0x5EED))``, n <= 37), once on empty solve, stacked-depth
  and matching memos, ``cold_s``, then once more with the memos that
  pass filled, ``warm_s``; ``sha256`` hashes the certificates'
  ``to_json()`` joined by newlines, the digest that
  ``test_acceptance_inflation_certificates_keep_their_bytes`` pins;
- ``symmetry``: ``graphs._canonical`` on 6K2, K6,6 less a perfect
  matching, C12, the icosahedron, the 3 x 4 rook's graph and R3, each on
  empty caches; per graph, the best of three times in milliseconds and
  the number of orbits of its automorphism group;
- ``quotient-prime``: ``modular.quotient`` of nine seeded random prime
  graphs, three each with n = 16, 32 and 48 (drawn with edge probability
  1/2 from ``random.Random(0x9E1)``, keeping the prime ones), all nine
  three times; ``sha256`` hashes each quotient's ``to_json()`` and a
  newline, in turn, over one round;
- ``profile-prime``: ``composer.profile`` of four random prime graphs,
  with n = 32, 40, 48 and 64 (drawn with edge probability 1/2 from
  ``random.Random(7)``, keeping the prime ones), each once on empty
  memos; per graph, the seconds and the (p, q, r) profile. Opt-in;
- ``catalogue-n8``: ``all_graphs(8)`` built afresh, opt-in (not run by
  default, as it takes 15-20 s); ``count`` is the number of graphs and
  ``sha256`` hashes their graph6 codes joined by newlines, so two
  versions of ``canonical_code`` can be shown to keep the catalogue and
  its order.

Every query starts on an empty table cache, so its counts do not depend
on the queries run before it. Run from the repository root, naming the
queries to run (all but the opt-in ones by default):

    PYTHONPATH=src python3 -m tests.solver_timing [name ...]
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import random
import sys
import time
from unittest import mock

from letterkit import claims, composer, graphs, modular, obstructions, solver
from letterkit.letters import lettering_to_json


def _single(g: graphs.Graph, k: int, max_k: int = solver.MAX_K):
    def query():
        with mock.patch.object(solver, "MAX_K", max_k):
            report = solver.is_k_letterable(g, k)
        extra = {} if report.lettering is None else \
            {"word": report.lettering.word_string()}
        return report.outcome, [report], extra
    return query


def _lettericity_sweep():
    catalogue = graphs.all_graphs(7)  # read before the clock starts
    real = solver.is_k_letterable

    def query():
        reports, digest = [], hashlib.sha256()

        def record(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        with mock.patch.object(solver, "is_k_letterable", record):
            for g in catalogue:
                k, lett = solver.lettericity(g)
                digest.update((graphs.to_graph6(g) + str(k)
                               + lettering_to_json(lett)).encode())
        return "found", reports, {"sha256": digest.hexdigest()}
    return query


@contextlib.contextmanager
def _empty_memos(met: list):
    """Give the composer empty solve (each entry with its quotient's
    lettering, graph6 and pair plan), stacked-depth and matching memos for
    the block, and append each labelled prime quotient it meets to
    ``met``."""
    memo, depth, matching = (functools.lru_cache(
        maxsize=composer._MEMO_SIZE)(fn.__wrapped__) for fn in (
            composer._prime_lettering, composer._prime_stacked_depth,
            composer._prime_matching))
    with mock.patch.object(composer, "_classes", {}), \
            mock.patch.object(composer, "_prime_stacked_depth", depth), \
            mock.patch.object(composer, "_prime_matching", matching), \
            mock.patch.object(composer, "_prime_lettering",
                              lambda h: met.append(h) or memo(h)):
        yield


def _compose_sweep():
    catalogue = [g for n in range(1, 8) for g in graphs.all_graphs(n)]
    real = solver.is_k_letterable

    def query():
        reports, met, solved, climbs = [], [], [], []
        digest = hashlib.sha256()

        def record(*args, **kwargs):
            reports.append(real(*args, **kwargs))
            return reports[-1]

        with mock.patch.object(solver, "is_k_letterable", record), \
                _empty_memos(met), \
                mock.patch.object(composer, "max_stacked_path",
                                  lambda h, weights: climbs.append(h) or
                                  obstructions.max_stacked_path(h, weights)), \
                mock.patch.object(composer, "lettericity",
                                  lambda h: solved.append(h) or
                                  solver.lettericity(h)):
            for g in catalogue:
                digest.update((composer.compose(g).to_json() + "\n")
                              .encode())
        return "found", reports, {
            "solves": len(solved), "quotients": len(set(met)),
            "classes": len({graphs.canonical_code(h) for h in met}),
            "climbs": len(climbs), "sha256": digest.hexdigest()}
    return query


def _compose_acc6():
    inputs = list(claims._composer_inputs(0, 200, 40, random.Random(0x5EED)))

    def query():
        times = []
        with _empty_memos([]):
            for _ in range(2):  # cold, then warm
                start = time.perf_counter()
                certs = "\n".join(composer.compose(g).to_json()
                                  for g in inputs)
                times.append(round(time.perf_counter() - start, 4))
        return "found", [], {
            "cold_s": times[0], "warm_s": times[1],
            "sha256": hashlib.sha256(certs.encode()).hexdigest()}
    return query


def _random_prime(rng: random.Random, n: int) -> graphs.Graph:
    """A graph on n vertices with edge probability 1/2, drawn from ``rng``
    until one is prime."""
    while True:
        g = graphs.Graph.from_edges(n, [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.5])
        if modular.is_prime(g):
            return g


def _quotient_prime():
    rng = random.Random(0x9E1)
    inputs = [_random_prime(rng, n) for n in (16, 32, 48) for _ in range(3)]

    def query():
        for _ in range(3):
            digest = hashlib.sha256()
            for g in inputs:
                digest.update((modular.quotient(g).to_json() + "\n")
                              .encode())
        return "found", [], {"graphs": len(inputs),
                             "sha256": digest.hexdigest()}
    return query


def _profile_prime():
    rng = random.Random(7)
    inputs = [_random_prime(rng, n) for n in (32, 40, 48, 64)]

    def query():
        report = {}
        with _empty_memos([]):
            for g in inputs:
                start = time.perf_counter()
                prof = composer.profile(g)
                report[g.n] = {
                    "s": round(time.perf_counter() - start, 4),
                    "pqr": [prof.p, prof.q, prof.r]}
        return "found", [], {"graphs": report}
    return query


def _icosahedron() -> graphs.Graph:
    # apex 0, upper ring 1-5, lower ring 6-10, apex 11
    edges = []
    for i in range(5):
        up, low, nup, nlow = 1 + i, 6 + i, 1 + (i + 1) % 5, 6 + (i + 1) % 5
        edges += [(0, up), (up, nup), (up, low), (up, nlow), (low, nlow),
                  (low, 11)]
    return graphs.Graph.from_edges(12, edges)


SYMMETRIC = {
    "6K2": lambda: graphs.matching(6),
    "crown6": lambda: graphs.Graph.from_edges(
        12, [(i, 6 + j) for i in range(6) for j in range(6) if i != j]),
    "C12": lambda: graphs.cycle(12),
    "icosahedron": _icosahedron,
    "rook3x4": lambda: graphs.Graph.from_edges(
        12, [(u, v) for u in range(12) for v in range(u + 1, 12)
             if u // 4 == v // 4 or u % 4 == v % 4]),
    "R3": lambda: graphs.stacked_path(3)[0],
}


def _symmetry():
    def query():
        report = {}
        for name, build in SYMMETRIC.items():
            g, best = build(), float("inf")
            for _ in range(3):
                graphs._canonical.cache_clear()
                graphs._twins.cache_clear()
                start = time.perf_counter()
                orbits = graphs._canonical(g)[2]
                best = min(best, time.perf_counter() - start)
            report[name] = {"ms": round(best * 1e3, 3),
                            "orbits": len(set(orbits))}
        return "found", [], {"graphs": report}
    return query


def _catalogue_n8():
    def query():
        graphs.all_graphs.cache_clear()
        codes = [graphs.to_graph6(g) for g in graphs.all_graphs(8)]
        return "found", [], {
            "count": len(codes),
            "sha256": hashlib.sha256("\n".join(codes).encode()).hexdigest()}
    return query


QUERIES = {
    "r3-k4": lambda: _single(graphs.stacked_path(3)[0], 4),
    "r3-k5": lambda: _single(graphs.stacked_path(3)[0], 5),
    "r3-k6": lambda: _single(graphs.stacked_path(3)[0], 6, max_k=6),
    "6k2-k5": lambda: _single(graphs.matching(6), 5),
    "5k2-k5": lambda: _single(graphs.matching(5), 5),
    "lettericity-n7": _lettericity_sweep,
    "compose-n7": _compose_sweep,
    "compose-acc6": _compose_acc6,
    "symmetry": _symmetry,
    "quotient-prime": _quotient_prime,
    "profile-prime": _profile_prime,
    "catalogue-n8": _catalogue_n8,
}
OPT_IN = ("profile-prime", "catalogue-n8")
TABLE_COUNTS = ("lettericity-n7", "compose-n7")


SPLIT = ("decisions", "descent_hits", "descent_exhausted", "word_searches",
         "completion_checks")


def _timed(real, split, kind_of):
    """``real`` wrapped to add each call's seconds to its kind in ``split``."""
    def call(*args):
        start = time.perf_counter()
        out = real(*args)
        entry = split[kind_of(args, out)]
        entry["calls"] += 1
        entry["s"] += time.perf_counter() - start
        return out
    return call


def measure(name: str) -> dict:
    """Run query ``name`` once and return its line as a dict."""
    query = QUERIES[name]()
    split = {kind: {"calls": 0, "s": 0.0} for kind in SPLIT}
    fits = _timed(solver._fits, split, lambda args, hit: SPLIT[
        0 if not args[3] else 1 if hit is not None else 2])  # args[3]: fixed
    timed_word = _timed(solver._search_word, split, lambda args, hit: SPLIT[3])
    real_placements, inside = solver._placements, []  # inside a word search
    check = _timed(real_placements, split, lambda args, hit: SPLIT[4])

    def word(*args):
        inside.append(None)
        try:
            return timed_word(*args)
        finally:
            inside.pop()

    def placements(*args):  # _fits' search, or a completion check
        return (check if inside else real_placements)(*args)
    collected, began = {"collections": 0, "s": 0.0}, []

    def on_gc(phase, info):
        if phase == "start":
            began.append(time.perf_counter())
        else:
            collected["collections"] += 1
            collected["s"] += time.perf_counter() - began.pop()
    solver._tables.cache_clear()
    gc.collect()
    gc.callbacks.append(on_gc)
    start = time.perf_counter()
    try:
        with mock.patch.object(solver, "_fits", fits), \
                mock.patch.object(solver, "_search_word", word), \
                mock.patch.object(solver, "_placements", placements):
            outcome, reports, extra = query()
    finally:
        gc.callbacks.remove(on_gc)
    elapsed = time.perf_counter() - start
    collected["s"] = round(collected["s"], 4)
    tables = solver._tables.cache_info()
    for entry in split.values():
        entry["s"] = round(entry["s"], 4)
    nodes = sum(r.nodes_expanded for r in reports)
    if name in TABLE_COUNTS:
        extra["tables"] = {"hits": tables.hits, "misses": tables.misses}
    return {"name": name, "outcome": outcome, "elapsed": round(elapsed, 3),
            "decoders": sum(r.decoders_tried for r in reports),
            "nodes": nodes,
            "us_per_node": round(elapsed / nodes * 1e6, 3) if nodes else None,
            "split": split, "gc": collected, **extra}


def main(names: list[str]) -> None:
    unknown = [name for name in names if name not in QUERIES]
    if unknown:
        sys.exit(f"unknown query {', '.join(unknown)}; the queries are "
                 f"{', '.join(QUERIES)}")
    for name in names or [q for q in QUERIES if q not in OPT_IN]:
        print(json.dumps(measure(name)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
