"""Golden outputs of the exact solver and the composer, pinned before any
change to them.

Four sections, so that a change meant to move the search counters (say,
a symmetry that skips decoders) can re-pin them without touching the
letterings, and a rewrite of the composer or of the modular decomposition
is held to its outputs:

- ``letterings``: for every graph from ``all_graphs(n)`` with n <= 6, and
  for the stacked path R2, keyed by graph6: the lettericity and the
  canonical lettering (alphabet, decoder pairs, word, vertex_of_position).
- ``counters``: for the same graphs, ``[outcome, decoders_tried,
  nodes_expanded]`` of ``is_k_letterable(g, k)`` for k = 1..lettericity;
  and the same triple for the R2 four-class k = 4 exhaustion.
- ``compositions``: the SHA-256 of ``compose(g).to_json()``, keyed by
  graph6, for every graph with n <= 6 and for the nested and peeled
  inflations of ``composition_inputs``.
- ``decompositions``: for the same graphs, keyed by graph6, the SHA-256
  of the JSON of ``decomposition_tree(g)`` followed by
  ``quotient(g).to_json()`` (the latter for n >= 2 only).

Regenerate the file only on purpose, from the repository root:

    PYTHONPATH=src python3 -m tests.golden_solver

or rewrite one section only, say after a change meant to move the
counters alone:

    PYTHONPATH=src python3 -m tests.golden_solver counters

which writes nothing, and exits non-zero, if any other section would
change.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from letterkit import claims, composer, graphs, modular, solver
from letterkit.letters import lettering_to_json

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "golden_solver.json")


def _counts(report: solver.SolveReport) -> list:
    return [report.outcome, report.decoders_tried, report.nodes_expanded]


def build() -> dict:
    letterings: dict[str, dict] = {}
    counters: dict[str, list] = {}
    r2 = graphs.stacked_path(2)[0]
    for g in [g for n in range(1, 7) for g in graphs.all_graphs(n)] + [r2]:
        key = graphs.to_graph6(g)
        k, lett = solver.lettericity(g)
        letterings[key] = {"lettericity": k,
                           **json.loads(lettering_to_json(lett))}
        counters[key] = [
            _counts(solver.is_k_letterable(g, j))
            for j in range(1, k + 1)]
    counters["R2 four classes k=4"] = _counts(
        solver.is_k_letterable(r2, 4, claims.r2_four_classes()))
    return {"letterings": letterings, "counters": counters}


def composition_inputs() -> list[graphs.Graph]:
    """Every graph with n <= 6, then inflations whose modules are prime
    inflations, mix homogeneous and prime modules, are peeled first, or
    hold a stacked path R_2 (certificate r = 4 and r = 3)."""
    p1, p4, bull, c5 = (graphs.path(1), graphs.path(4), graphs.bull(),
                        graphs.cycle(5))
    r2 = graphs.stacked_path(2)[0]
    p4_of_p4 = graphs.inflate(p4, [p4] * 4)[0]
    nested = [
        p4_of_p4,
        graphs.inflate(bull, [c5, p1, p1, p1, p1])[0],
        graphs.inflate(c5, [bull, p4, graphs.empty(3), graphs.complete(3),
                            p1])[0],
        graphs.join(p4_of_p4, p1),
        # R_2 in the bull's nose makes R_3: certificate r = 4, through a
        # module deeper than R_1
        graphs.inflate(bull, [p1] * 4 + [r2])[0],
        # an R_2 module and a P3 module beside it in C5: r = 3
        graphs.inflate(c5, [r2, graphs.path(3), p1, p1, p1])[0],
    ]
    return [g for n in range(1, 7) for g in graphs.all_graphs(n)] + nested


def compositions() -> dict[str, str]:
    return {graphs.to_graph6(g): hashlib.sha256(
        composer.compose(g).to_json().encode()).hexdigest()
        for g in composition_inputs()}


def decompositions() -> dict[str, str]:
    out = {}
    for g in composition_inputs():
        text = json.dumps(modular.decomposition_tree(g))
        if g.n >= 2:
            text += modular.quotient(g).to_json()
        out[graphs.to_graph6(g)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def dump(data: dict) -> str:
    """JSON with one line per entry, so a diff names the graphs that moved."""
    sections = []
    for name, entries in sorted(data.items()):
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entries[key])}"
                           for key in sorted(entries))
        sections.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def merge(old: dict, fresh: dict, section: str | None = None) -> dict:
    """The data to write, ``fresh``. With a ``section`` named, every other
    section must be equal in ``old`` and ``fresh``: ValueError names those
    that differ."""
    if section is None:
        return fresh
    if section not in fresh:
        raise ValueError(f"no section {section!r}; the sections are "
                         f"{', '.join(sorted(fresh))}")
    moved = sorted(name for name in fresh.keys() | old.keys()
                   if name != section and fresh.get(name) != old.get(name))
    if moved:
        raise ValueError(f"section {', '.join(moved)} would change too")
    return fresh


if __name__ == "__main__":
    section = sys.argv[1] if len(sys.argv) > 1 else None
    fresh = {**build(), "compositions": compositions(),
             "decompositions": decompositions()}
    try:
        data = merge(load() if section else {}, fresh, section)
    except ValueError as err:
        sys.exit(f"{err}; nothing written")
    with open(PATH, "w") as fh:
        fh.write(dump(data))
