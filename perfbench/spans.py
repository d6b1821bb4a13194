"""Spans around letterkit's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules,
and every name in another letterkit module bound to one, with a wrapper
that records a span ``[name, start, end, parent, item, note]`` in memory
while the tracer is active. ``layer_metrics`` turns a list of spans into
the per-layer metrics named in ``BENCHMARK.json``. The package itself is
not changed.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("graphs", "letters", "solver", "modular", "obstructions",
          "composer", "cli")

# What a span keeps from a call's arguments and result, for the counters.
NOTES = {
    "solver.is_k_letterable": lambda args, kwargs, rep: [
        args[1] if len(args) > 1 else kwargs["k"],
        rep.outcome == "found", rep.decoders_tried, rep.nodes_expanded],
    "solver.lettericity": lambda args, kwargs, res: list(args[0].rows),
    "graphs.contains_induced": lambda args, kwargs, res: res is not None,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.item = None
        self.extra: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        """Patch every module attribute that refers to a public layer
        function, so calls made between modules are traced too."""
        import letterkit
        modules = [importlib.import_module("letterkit." + m) for m in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in modules + [letterkit]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def ingest(self, spans: list[list], item):
        """Append spans recorded in another process, re-basing parents."""
        base = len(self.spans)
        for name, start, end, parent, _, note in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1,
                               item, note])


def _isomorphism_key(rows: list[int]):
    from letterkit.graphs import Graph, canonical_code
    if len(rows) <= 7:  # canonical_code is cheap only for small graphs
        return canonical_code(Graph(len(rows), tuple(rows)))
    return tuple(rows)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, inclusive times (``.s``, outermost span of a
    name only, so recursion is not counted twice) and self times."""
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    outer = [True] * len(spans)
    for i, span in enumerate(spans):
        p = span[3]
        if p >= 0:
            child[p] += dur[i]
        while p >= 0:
            if names[p] == names[i]:
                outer[i] = False
                break
            p = spans[p][3]
    calls = Counter(names)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        self_s[name] += dur[i] - child[i]
        if outer[i]:
            incl[name] += dur[i]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    solves = [(s[5], s[2] - s[1]) for s in spans
              if s[0] == "solver.is_k_letterable" and s[5] is not None]
    m["solver.decoders_tried"] = sum(n[2] for n, _ in solves)
    m["solver.nodes_expanded"] = sum(n[3] for n, _ in solves)
    m["solver.nodes_per_s"] = ratio(m["solver.nodes_expanded"],
                                    incl["solver.is_k_letterable"])
    for k in range(1, 5):  # k = 5 is met only by the 6K2 probe
        m[f"solver.k{k}.s"] = sum(d for n, d in solves if n[0] == k)
        m[f"solver.k{k}.decoders_tried"] = sum(n[2] for n, _ in solves
                                               if n[0] == k)
    m["solver.is_k_letterable.calls"] = calls["solver.is_k_letterable"]
    m["solver.is_k_letterable.self_s"] = self_s["solver.is_k_letterable"]
    m["solver.found_frac"] = ratio(sum(1 for n, _ in solves if n[1]),
                                   len(solves))
    graphs_solved = [s[5] for s in spans
                     if s[0] == "solver.lettericity" and s[5] is not None]
    m["solver.lettericity.calls"] = calls["solver.lettericity"]
    m["solver.lettericity.distinct"] = len(
        {_isomorphism_key(rows) for rows in graphs_solved})
    m["solver.lettericity.s"] = incl["solver.lettericity"]
    hits = sum(1 for s in spans
               if s[0] == "graphs.contains_induced" and s[5])
    m["graphs.contains_induced.calls"] = calls["graphs.contains_induced"]
    m["graphs.contains_induced.s"] = incl["graphs.contains_induced"]
    m["graphs.contains_induced.hit_frac"] = ratio(
        hits, calls["graphs.contains_induced"])
    m["graphs.all_graphs.s"] = incl["graphs.all_graphs"]
    m["obstructions.max_stacked_path.self_s"] = \
        self_s["obstructions.max_stacked_path"]
    m["obstructions.profile.self_s"] = self_s["obstructions.profile"]
    m["obstructions.max_induced_matching.s"] = \
        incl["obstructions.max_induced_matching"]
    m["modular.quotient.calls"] = calls["modular.quotient"]
    m["modular.quotient.self_s"] = self_s["modular.quotient"]
    m["modular.classify_vertex.s"] = incl["modular.classify_vertex"]
    m["letters.verify.calls"] = calls["letters.verify"]
    m["letters.verify.s"] = incl["letters.verify"]
    m["composer.compose.self_s"] = self_s["composer.compose"]
    m["composer.peel.s"] = incl["composer.peel"]
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}
