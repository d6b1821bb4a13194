"""The paper's checkable claims, each written once.

``letterkit verify-paper`` runs them at a scale that finishes in seconds;
``tests/test_acceptance.py`` runs them at full scale. Each check returns a
dict with ``"pass"`` and the counts that explain its work (or the failing
graph). A check takes no budget: run it inside a :class:`letterkit.run.Run`,
and every solver and composer call it makes stops at that run's deadline.

Each check imports the modules it calls in its own body, so a process
that runs one check (a ``verify-paper`` suite) loads only what that check
needs; this module imports only ``graphs``. The checks call letterkit
through module attributes (``solver.lettericity``, not a name bound at
import), so a test or a tracer that replaces a module attribute sees
every call.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from . import graphs

if TYPE_CHECKING:
    from . import solver


def random_cograph(rng: random.Random, n: int) -> graphs.Graph:
    """Random cograph on n vertices from a random cotree."""
    if n == 1:
        return graphs.path(1)
    left = rng.randint(1, n - 1)
    op = graphs.join if rng.random() < 0.5 else graphs.disjoint_union
    return op(random_cograph(rng, left), random_cograph(rng, n - left))


def matching_lettericity() -> dict:
    """Prop. 4.1: mK2 has lettericity m (m <= 3), and 3K2 has no
    2-lettering."""
    from . import solver
    ok = all(solver.lettericity(graphs.matching(m))[0] == m
             for m in (1, 2, 3))
    ok = ok and solver.is_k_letterable(
        graphs.matching(3), 2).outcome == "exhausted"
    return {"pass": ok}


def r2_four_classes() -> solver.LetterClassConstraint:
    """The four vertex classes of Prop. 4.3 on ``stacked_path(2)``:
    {s_{1,j}, s_{2,j}} and {c_{1,j}, c_{2,j}} for j = 1, 2."""
    from . import solver
    labels = graphs.stacked_path(2)[1]
    return solver.LetterClassConstraint.of(
        *({labels.id_of(role, level, slot) for level in (1, 2)}
          for role, slot in (("s", 1), ("c", 1), ("c", 2), ("s", 2))))


def constrained_stacked() -> dict:
    """Prop. 4.3: the stacked path R2 has no 4-lettering that gives each of
    its four vertex classes one letter."""
    from . import solver
    report = solver.is_k_letterable(graphs.stacked_path(2)[0], 4,
                                    r2_four_classes())
    return {"pass": report.outcome == "exhausted",
            "decoders_tried": report.decoders_tried,
            "nodes_expanded": report.nodes_expanded}


def prime_classification() -> dict:
    """Thm. 3.2: every vertex of a prime graph (4 <= n <= 7) has a role
    (P4 end or middle, bull nose) that its witness confirms."""
    from . import modular
    from .run import Run
    checked, run = 0, Run()
    for n in range(4, 8):
        for g in graphs.all_graphs(n):
            run.check("claim check")
            if not modular.is_prime(g):
                continue
            for v in range(g.n):
                role = modular.classify_vertex(g, v)
                if not modular.verify_role(g, v, role):
                    return {"pass": False, "graph": graphs.to_graph6(g),
                            "vertex": v}
                checked += 1
    return {"pass": True, "vertices_checked": checked}


def _composer_inputs(max_n: int, inflations: int, max_module: int,
                     rng: random.Random):
    for n in range(1, max_n + 1):
        yield from graphs.all_graphs(n)
    for _ in range(inflations):
        base = rng.choice([graphs.path(4), graphs.bull(), graphs.cycle(5)])
        cap = min(max_module, 40 // base.n)
        mods = [random_cograph(rng, rng.randint(1, cap))
                for _ in range(base.n)]
        yield graphs.inflate(base, mods)[0]


def composer_bound(max_n: int, inflations: int, max_module: int,
                   seed: int) -> dict:
    """Thm. 5.1: ``compose`` returns a verified lettering within the bound
    F_impl, on every graph with n <= ``max_n`` and on ``inflations`` random
    inflations of P4, the bull or C5 drawn from ``seed``. Each module is a
    random cograph on 1..min(``max_module``, 40 // base.n) vertices."""
    from . import composer, letters
    count = 0
    for g in _composer_inputs(max_n, inflations, max_module,
                              random.Random(seed)):
        cert = composer.compose(g)
        if not (letters.verify(g, cert.lettering)
                and cert.bound_check["within_F_impl"]):
            return {"pass": False, "graph": graphs.to_graph6(g)}
        count += 1
    return {"pass": True, "graphs_checked": count}


def complement_duality(max_n: int) -> dict:
    """A graph and its complement have the same lettericity, on every graph
    with n <= ``max_n``."""
    from . import solver
    count = 0
    for n in range(1, max_n + 1):
        for g in graphs.all_graphs(n):
            k = solver.lettericity(g)[0]
            if k != solver.lettericity(g.complement())[0]:
                return {"pass": False, "graph": graphs.to_graph6(g)}
            count += 1
    return {"pass": True, "graphs_checked": count}
