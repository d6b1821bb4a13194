"""letterkit: letter graphs, exact lettericity, modular decomposition,
obstruction profiles, and constructive lettering composition.

The public names are resolved on first access (PEP 562): importing the
package, or one of its modules such as ``letterkit.cli``, loads none of
the others. ``letterkit.compose`` imports ``letterkit.composer`` once and
keeps the value in the package namespace.
"""

import importlib

# each public name by its home module
_HOMES = {
    "composer": ("CompositionCertificate", "compose", "profile"),
    "graphs": ("Graph", "StackedPathLabels", "all_graphs", "bull",
               "co_matching", "complete", "contains_induced", "cycle",
               "disjoint_union", "from_graph6", "generate", "inflate",
               "is_isomorphic", "join", "matching", "path", "stacked_path",
               "threshold", "to_dot", "to_graph6"),
    "letters": ("Decoder", "Lettering", "decode", "lettering_from_json",
                "lettering_to_json", "threshold_lettering", "verify"),
    "modular": ("QuotientDecomposition", "VertexRole", "classify_vertex",
                "is_module", "is_prime", "quotient"),
    "obstructions": ("BoundParams", "ClassProfile", "bounds",
                     "max_induced_matching", "max_stacked_path", "ramsey"),
    "run": ("BudgetExceeded", "Run"),
    "solver": ("LetterClassConstraint", "SolveReport", "is_k_letterable",
               "lettericity"),
}
_SUBMODULES = ("composer", "graphs", "letters", "modular", "obstructions",
               "solver")
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
