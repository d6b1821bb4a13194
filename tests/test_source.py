import ast
import dataclasses
import gc
import importlib
import pathlib
import types
from unittest import mock

import pytest

import letterkit
from letterkit import (BudgetExceeded, ClassProfile, CompositionCertificate,
                       Decoder, Graph, LetterClassConstraint, Lettering, Run,
                       SolveReport, bounds, bull, claims, classify_vertex,
                       compose, contains_induced, cycle, inflate,
                       is_k_letterable, lettericity, matching,
                       max_induced_matching, max_stacked_path, path, profile,
                       quotient, solver, stacked_path)
from letterkit.graphs import _record
from tests import startup_timing


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so soundness checks must raise
    root = pathlib.Path(letterkit.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert {"solver.py", "composer.py"} <= {path.name for path in modules}
    found = [f"{path.relative_to(root)}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_run_reads_the_clock():
    # deadlines and "elapsed" both live in run.Run: the solver and the cli
    # read them off a Run, so run.py is the one reader of the clock left
    root = pathlib.Path(letterkit.__file__).parent
    readers = sorted(path.name for path in root.rglob("*.py")
                     if "time.monotonic" in path.read_text())
    assert readers == ["run.py"]


def _nested_functions(fn):
    """The functions defined in ``fn``'s own body, not those nested deeper."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.FunctionDef):
            yield node
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))


def _frees_itself(outer, inner):
    """Whether ``outer`` calls ``inner``, which it defines, only inside a try
    whose finally clause deletes it."""
    calls = [node for node in ast.walk(outer) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == inner.name]
    for node in ast.walk(outer):
        if isinstance(node, ast.Try) and any(
                isinstance(d, ast.Delete) and any(
                    isinstance(t, ast.Name) and t.id == inner.name
                    for t in d.targets) for d in node.finalbody):
            inside = {id(n) for stmt in node.body for n in ast.walk(stmt)}
            inside |= {id(n) for n in ast.walk(inner)}
            return all(id(call) in inside for call in calls)
    return False


def test_no_nested_function_keeps_itself_alive():
    # a nested function that calls itself by name holds itself through its
    # closure, so it, its cells and all they hold wait for the cyclic
    # collector; each one is deleted in a finally clause of the function
    # that defines it
    root = pathlib.Path(letterkit.__file__).parent
    found = {}
    for module in sorted(root.rglob("*.py")):
        for outer in ast.walk(ast.parse(module.read_text())):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in _nested_functions(outer):
                if any(isinstance(node, ast.Call) and
                       isinstance(node.func, ast.Name) and
                       node.func.id == inner.name
                       for node in ast.walk(inner)):
                    found[f"{outer.name}.{inner.name}"] = \
                        _frees_itself(outer, inner)
    assert found == dict.fromkeys([
        "max_induced_matching.best", "max_stacked_path.best",
        "contains_induced.extend", "profile.walk", "compose.build",
        "_placements.place", "_search_word.dfs"], True)


def _searches():
    r2, bull_inflation = stacked_path(2)[0], inflate(cycle(5), [
        bull(), path(4), path(1), matching(2), path(3)])[0]
    weights = [2, 0, 1, 3, 1]

    def past_the_budget():
        with pytest.raises(BudgetExceeded), Run(0.0):
            compose(cycle(6))

    def with_completion_checks():  # P7's word searches run eight
        with mock.patch.object(solver, "_CHECK_AFTER", 0):
            lettericity(path(7))
    return [pytest.param(call, id=name) for name, call in [
        ("lettericity", lambda: lettericity(cycle(7))),
        ("is_k_letterable with classes",
         lambda: is_k_letterable(r2, 4, claims.r2_four_classes())),
        ("compose", lambda: compose(bull_inflation)),
        ("profile", lambda: profile(bull_inflation)),
        ("weighted max_induced_matching",
         lambda: max_induced_matching(cycle(5), weights)),
        ("weighted max_stacked_path",
         lambda: max_stacked_path(cycle(5), weights)),
        ("contains_induced", lambda: contains_induced(r2, path(5))),
        ("constrained_stacked", claims.constrained_stacked),
        ("compose past its budget", past_the_budget),
        ("lettericity with completion checks", with_completion_checks)]]


@pytest.mark.parametrize("call", _searches())
def test_a_call_leaves_nothing_for_the_cyclic_collector(call):
    # reference counting frees every search's state at return: with the
    # collector off, a collection after the call finds nothing
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI process pays for what this import loads; the difference of
    # sys.modules is taken in the fresh process, so site hooks do not count
    _, out = startup_timing.spawn(startup_timing.IMPORT)
    added = set(out.split()[1:])
    assert "letterkit.cli" in added
    assert not {"dataclasses", "inspect"} & added


def _record_samples():
    dec = Decoder.from_pairs("ab", [("a", "b")])
    lett = Lettering(dec, (0, 1), (1, 0))
    return [Graph(3, (2, 5, 2)), stacked_path(1)[1], dec, lett,
            LetterClassConstraint.of({0, 1}, {2}),
            SolveReport("found", lett, 1, 2, 0.5), compose(path(4)),
            quotient(path(4)), classify_vertex(path(4), 0),
            ClassProfile(2, 3, 1), bounds(1, 2, 2, 2)]


@pytest.mark.parametrize("obj", _record_samples(),
                         ids=lambda obj: type(obj).__name__)
def test_records_are_frozen_values(obj):
    cls, names = type(obj), obj.__match_args__
    values = [getattr(obj, name) for name in names]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    twin = cls(**dict(zip(names, values)))
    assert twin == obj and not twin != obj and cls(*values) == obj
    try:
        hash(obj)
    except TypeError:  # a dict field, as a frozen dataclass would have it
        assert cls is CompositionCertificate
    else:
        assert hash(twin) == hash(obj)
    other = type("Other", (cls,), {})(*values)  # same fields, another class
    assert other != obj and obj != other
    # the repr of the frozen dataclass the class was before
    old = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    old.__qualname__ = cls.__qualname__
    assert repr(obj) == repr(old(*values))


def test_records_take_each_field_once():
    @_record
    class Pair:
        a: int
        b: int

    with pytest.raises(TypeError):  # the first construction checks too
        Pair(1)
    assert Pair(b=2, a=1) == Pair(1, 2)
    assert ClassProfile(1, q=2, r=3) == ClassProfile(1, 2, 3)
    for args, kwargs in [((1, 2), {}), ((1, 2, 3, 4), {}),
                         ((1, 2), {"p": 3}), ((1, 2, 3), {"s": 4})]:
        with pytest.raises(TypeError):
            ClassProfile(*args, **kwargs)


# the package's public names: its six submodules, and what they export
_PUBLIC = [
    "BoundParams", "BudgetExceeded", "ClassProfile", "CompositionCertificate",
    "Decoder", "Graph", "LetterClassConstraint", "Lettering",
    "QuotientDecomposition", "Run", "SolveReport", "StackedPathLabels",
    "VertexRole", "all_graphs", "bounds", "bull", "classify_vertex",
    "co_matching", "complete", "compose", "composer", "contains_induced",
    "cycle", "decode", "disjoint_union", "from_graph6", "generate", "graphs",
    "inflate", "is_isomorphic", "is_k_letterable", "is_module", "is_prime",
    "join", "lettericity", "lettering_from_json", "lettering_to_json",
    "letters", "matching", "max_induced_matching", "max_stacked_path",
    "modular", "obstructions", "path", "profile", "quotient", "ramsey",
    "solver", "stacked_path", "threshold", "threshold_lettering", "to_dot",
    "to_graph6", "verify"]


def test_the_public_surface_is_each_home_modules_objects():
    assert letterkit.__all__ == _PUBLIC and len(_PUBLIC) == 54
    for name in _PUBLIC:
        obj = getattr(letterkit, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"letterkit.{name}")
        else:
            home = importlib.import_module(obj.__module__)
            assert getattr(home, name) is obj
    assert letterkit.Run is letterkit.solver.Run
    assert letterkit.BudgetExceeded is letterkit.solver.BudgetExceeded
    assert set(_PUBLIC) <= set(dir(letterkit))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from letterkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_PUBLIC)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        letterkit.nope


def test_the_benchmark_still_finds_the_cli_cograph_generator():
    from letterkit.cli import _random_cograph
    assert _random_cograph is letterkit.claims.random_cograph
