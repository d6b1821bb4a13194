import ast
import dataclasses
import pathlib

import pytest

import letterkit
from letterkit import (ClassProfile, CompositionCertificate, Decoder, Graph,
                       LetterClassConstraint, Lettering, SolveReport, bounds,
                       classify_vertex, compose, path, quotient, stacked_path)
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


def test_only_solver_and_cli_read_the_clock():
    # deadlines live in solver.Run; cli reads the clock for "elapsed" only
    root = pathlib.Path(letterkit.__file__).parent
    readers = sorted(path.name for path in root.rglob("*.py")
                     if "time.monotonic" in path.read_text())
    assert readers == ["cli.py", "solver.py"]


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
