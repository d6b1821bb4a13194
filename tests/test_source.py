import ast
import pathlib

import letterkit


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
