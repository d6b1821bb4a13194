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
