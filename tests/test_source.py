import ast
from pathlib import Path

import orbitnorm


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no invariant of the package may rest on one
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_raise_assertion_error_in_package():
    # an AssertionError is no package error, so it would escape cli.main as a traceback
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
