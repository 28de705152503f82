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
