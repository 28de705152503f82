import ast
import importlib
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import orbitnorm
import orbitnorm.cli


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


def _writes_to_stderr(node):
    """Whether node is print(..., file=sys.stderr) or sys.stderr.write(...)."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "print":
        return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
    return ast.unparse(node.func) == "sys.stderr.write"


def test_stderr_is_written_only_through_the_cli_helper():
    # the helper writes nothing when fd 2 was closed; print(file=None) would write on stdout
    offenders, helpers = [], 0
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" == "cli._stderr":
                helpers += 1
                allowed |= {id(inner) for inner in ast.walk(node)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _writes_to_stderr(node) and id(node) not in allowed]
    assert (offenders, helpers) == ([], 1)


def _fresh_modules(code):
    """Output lines of code run in a fresh `python -S` on the package's src, then sys.modules."""
    src = str(Path(orbitnorm.__file__).parent.parent)
    # the module list is taken before json is imported to print it
    script = (code + "\nimport sys\nloaded = sorted(sys.modules)\n"
              "import json\nprint(json.dumps(loaded))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *lines, modules = proc.stdout.splitlines()
    return lines, set(json.loads(modules))


NOT_AT_IMPORT = {"argparse", "dataclasses", "decimal", "fractions", "inspect", "json", "numbers",
                 "re", "typing"}


def test_cli_import_leaves_out_what_no_command_needs():
    _, loaded = _fresh_modules("import orbitnorm.cli")
    assert loaded & NOT_AT_IMPORT == set()
    # the oracle module itself stays eager, so a per-layer trace still wraps it
    assert "orbitnorm.matrix_oracle" in loaded


def test_an_oracle_command_does_not_import_fractions():
    lines, loaded = _fresh_modules(
        "from orbitnorm.cli import main\n"
        "print(main(['dim', '--eps', '1', '--partition', '9,7,3,3,1,1']))")
    assert lines == ["[9,7,3,3,1,1] eps +1: orbit dim 236, centralizer dim 40, algebra dim 276",
                     "0"]
    assert "fractions" not in loaded


def test_a_well_formed_command_does_not_import_argparse():
    lines, loaded = _fresh_modules(
        "from orbitnorm.cli import main\n"
        "print(main(['survey', '--eps', '-1', '--size', '2', '--format', 'csv']))")
    assert lines == ["partition;verdict;witness_families", "2;Normal;a", "1,1;Normal;", "0"]
    assert "argparse" not in loaded


@pytest.mark.parametrize("argv, code", [
    (["survey", "--eps", "-1", "--size", "6", "--format", "json"], 0),
    (["hasse", "--eps", "1", "--size", "6", "--format", "json"], 0),
    (["check", "--eps", "1", "--partition", "7,2,2", "--format", "json"], 10),
])
def test_json_without_cache_or_oracle_does_not_import_json(argv, code):
    lines, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({argv!r}))")
    assert lines[0].startswith("{") and lines[-1] == str(code)
    assert "json" not in loaded


@pytest.mark.parametrize("argv, code", [
    (["check", "--eps", "1", "--partition", "7,2,2", "--format", "json", "--oracle"], 10),
    (["dim", "--eps", "1", "--partition", "7,2,2", "--format", "json"], 0),
    (["reduce", "--eps", "1", "--top", "7,2,2", "--bottom", "7,1,1,1,1", "--format", "json"], 0),
    (["classify", "--eps", "1", "--top", "7,2,2", "--bottom", "7,1,1,1,1", "--format", "json"],
     0),
])
def test_json_output_does_not_import_json(argv, code):
    lines, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({argv!r}))")
    assert lines[0].startswith("{") and lines[-1] == str(code)
    assert "json" not in loaded


def test_only_a_cache_hit_imports_json(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    for p in ("3,1", "5,3", "7,2,2"):  # records the program writes, of other orbits
        orbitnorm.cli.main(["check", "--eps", "1", "--partition", p, "--cache", cache, "--oracle"])
    primed = Path(cache).read_bytes()
    assert len(primed.splitlines()) == 3
    check = ["check", "--eps", "1", "--partition", "9,1", "--format", "json", "--cache", cache]
    lines, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({check!r}))")
    assert lines[-1] == "0" and "json" not in loaded
    assert Path(cache).read_bytes() == primed + lines[0].encode() + b"\n"  # the miss appended
    again, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({check!r}))")
    assert again == lines and "json" in loaded


def test_help_imports_argparse():
    lines, loaded = _fresh_modules("from orbitnorm.cli import main\nprint(main(['--help']))")
    assert lines[0].startswith("usage: orbitnorm ") and lines[-1] == "0"
    assert "argparse" in loaded


def test_records_are_collections_namedtuples_with_their_annotations():
    # typing.NamedTuple compiles a ForwardRef per field at import; the records do without it
    records = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "NamedTuple"], path.name
        names = [node.name for node in tree.body if isinstance(node, ast.ClassDef) and any(
            isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
            for base in node.bases)]
        if names:
            module = importlib.import_module(f"orbitnorm.{path.stem}")
            records += [getattr(module, name) for name in names]
    assert len(records) == 10
    for cls in records:
        assert tuple(cls.__annotations__) == cls._fields, cls.__name__
        assert tuple(typing.get_type_hints(cls)) == cls._fields, cls.__name__



#: Every memoized function of the package, as module.function.  Each one hits
#: within a single command (README, "Where validation happens"); a new cache
#: needs a line here and one there.
CACHED = {
    "degeneration._core",
    "matrix_oracle._orbit_dim_cached",
    "partitions._diagrams_desc",
    "table.top_heads",
}


def test_only_the_listed_functions_are_memoized():
    found = set()
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any("cache" in ast.unparse(d) for d in node.decorator_list)}
    assert found == CACHED


def _unused_imports(path):
    """Names a module imports but neither uses nor lists in __all__ (from __future__ aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used and name not in exported]


def test_every_import_of_the_package_is_used_or_exported():
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        offenders += _unused_imports(path)
    assert offenders == []
