import ast
import importlib
import json
import os
import re
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


ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _names_the_environment(node):
    """Whether node names os.environ or one of its kin, as an attribute, a name or an import."""
    if isinstance(node, ast.Attribute):
        return node.attr in ENVIRONMENT
    if isinstance(node, ast.Name):
        return node.id in ENVIRONMENT
    return isinstance(node, ast.alias) and node.name in ENVIRONMENT


def test_no_module_names_the_environment():
    # the command line is the program's only input: the size bound is --max-size alone
    readers = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if _names_the_environment(node)]
    assert readers == []


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


NOT_AT_IMPORT = {"__future__", "argparse", "dataclasses", "decimal", "fractions", "inspect", "json",
                 "numbers", "re", "typing"}


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


def test_no_command_imports_json(tmp_path):
    # a cache line is compared as bytes, so neither a miss nor a hit parses one, not even
    # a line that starts as the orbit's record does and is not one
    cache = str(tmp_path / "cache.jsonl")
    for p in ("3,1", "5,3", "7,2,2"):  # records the program writes, of other orbits
        orbitnorm.cli.main(["check", "--eps", "1", "--partition", p, "--cache", cache, "--oracle"])
    with open(cache, "a") as handle:
        handle.write('{"eps":1,"partition":[9,1],"verdict":"Normal","witnesses":[]}\n')
    primed = Path(cache).read_bytes()
    assert len(primed.splitlines()) == 4
    check = ["check", "--eps", "1", "--partition", "9,1", "--format", "json", "--cache", cache,
             "--oracle"]
    lines, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({check!r}))")
    assert lines[-1] == "0" and "json" not in loaded
    assert Path(cache).read_bytes() == primed + lines[0].encode() + b"\n"  # the miss appended
    again, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({check!r}))")
    assert again == lines and "json" not in loaded
    assert Path(cache).read_bytes() == primed + lines[0].encode() + b"\n"  # the hit appended nothing


def test_no_module_of_the_package_imports_json():
    # every JSON output is written from fragments, and a cache line is compared as bytes
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "json"]
    assert offenders == []


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["check", "-h"], 0),
    (["check", "--eps", "1", "--part", "3,1"], 2),  # a usage error
    (["check", "--eps", "0", "--partition", "3,1"], 2),  # a bad eps
], ids=["help", "command-help", "usage-error", "bad-eps"])
def test_no_command_line_imports_argparse(argv, code):
    # help and every refusal come from the command table, so argparse is loaded by none
    lines, loaded = _fresh_modules(f"from orbitnorm.cli import main\nprint(main({argv!r}))")
    assert lines[-1] == str(code) and (lines[0].startswith("usage: orbitnorm ") or code)
    assert "argparse" not in loaded


def test_no_module_of_the_package_imports_from_future():
    # annotations are evaluated where they are written, so a dangling name fails at import
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
    assert offenders == []


def test_the_cli_imports_without_a_warning(tmp_path):
    # every module compiles afresh, so a compile-time SyntaxWarning fails here as well
    src = str(Path(orbitnorm.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-W", "error", "-c", "import orbitnorm.cli"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONPYCACHEPREFIX": str(tmp_path)})
    assert (proc.returncode, proc.stderr) == (0, "")


def test_records_are_collections_namedtuples_with_their_annotations():
    # typing.NamedTuple would import typing, which NOT_AT_IMPORT keeps out; the records avoid it
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
        # evaluated where written: no annotation is left as a string to resolve later
        assert not [a for a in cls.__annotations__.values() if isinstance(a, str)], cls.__name__



#: Every memoized function of the package, as module.function.  Each one hits
#: within a single command (README, "Where validation happens"); a new cache
#: needs a line here and one there.
CACHED = {
    "cli._type_texts",
    "degeneration.table_pair",
    "partitions._diagrams_desc",
    "table.table_types",
}


def test_only_the_listed_functions_are_memoized():
    found = set()
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any("cache" in ast.unparse(d) for d in node.decorator_list)}
    assert found == CACHED


def _int_uses(node):
    """Each call of int within node, and each int passed as a value (a converter)."""
    uses = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            uses += [call] if ast.unparse(call.func) == "int" else []
            uses += [arg for arg in [*call.args, *(k.value for k in call.keywords)]
                     if ast.unparse(arg) == "int"]
    return uses


def test_integer_text_is_read_by_the_one_reader():
    # partitions.integer decides what integer text is; int() on text would also read
    # "1_0", "+3", " 4" and non-ASCII digits.  _record_codims reads bytes it has already
    # held to its own canonical-digits rule.
    offenders, readers = [], 0
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        for func in ast.walk(tree):
            name = f"{path.stem}.{func.name}" if isinstance(func, ast.FunctionDef) else None
            if name == "partitions.integer":
                readers += 1
                allowed |= {id(use) for use in _int_uses(func)}
            elif name == "cli._record_codims":
                allowed |= {id(use) for use in _int_uses(func) if ast.unparse(use) == "int(digits)"}
        offenders += [f"{path.name}:{use.lineno} {ast.unparse(use)}" for use in _int_uses(tree)
                      if id(use) not in allowed]
    assert (offenders, readers) == ([], 1)


def _unused_imports(path):
    """Names a module imports but does not use."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_import_of_the_package_is_used():
    # nothing is exported by import alone: a name is public where it is defined
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        offenders += _unused_imports(path)
    assert offenders == []


def _assigned_names(node):
    """The names an assignment statement binds; none for any other statement."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_no_module_of_the_package_assigns_dunder_all():
    # the leading underscore is the one statement of what is public
    offenders = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if "__all__" in _assigned_names(node)]
    assert offenders == []


def test_the_package_version_is_the_one_in_pyproject():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    assert re.findall(r'^version = "(.*)"$', text, re.MULTILINE) == [orbitnorm.__version__]


#: The package's exceptions, each with its one base: ContractError is exit 2, CapacityError exit 3.
EXCEPTIONS = {"ContractError": "ValueError", "NotMinimalIrreducible": "ContractError",
              "CapacityError": "Exception"}


def test_errors_defines_one_exception_per_refusal_exit_code():
    path = Path(orbitnorm.__file__).parent / "errors.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    classes = {node.name: [ast.unparse(base) for base in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {name: [base] for name, base in EXCEPTIONS.items()}


def _raised(node):
    """The name each raise statement within node raises; None for a bare re-raise."""
    return [None if r.exc is None else
            ast.unparse(r.exc.func if isinstance(r.exc, ast.Call) else r.exc)
            for r in ast.walk(node) if isinstance(r, ast.Raise)]


def test_every_raise_names_a_package_exception_and_only_check_size_a_capacity_error():
    # the command line catches ContractError and CapacityError alone, so no other can escape
    raised, capacity = [], []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        raised += _raised(tree)
        capacity += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                     if isinstance(func, ast.FunctionDef)
                     and "CapacityError" in _raised(func)]
    assert set(raised) <= set(EXCEPTIONS), sorted(set(raised) - set(EXCEPTIONS), key=str)
    assert raised.count("CapacityError") == 1 and capacity == ["cli.check_size"]


def test_the_size_bound_is_checked_in_one_place_where_a_line_is_read():
    # a command line's size is bounded once, as it is read, and not again by a command
    callers = []
    for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        callers += [f"{path.stem}.{func.name}" for func in ast.walk(tree)
                    if isinstance(func, ast.FunctionDef)
                    for call in ast.walk(func) if isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "check_size"]
    assert callers == ["cli._parse"]


def test_every_public_definition_is_used_by_the_package_or_the_acceptance_suite():
    # code that only the tests need lives in the tests: each top-level function, class or
    # assigned name without a leading underscore is named in src/ outside its own
    # definition, or tests/test_acceptance.py imports it
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(Path(orbitnorm.__file__).parent.rglob("*.py"))}
    acceptance = Path(__file__).parent / "test_acceptance.py"
    imported = {alias.name for node in ast.walk(ast.parse(acceptance.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for stem, tree in trees.items():
        for definition in tree.body:
            names = ([definition.name] if isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                     else _assigned_names(definition))
            inside = {id(node) for node in ast.walk(definition)}
            for name in names:
                named = any(id(node) not in inside
                            and name in (getattr(node, "id", None), getattr(node, "attr", None))
                            for other in trees.values() for node in ast.walk(other))
                if not (name.startswith("_") or named or name in imported):
                    unused.append(f"{stem}.{name}")
    assert unused == []
