"""Which statements of the package no test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer and
prints every executable line of ``src/orbitnorm`` that no test ran, with its
source text, except the lines ``ALLOWED`` names with a reason:

    PYTHONPATH=src python tests/reach.py [extra pytest arguments]

pytest does not collect this file, and it imports only the standard library:
the suite is run as ``python -m pytest`` runs it.  Commands that a test runs in
a subprocess are not traced, so a line reached only there is listed unless
``ALLOWED`` names it.  It is neither a test nor a gate: the tracer makes the
suite a few times slower.

The last line is a count.  The exit status is 0 when every line that no test
ran is allowed, 1 when some line is not or an allowed line ran, and 2 when the
suite itself failed.
Allowed lines that a test did run are listed as well, so the list stays exact.
"""

from __future__ import annotations

import os
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitnorm"
TIER_1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]

#: (module file, function, stripped source line) -> why no traced test runs that line.
_ENTRY = "program entry: TestExitFreeze and TestWriteFailure run it in a subprocess"
_FULL = "a failed write of stdout: TestWriteFailure fills it in a subprocess"
ALLOWED = {
    ("cli.py", "_write", "except OSError as exc:"): _FULL,
    ("cli.py", "_write", "devnull = os.open(os.devnull, os.O_WRONLY)"): _FULL,
    ("cli.py", "_write", "os.dup2(devnull, sys.stdout.fileno())"): _FULL,
    ("cli.py", "_write", "os.close(devnull)"): _FULL,
    ("cli.py", "_write", '_stderr(f"error: cannot write output: {exc.strerror or exc}")'): _FULL,
    ("cli.py", "_write", "return EXIT_INTERNAL"): _FULL,
    ("cli.py", "main", "code = _write(*_run(sys.argv[1:]))"): _ENTRY,
    ("cli.py", "main", "atexit._run_exitfuncs()"): _ENTRY,
    ("cli.py", "main", "for stream in (sys.stdout, sys.stderr):"): _ENTRY,
    ("cli.py", "main", "if stream is not None:"): _ENTRY,
    ("cli.py", "main", "stream.flush()"): _ENTRY,
    ("cli.py", "main", "os._exit(code)"): _ENTRY,
    ("cli.py", "<module>", "sys.exit(main())"): "runs only as `python -m orbitnorm.cli`",
}


def _code_lines(code) -> dict[int, str]:
    """Each line of code, and of the code nested in it, that holds an instruction, with
    the qualified name of the innermost function it is in.

    A function's own first line is left out: it is where the function starts,
    which no line event reports, and the def that makes it is a line of its own.
    """
    lines = {line: code.co_qualname for _, _, line in code.co_lines()
             if line is not None and line > 0}
    if code.co_name != "<module>":
        lines.pop(code.co_firstlineno, None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _tracer(hits: set[tuple[str, int]]):
    """A global trace function that records (file, line) of every line run in the package."""
    prefix = str(PACKAGE) + os.sep

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    return call


def _run_suite(args: list[str], hits: set[tuple[str, int]]) -> int:
    argv = sys.argv
    sys.argv = ["pytest", *TIER_1, *args]
    sys.settrace(_tracer(hits))
    try:
        runpy.run_module("pytest", run_name="__main__")
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        sys.settrace(None)
        sys.argv = argv
    return 0


def main(args: list[str]) -> int:
    reached: set[tuple[str, int]] = set()
    status = _run_suite(args, reached)
    unreached, allowed, stale = [], 0, []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line, function in sorted(_code_lines(compile(source, str(path), "exec")).items()):
            key = (path.name, function, text[line - 1].strip())
            entry = f"{path.name}:{line} {function}: {key[2]}"
            if (str(path), line) in reached:
                if key in ALLOWED:
                    stale.append(entry)
            elif key in ALLOWED:
                allowed += 1
            else:
                unreached.append(entry)
    print()
    for entry in unreached:
        print(f"not reached: {entry}")
    for entry in stale:
        print(f"allowed but reached: {entry}")
    print(f"{len(unreached)} lines not reached, {allowed} allowed, {len(stale)} allowed but reached"
          + ("" if status == 0 else f"; the suite exited {status}"))
    if status:
        return 2
    return 1 if unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
