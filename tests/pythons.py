"""The command-line corpus, and tier-1 where pytest imports, under each interpreter named.

    python tests/pythons.py /path/to/python3.10 /path/to/python3.13 ...

For each interpreter, in turn, it runs ``tests/cli_corpus.py`` and then, if
``import pytest`` works under that interpreter, the tier-1 suite, each with
``src`` put first on the inherited ``PYTHONPATH``.  It prints one line per
interpreter: its version, the corpus line (marked ``EXPECTED`` when it is the
line ``cli_corpus.py`` records), and pytest's summary line, or ``no pytest``.

pytest does not collect this file, and it imports only the standard library.
It is not a test: which interpreters a machine has is the machine's own.  The
exit status is 1 when, under some interpreter, the corpus line is not
``EXPECTED`` (every run's output is the package's own, so it is the same
under every CPython), a corpus or tier-1 run failed, or the interpreter did
not start; else 0.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "cli_corpus.py"
TIER_1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          str(ROOT / "tests")]


def _expected() -> str:
    """The corpus line cli_corpus.py records, read from its source."""
    text = CORPUS.read_text(encoding="utf-8")
    return re.search(r'^EXPECTED = "(.*)"$', text, re.MULTILINE).group(1)


def _run(python: str, args: list[str], env: dict, timeout: int) -> tuple[int, str]:
    """The exit status and the last line of stdout of python run with args."""
    proc = subprocess.run([python, *args], env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""]
    return proc.returncode, lines[-1]


def report(python: str, expected: str) -> tuple[bool, str]:
    """Whether every run under python succeeded, and its line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    try:
        _, version = _run(python, ["-c", "import sys; print(sys.version.split()[0])"], env, 60)
    except OSError as exc:
        return False, f"{python}: cannot run: {exc.strerror or exc}"
    code, corpus = _run(python, [str(CORPUS)], env, 600)
    ok = code == 0 and corpus == expected
    corpus = "EXPECTED" if ok else corpus if code == 0 else f"exit {code}: {corpus}"
    line = f"{python} {version}: corpus {corpus}; "
    if _run(python, ["-c", "import pytest"], env, 60)[0] != 0:
        return ok, line + "no pytest"
    code, summary = _run(python, TIER_1, env, 1800)
    return ok and code == 0, line + f"tier-1 {summary}"


def main(pythons: list[str]) -> int:
    expected, status = _expected(), 0
    for python in pythons:
        ok, line = report(python, expected)
        print(line, flush=True)
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
