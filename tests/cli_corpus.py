"""A byte-identity guard for the command line.

Runs a fixed list of command lines through ``orbitnorm.cli.main`` in-process,
captures each run's exit code, stdout and stderr, and prints one line,
``<runs> <sha256>``, hashed over every run in order.  Two source trees whose
command-line output is byte-identical print the same line:

    PYTHONPATH=src python tests/cli_corpus.py
    PYTHONPATH=<other tree>/src python tests/cli_corpus.py

pytest does not collect this file; ``tests/test_cli_corpus.py`` runs it and
compares its line with ``EXPECTED``, so a deliberate change of output means
editing ``EXPECTED``.  The run set:

- every command and format at n <= 10, both eps: ``survey`` and ``hasse`` in
  each format, ``check``, ``dim`` and ``verify`` on every partition (so also on
  the ones that are not eps-diagrams), and ``reduce`` and ``classify`` on every
  ordered pair of eps-diagrams of one size;
- ``check --oracle``, ``dim`` and ``verify`` on every eps-diagram with
  n <= 10 (above) and on a fixed, seeded sample of 8 eps-diagrams a form type
  at n = 40;
- help, usage errors and ``--version``;
- bad eps, partition, bound (``--max-size``) and ``ORBIT_MAX_SIZE`` input;
- ``check --cache`` on one cache file, which starts with a hand-written
  record for [7,2,2] (spaces, keys in reverse order): on every eps-diagram with
  n <= 8, a plain check and then ``--oracle``, each a miss and then a hit, in
  json and text, and then each of those four on [7,2,2].  Only the program's
  own bytes hit, so the hand-written record is a miss: the plain json check
  appends its record once, the plain text check hits it, and ``--oracle`` does
  the same with a record of its own.  The cache file's bytes after each of
  these runs go into the hash as well.

It lists its inputs itself, without the package's enumeration, so a change
there shows in the hash rather than in the run set.  ``COLUMNS`` is fixed,
because argparse wraps its help to the terminal width.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

#: The line this corpus prints for the current command-line output, under CPython 3.11:
#: argparse's help text, which the corpus hashes, differs between Python minor versions.
EXPECTED = "8325 ce3cf723ba60a3ce94a0cb810bcc436c1dad29fc4fbce2f1e898e1271aacf0b0"
EPS = ("1", "-1")
SMALL = 10
LARGE = 40
LARGE_SAMPLE = 8
CACHE_SIZE = 8
#: Relative, and the cache runs happen in a temporary directory, so no argv holds its path.
CACHE = "cache.jsonl"
#: The record the program writes for check --oracle on [7,2,2] at eps +1, as a hand would;
#: not the program's own bytes, so a miss, and the record is appended once in its form.
HAND_RECORD = (
    '{ "witnesses": [ {"sigma": [7, 1, 1, 1, 1], "n": 1, "family": "e",'
    ' "core": {"top": [2, 2], "eps": 1, "bottom": [1, 1, 1, 1]}, "codim_oracle": 2, "codim": 2},'
    ' {"sigma": [5, 3, 3], "n": 2, "family": "c",'
    ' "core": {"top": [5], "eps": 1, "bottom": [3, 1, 1]}, "codim_oracle": 2, "codim": 2} ],'
    ' "verdict": "NotNormal", "partition": [7, 2, 2], "eps": 1 }')


def partitions(n: int, largest: int | None = None):
    """Every partition of n with parts at most largest, in decreasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def is_diagram(parts: tuple[int, ...], eps: str) -> bool:
    """Each part of the parity that pairs (even for eps +1, odd for -1) has even multiplicity."""
    paired = 0 if eps == "1" else 1
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2 == paired)


def csv(parts) -> str:
    return ",".join(map(str, parts))


def large_sample(eps: str) -> list[tuple[int, ...]]:
    """The fixed, seeded sample of LARGE_SAMPLE eps-diagrams of size LARGE."""
    diagrams = [parts for parts in partitions(LARGE) if is_diagram(parts, eps)]
    return random.Random(f"cli-corpus:{eps}").sample(diagrams, LARGE_SAMPLE)


def runs():
    """(argv, ORBIT_MAX_SIZE or None) for every run, in a fixed order."""
    for eps in EPS:
        for n in range(SMALL + 1):
            for fmt in ("json", "csv", "text"):
                yield ["survey", "--eps", eps, "--size", str(n), "--format", fmt], None
            for fmt in ("dot", "json"):
                yield ["hasse", "--eps", eps, "--size", str(n), "--format", fmt], None
            every = list(partitions(n))
            for parts in every:
                p = csv(parts)
                for fmt in ("json", "text"):
                    yield ["check", "--eps", eps, "--partition", p, "--format", fmt], None
                    yield ["dim", "--eps", eps, "--partition", p, "--format", fmt], None
                yield ["verify", "--eps", eps, "--partition", p], None
                if is_diagram(parts, eps):
                    for fmt in ("json", "text"):
                        yield ["check", "--eps", eps, "--partition", p, "--format", fmt,
                               "--oracle"], None
            diagrams = [csv(parts) for parts in every if is_diagram(parts, eps)]
            for top in diagrams:
                for bottom in diagrams:
                    for command in ("reduce", "classify"):
                        for fmt in ("json", "text"):
                            yield [command, "--eps", eps, "--top", top, "--bottom", bottom,
                                   "--format", fmt], None
        for parts in large_sample(eps):
            p = csv(parts)
            yield ["check", "--eps", eps, "--partition", p, "--format", "json", "--oracle"], None
            yield ["dim", "--eps", eps, "--partition", p, "--format", "json"], None
            yield ["verify", "--eps", eps, "--partition", p], None
    # help, usage and version
    yield [], None
    for flag in ("--help", "-h", "--version", "--bogus"):
        yield [flag], None
    for command in ("check", "survey", "hasse", "reduce", "classify", "dim", "verify", "nope"):
        yield [command], None
        yield [command, "--help"], None
        yield [command, "-h"], None
    yield ["check", "--eps", "1"], None
    yield ["check", "--ep", "1", "--partition", "3,1"], None
    yield ["check", "--eps=1", "--partition=3,1"], None
    yield ["check", "--eps", "1", "--eps", "1", "--partition", "3,1"], None
    yield ["check", "--eps", "1", "--partition", "3,1", "--format", "dot"], None
    yield ["survey", "--eps", "1", "--size", "x"], None
    yield ["hasse", "--eps", "1", "--size", "4", "--", "extra"], None
    yield ["verify", "--eps", "1", "--partition", "3,1", "--format", "json"], None
    # bad eps and bad partitions
    for eps in ("0", "2", "+2", "x", "", "--1", "+-1", "1.0"):
        yield ["check", "--eps", eps, "--partition", "3,1"], None
        yield ["survey", "--eps", eps, "--size", "3"], None
    for p in ("", "0", "3,,1", "a", "1,3", "-1", " 3", "3.0", "3,0", "3;1", "1" * 50, "41"):
        for command in ("check", "dim", "verify"):
            yield [command, "--eps", "1", "--partition", p], None
        yield ["reduce", "--eps", "1", "--top", p, "--bottom", "1,1"], None
        yield ["classify", "--eps", "1", "--top", "3,1", "--bottom", p], None
    # bounds: --max-size and ORBIT_MAX_SIZE
    for env in (None, "-1", "0", "3", "abc", "", "41", "100"):
        for bound in (None, "-5", "-1", "0", "2", "41"):
            extra = [] if bound is None else ["--max-size", bound]
            yield ["check", "--eps", "1", "--partition", "3,1", *extra], env
            yield ["check", "--eps", "-1", "--partition", "2,2", "--oracle", *extra], env
            yield ["survey", "--eps", "-1", "--size", "4", *extra], env
            yield ["hasse", "--eps", "1", "--size", "4", *extra], env
        yield ["dim", "--eps", "1", "--partition", "3,1"], env
        yield ["verify", "--eps", "1", "--partition", "3,1"], env
        yield ["reduce", "--eps", "1", "--top", "3,1", "--bottom", "1,1,1,1"], env
        yield ["classify", "--eps", "1", "--top", "3,1", "--bottom", "2,2"], env


def cache_runs():
    """argv of every check --cache run, in a fixed order; all share the file CACHE."""
    for eps in EPS:
        for n in range(CACHE_SIZE + 1):
            diagrams = [parts for parts in partitions(n) if is_diagram(parts, eps)]
            for i, parts in enumerate(diagrams):
                check = ["check", "--eps", eps, "--partition", csv(parts), "--cache", CACHE]
                for oracle in ([], ["--oracle"]):
                    for fmt in (("json", "text") if i % 2 == 0 else ("text", "json")):
                        yield [*check, "--format", fmt, *oracle]  # a miss, then a hit
    for oracle in ([], ["--oracle"]):
        for fmt in ("json", "text"):  # a miss past HAND_RECORD, then a hit
            yield ["check", "--eps", "1", "--partition", "7,2,2", "--cache", CACHE,
                   "--format", fmt, *oracle]


def run(argv: list[str], env: str | None) -> bytes:
    """argv, ORBIT_MAX_SIZE, the exit code, stdout and stderr of one in-process run."""
    from orbitnorm import cli  # here, so that the run set can be read without the package

    if env is None:
        os.environ.pop("ORBIT_MAX_SIZE", None)
    else:
        os.environ["ORBIT_MAX_SIZE"] = env
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = repr(cli.main(argv))
        except Exception as exc:  # recorded, so a crash changes the hash
            code = f"raised {type(exc).__name__}: {exc}"
    return repr((argv, env, code, out.getvalue(), err.getvalue())).encode() + b"\n"


def main() -> None:
    os.environ["COLUMNS"] = "80"
    digest, count = hashlib.sha256(), 0
    for argv, env in runs():
        digest.update(run(argv, env))
        count += 1
    os.environ.pop("ORBIT_MAX_SIZE", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path(CACHE).write_text(HAND_RECORD + "\n")
            for argv in cache_runs():
                digest.update(run(argv, None))
                digest.update(Path(CACHE).read_bytes())
                count += 1
        finally:
            os.chdir(home)
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
