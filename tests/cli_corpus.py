"""A byte-identity guard for the command line.

Runs a fixed list of command lines through ``orbitnorm.cli.main`` in-process,
captures each run's exit code, stdout and stderr, and prints one line,
``<runs> <sha256>``, hashed over every run in order.  Two source trees whose
command-line output is byte-identical print the same line:

    PYTHONPATH=src python tests/cli_corpus.py
    PYTHONPATH=<other tree>/src python tests/cli_corpus.py

pytest does not collect this file; ``tests/test_cli_corpus.py`` runs it and
compares its line with ``EXPECTED``, so a deliberate change of output means
editing ``EXPECTED``.  With ``--runs`` it prints instead one line per run,
``<sha256> <argv>``: the run's own hash, over what it adds to the line's, and
its argv as a shell would spell it.  One ``diff`` of two trees' listings then
names every run that was added, removed or changed:

    PYTHONPATH=src python tests/cli_corpus.py --runs > runs.txt

The run set:

- every command and format at n <= 10, both eps: ``survey`` and ``hasse`` in
  each format, ``check``, ``dim`` and ``verify`` on every partition (so also on
  the ones that are not eps-diagrams), and ``reduce`` and ``classify`` on every
  ordered pair of eps-diagrams of one size;
- ``check --oracle``, ``dim`` and ``verify`` on every eps-diagram with
  n <= 10 (above) and on a fixed, seeded sample of 8 eps-diagrams a form type
  at n = 40;
- help, usage errors and ``--version``;
- bad eps and partition input, a value that starts with "-", and
  ``--max-size`` on every command, below, at and above each size, also on a
  partition that is above the bound and no eps-diagram;
- at each reader of integer text (a partition part, ``--size`` and
  ``--max-size``), each spelling in ``NOT_INTEGER_TEXT`` and a value of 4,301
  digits, one more than ``int()`` converts by default;
- ``check --cache`` on one cache file, which starts with a hand-written
  record for [7,2,2] (spaces, keys in reverse order): on every eps-diagram with
  n <= 8, a plain check and then ``--oracle``, each a miss and then a hit, in
  json and text, and then each of those four on [7,2,2].  Only the program's
  own bytes hit, so the hand-written record is a miss: the plain json check
  appends its record once, the plain text check hits it, and ``--oracle`` does
  the same with a record of its own.  The cache file's bytes after each of
  these runs go into the hash as well.

It lists its inputs itself, without the package's enumeration, so a change
there shows in the hash rather than in the run set.  Every run's output is the
package's own, help and usage errors included, so the line is the same under
every CPython the package supports.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

#: The line this corpus prints for the current command-line output, under every CPython.
EXPECTED = "8253 87b524806ab3cdebbdff53d41ad9a437fa0231aed5174432060dd18cc1d29bce"
EPS = ("1", "-1")
SMALL = 10
LARGE = 40
LARGE_SAMPLE = 8
CACHE_SIZE = 8
#: Text that int() reads as an integer but the program does not: an integer is an optional
#: "-" and then ASCII digits.  A part is split on whitespace, so " 4" is the part 4.
NOT_INTEGER_TEXT = ("1_0", "+3", " 4", "4 ", "٣", "٤٠", "-٣")
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
    """argv of every run, in a fixed order."""
    for eps in EPS:
        for n in range(SMALL + 1):
            for fmt in ("json", "csv", "text"):
                yield ["survey", "--eps", eps, "--size", str(n), "--format", fmt]
            for fmt in ("dot", "json"):
                yield ["hasse", "--eps", eps, "--size", str(n), "--format", fmt]
            every = list(partitions(n))
            for parts in every:
                p = csv(parts)
                for fmt in ("json", "text"):
                    yield ["check", "--eps", eps, "--partition", p, "--format", fmt]
                    yield ["dim", "--eps", eps, "--partition", p, "--format", fmt]
                yield ["verify", "--eps", eps, "--partition", p]
                if is_diagram(parts, eps):
                    for fmt in ("json", "text"):
                        yield ["check", "--eps", eps, "--partition", p, "--format", fmt,
                               "--oracle"]
            diagrams = [csv(parts) for parts in every if is_diagram(parts, eps)]
            for top in diagrams:
                for bottom in diagrams:
                    for command in ("reduce", "classify"):
                        for fmt in ("json", "text"):
                            yield [command, "--eps", eps, "--top", top, "--bottom", bottom,
                                   "--format", fmt]
        for parts in large_sample(eps):
            p = csv(parts)
            yield ["check", "--eps", eps, "--partition", p, "--format", "json", "--oracle"]
            yield ["dim", "--eps", eps, "--partition", p, "--format", "json"]
            yield ["verify", "--eps", eps, "--partition", p]
    # help, usage and version
    yield []
    for flag in ("--help", "-h", "--version", "--bogus"):
        yield [flag]
    for command in ("check", "survey", "hasse", "reduce", "classify", "dim", "verify", "nope"):
        yield [command]
        yield [command, "--help"]
        yield [command, "-h"]
    yield ["check", "--eps", "1"]
    yield ["check", "--ep", "1", "--partition", "3,1"]
    yield ["check", "--eps=1", "--partition=3,1"]
    yield ["check", "--eps", "1", "--eps", "1", "--partition", "3,1"]
    yield ["check", "--eps", "1", "--partition", "3,1", "--format", "dot"]
    yield ["survey", "--eps", "1", "--size", "x"]
    yield ["hasse", "--eps", "1", "--size", "4", "--", "extra"]
    yield ["verify", "--eps", "1", "--partition", "3,1", "--format", "json"]
    # bad eps and bad partitions
    for eps in ("0", "2", "+2", "x", "", "--1", "+-1", "1.0"):
        yield ["check", "--eps", eps, "--partition", "3,1"]
        yield ["survey", "--eps", eps, "--size", "3"]
    for p in ("", "0", "3,,1", "a", "1,3", "-1", " 3", "3.0", "3,0", "3;1", "1" * 50, "41"):
        # verify on '' ran with the diagrams of 0, whose other runs all set --format
        for command in ("check", "dim", "verify") if p else ("check", "dim"):
            yield [command, "--eps", "1", "--partition", p]
        yield ["reduce", "--eps", "1", "--top", p, "--bottom", "1,1"]
        yield ["classify", "--eps", "1", "--top", "3,1", "--bottom", p]
    # a value that starts with "-": read when its head, up to a comma or whitespace, is an integer
    for p in ("-3,1", "-3 1", "-3,", "-x,1", "-,3", "--format"):
        yield ["check", "--eps", "1", "--partition", p]
    yield ["survey", "--eps", "1", "--size", "-x"]
    yield ["survey", "--eps", "1", "--size", "-3,1"]
    # bounds: --max-size, the one bound of every command
    for bound in (None, "-5", "-1", "0", "2", "3", "41", "100", "abc", ""):
        extra = [] if bound is None else ["--max-size", bound]
        yield ["check", "--eps", "1", "--partition", "3,1", *extra]
        yield ["check", "--eps", "-1", "--partition", "2,2", "--oracle", *extra]
        yield ["survey", "--eps", "-1", "--size", "4", *extra]
        yield ["hasse", "--eps", "1", "--size", "4", *extra]
        yield ["dim", "--eps", "1", "--partition", "3,1", *extra]
        if extra:  # verify on [3,1] without a bound ran with the diagrams of 4
            yield ["verify", "--eps", "1", "--partition", "3,1", *extra]
        yield ["reduce", "--eps", "1", "--top", "3,1", "--bottom", "1,1,1,1", *extra]
        yield ["classify", "--eps", "1", "--top", "3,1", "--bottom", "2,2", *extra]
    for bound in (None, "45"):  # a line is bounded before its partition is checked
        extra = [] if bound is None else ["--max-size", bound]
        for command in ("check", "dim", "verify"):
            yield [command, "--eps", "1", "--partition", "43,2", *extra]
    for bound in (None, "44", "45", "50"):  # above the default bound 40, the oracle's too
        extra = [] if bound is None else ["--max-size", bound]
        yield ["check", "--eps", "1", "--partition", "43,1,1", "--oracle", *extra]
        yield ["dim", "--eps", "-1", "--partition", "42,2", *extra]
        yield ["verify", "--eps", "-1", "--partition", "42,2", *extra]
        yield ["reduce", "--eps", "1", "--top", "41,3,1", "--bottom", "39,3,3", *extra]
        yield ["classify", "--eps", "1", "--top", "41,3,1", "--bottom", "39,3,3", *extra]
    # integer text at each of its readers: spellings int() reads, and too many digits
    for text in (*NOT_INTEGER_TEXT, "9" * 4301):
        yield ["check", "--eps", "1", "--partition", text]
        yield ["check", "--eps", "1", "--partition", f"1,{text}"]
        yield ["survey", "--eps", "1", "--size", text]
        yield ["hasse", "--eps", "1", "--size", "4", "--max-size", text]
        yield ["survey", "--eps", "-1", "--size", "4", "--max-size", text]


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


def run(argv: list[str]) -> bytes:
    """argv, the exit code, stdout and stderr of one in-process run."""
    from orbitnorm import cli  # here, so that the run set can be read without the package

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = repr(cli.main(argv))
        except Exception as exc:  # recorded, so a crash changes the hash
            code = f"raised {type(exc).__name__}: {exc}"
    return repr((argv, code, out.getvalue(), err.getvalue())).encode() + b"\n"


def records():
    """argv and what it adds to the hash, of every run in order: a cache run adds the cache
    file's bytes after it as well."""
    for argv in runs():
        yield argv, run(argv)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            Path(CACHE).write_text(HAND_RECORD + "\n")
            for argv in cache_runs():
                yield argv, run(argv) + Path(CACHE).read_bytes()
        finally:
            os.chdir(home)


def main(args: list[str]) -> None:
    if args not in ([], ["--runs"]):
        sys.exit("usage: cli_corpus.py [--runs]")
    digest, count = hashlib.sha256(), 0
    for argv, record in records():
        digest.update(record)
        count += 1
        if args:
            print(hashlib.sha256(record).hexdigest(), shlex.join(argv))
    if not args:
        print(count, digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
