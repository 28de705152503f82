"""In-process timings of two source trees, side by side, in alternating fresh children.

    python tests/phases.py PARENT CHANGE [--pairs N] [--op NAME ...] [--json FILE]

PARENT and CHANGE are source trees, each with the package under ``src`` (a
``git archive`` of any commit will do).  For each operation, and for each of N
pairs, it starts one fresh ``python -S`` child per side, alternating which side
goes first.  A child puts its own tree's ``src`` first on ``sys.path``, imports
``orbitnorm.cli`` once and runs the operation through ``cli.main`` a fixed
number of times, with stdout and stderr sent to ``os.devnull``.  Before each
call it empties every memo of the package: every attribute of an ``orbitnorm``
module that has ``cache_clear``, so a memo that only one side has needs no
name.  A ``bench-*`` operation empties them before each command line of a call
instead, as the benchmark starts a fresh process for each.  The child reports
the median of its calls and its own peak RSS: on
Linux ``VmHWM`` from ``/proc/self/status``, because a child's ``ru_maxrss``
starts at its parent's peak at the fork and keeps it across ``exec``;
elsewhere ``ru_maxrss``.  The ``import`` operation times the import itself,
once a child.

For each operation the tool prints both sides' medians over the pairs, the
median paired difference (change - parent), how many pairs the change was
faster in, each side's median peak RSS, the number of command lines a call
runs, and each side's median per command line.  ``--json`` writes every child's
figures as well, the section a ``BENCH_<pr>.json`` carries.  The timings are
evidence, not a gate: a shared machine drifts by 2x from one run to the next,
and pairing is what survives that.

The operations:

- ``import``: ``import orbitnorm.cli`` in a fresh process;
- ``check-cache-hit`` and ``check-cache-miss``: a plain ``check --cache`` on a
  file of the records ``check --format json`` prints for every eps-diagram with
  1 <= n <= 36, both eps (30,965 records), written once by the CHANGE tree.  The hit
  asks for the last record's orbit, and a child fails if the file grows; the
  miss asks for [38] at eps -1, on a fresh copy of the file each call;
- ``survey-{csv,json,text}{+1,-1}``: ``survey --size 40``;
- ``check-oracle``, ``dim`` and ``verify``: each call runs the command on all
  16 diagrams of ``tests/cli_corpus.py``'s seeded n = 40 sample;
- ``bench-sweep``, ``bench-check-large`` and ``bench-oracle``: each call runs
  the operations of one seed-1 block of that benchmark workload, as
  ``bench/inputs.py`` schedules them (10, 12 and 18 command lines), so the
  per-line column is the package's own work per benchmark operation.

It imports only the standard library, the run set of ``cli_corpus.py`` and the
benchmark's schedule in ``bench/inputs.py``, and pytest does not collect it.
The children never see ``ORBIT_MAX_SIZE``, which trees older than the one
size bound ``--max-size`` still read.  Bytecode goes to a temporary
``PYTHONPYCACHEPREFIX``, compiled by one untimed child per side, so no tree is
written to.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_corpus import csv, is_diagram, large_sample, partitions

BENCH = Path(__file__).resolve().parent.parent / "bench"
CACHE_SIZE = 36  #: the cache file holds a record for every eps-diagram of size 1 to this
SURVEY_SIZE = 40
MISS = ["check", "--eps", "-1", "--partition", "38"]  #: an orbit no record in the file is for

#: The program each child runs: argv is TREE KIND CALLS CACHE, and one argv a stdin line.
#: KIND is import, hit, miss, plain or bench.  It prints "median_ns peak_rss_kib exit_codes".
CHILD = r'''
import sys, time
tree, kind, calls, cache = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
argvs = [line.split("\x1f") for line in sys.stdin.read().splitlines()]
sys.path.insert(0, tree + "/src")
start = time.perf_counter_ns()
from orbitnorm import cli
imported = time.perf_counter_ns() - start
import os, resource, shutil, statistics
from contextlib import redirect_stderr, redirect_stdout
if not cli.__file__.startswith(os.path.abspath(tree)):
    sys.exit(f"imported {cli.__file__}, not the tree's")
if cache != "-":
    size, work = os.path.getsize(cache), cache + f".{os.getpid()}"
    argvs = [[*argv, "--cache", work if kind == "miss" else cache] for argv in argvs]
def clear_memos():
    for module in [m for name, m in sys.modules.items() if name.startswith("orbitnorm")]:
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
times, codes = [imported], set()
with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
    for _ in range(0 if kind == "import" else calls):
        if kind == "miss":
            shutil.copyfile(cache, work)
        elapsed = 0
        for i, argv in enumerate(argvs):
            if i == 0 or kind == "bench":
                clear_memos()
            start = time.perf_counter_ns()
            codes.add(cli.main(argv))
            elapsed += time.perf_counter_ns() - start
        times.append(elapsed)
if kind == "miss":
    os.remove(work)
if kind == "hit" and os.path.getsize(cache) != size:
    sys.exit("the cache grew: the lookup missed")
try:  # the child's own peak: its ru_maxrss starts at the parent's peak at the fork
    with open("/proc/self/status") as status:
        rss = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(statistics.median(times[1:] or times), rss, ",".join(map(str, sorted(codes))) or "-")
'''


def diagrams(n: int, eps: str) -> list[str]:
    return [csv(parts) for parts in partitions(n) if is_diagram(parts, eps)]


def operations() -> dict:
    """name -> (kind, calls, argvs) for every operation."""
    ops = {"import": ("import", 1, [])}
    last = ["check", "--eps", "-1", "--partition", diagrams(CACHE_SIZE, "-1")[-1]]
    ops["check-cache-hit"] = ("hit", 15, [last])
    ops["check-cache-miss"] = ("miss", 15, [MISS])
    for fmt in ("csv", "json", "text"):
        for eps in ("1", "-1"):
            ops[f"survey-{fmt}{int(eps):+d}"] = ("plain", 3, [
                ["survey", "--eps", eps, "--size", str(SURVEY_SIZE), "--format", fmt]])
    sample = [(eps, csv(parts)) for eps in ("1", "-1") for parts in large_sample(eps)]
    ops["check-oracle"] = ("plain", 5, [
        ["check", "--eps", eps, "--partition", p, "--format", "json", "--oracle"]
        for eps, p in sample])
    ops["dim"] = ("plain", 5, [["dim", "--eps", eps, "--partition", p, "--format", "json"]
                               for eps, p in sample])
    ops["verify"] = ("plain", 5, [["verify", "--eps", eps, "--partition", p] for eps, p in sample])
    sys.path.insert(0, str(BENCH))
    from inputs import Schedule  # the benchmark's own schedule, so its operations are these

    for workload, calls in (("sweep", 5), ("check-large", 15), ("oracle", 5)):
        ops[f"bench-{workload}"] = ("bench", calls,
                                    [op["argv"] for op in Schedule(workload, 1).block()])
    return ops


def child(tree: Path, kind: str, calls: int, argvs: list, cache: str, env: dict) -> tuple:
    """(median ms, peak RSS MiB, exit codes) of one fresh child on tree."""
    stdin = "\n".join("\x1f".join(argv) for argv in argvs)
    cache_arg = cache if kind in ("hit", "miss") else "-"
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, str(tree), kind, str(calls),
                           cache_arg], input=stdin, env=env, capture_output=True, text=True,
                          timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {kind}: {proc.stderr.strip()}")
    median, rss, codes = proc.stdout.split()
    return int(float(median)) / 1e6, int(rss) / 1024, codes


def generate_cache(tree: Path, path: str, env: dict) -> int:
    """Write the record check --format json prints for each eps-diagram of size 1 to
    CACHE_SIZE, and count them."""
    script = (
        "import io, sys\nfrom contextlib import redirect_stdout\n"
        "sys.path.insert(0, sys.argv[1] + '/src')\nfrom orbitnorm import cli\n"
        "with open(sys.argv[2], 'w') as out:\n"
        "    for line in sys.stdin.read().splitlines():\n"
        "        buffer = io.StringIO()\n"
        "        with redirect_stdout(buffer):\n"
        "            cli.main(['check', '--format', 'json', *line.split()])\n"
        "        out.write(buffer.getvalue())\n")
    stdin = "\n".join(f"--eps {eps} --partition {p}" for eps in ("1", "-1")
                      for n in range(1, CACHE_SIZE + 1) for p in diagrams(n, eps))
    subprocess.run([sys.executable, "-S", "-c", script, str(tree), path], input=stdin, env=env,
                   check=True, text=True, timeout=1800)
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def summary(parent: list, change: list) -> dict:
    diffs = [c - p for p, c in zip(parent, change)]
    quartiles = statistics.quantiles(parent, n=4) if len(parent) > 1 else [0, 0, 0]
    return {"parent": parent, "change": change,
            "parent_median": round(statistics.median(parent), 3),
            "parent_iqr": round(quartiles[2] - quartiles[0], 3),
            "change_median": round(statistics.median(change), 3),
            "paired_diff_median": round(statistics.median(diffs), 3),
            "change_faster_pairs": sum(d < 0 for d in diffs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--op", action="append", help="an operation to run (default: all)")
    parser.add_argument("--json", help="write every child's figures to this file")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as scratch:
        cache = os.path.join(scratch, "cache.jsonl")
        ops = operations()
        chosen = args.op or list(ops)
        unknown = sorted(set(chosen) - set(ops))
        if unknown:
            parser.error(f"unknown operation {', '.join(unknown)}; known: {', '.join(ops)}")
        env = {key: value for key, value in os.environ.items()
               if key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "ORBIT_MAX_SIZE")}
        env["PYTHONPYCACHEPREFIX"] = os.path.join(scratch, "pycache")
        if {"check-cache-hit", "check-cache-miss"} & set(chosen):
            records = generate_cache(trees["change"], cache, env)
            print(f"cache: {records} records, {os.path.getsize(cache):,} bytes", flush=True)
        for tree in trees.values():  # compiles each tree's bytecode, untimed
            child(tree, "import", 1, [], cache, env)
        print(f"{'operation':<18} {'parent ms':>10} {'change ms':>10} {'diff ms':>9}"
              f" {'faster':>7} {'parent MiB':>10} {'change MiB':>10} {'lines':>5}"
              f" {'parent/line':>11} {'change/line':>11}", flush=True)
        results = {}
        for name in chosen:
            kind, calls, argvs = ops[name]
            runs = {side: [] for side in trees}
            for pair in range(args.pairs):
                order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
                for side in order:
                    runs[side].append(child(trees[side], kind, calls, argvs, cache, env))
            codes = {side: {r[2] for r in runs[side]} for side in trees}
            if codes["parent"] != codes["change"]:
                print(f"warning: {name}: exit codes differ: {codes}", file=sys.stderr)
            result = summary([r[0] for r in runs["parent"]], [r[0] for r in runs["change"]])
            for side in trees:
                result[f"{side}_rss_mib"] = [round(r[1], 1) for r in runs[side]]
            result["calls"], result["argvs"] = calls, argvs
            lines = max(len(argvs), 1)  # import runs no command line: its figure is the import
            for side in trees:
                result[f"{side}_median_per_line"] = round(result[f"{side}_median"] / lines, 3)
            results[name] = result
            print(f"{name:<18} {result['parent_median']:>10.3f} {result['change_median']:>10.3f}"
                  f" {result['paired_diff_median']:>+9.3f}"
                  f" {result['change_faster_pairs']:>3}/{args.pairs:<3}"
                  f" {statistics.median(result['parent_rss_mib']):>10.1f}"
                  f" {statistics.median(result['change_rss_mib']):>10.1f} {len(argvs):>5}"
                  f" {result['parent_median_per_line']:>11.3f}"
                  f" {result['change_median_per_line']:>11.3f}", flush=True)
    if args.json:
        note = (f"tests/phases.py: python3 -S, one fresh child per side per pair, {args.pairs}"
                " alternating pairs (parent first in even pairs); each child's value is the"
                " median of its calls, in ms, with every package memo emptied before each call"
                " (before each command line for bench-*); rss is each child's own peak (VmHWM,"
                " else ru_maxrss)")
        document = {"note": note, "python": sys.version.split()[0],
                    "trees": {side: str(tree) for side, tree in trees.items()},
                    "results": results}
        Path(args.json).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
