#!/usr/bin/env python3
"""Benchmark for the orbitnorm command-line program.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation is one ``orbitnorm`` command
run in a fresh interpreter, one at a time: a closed loop with a single
client.  A fresh process per operation is what a command-line user pays on
every call, and it starts the package's module-level ``lru_cache``s
(``_partitions_desc``, ``_orbit_dim_cached``) empty each time.

Workloads (``inputs.py`` builds their operations from ``--seed``):

  sweep        survey and hasse, JSON, both eps, whole sizes 16-18
  check-large  cold single-orbit check on eps-diagrams of size 30-40
  oracle       check --oracle, dim and verify at dimension 16-24
  cache        check --cache on a primed cache file: 10 hits, 6 misses a block
  all          every workload above in turn, one summary

``cache-oracle-repeat`` is a probe for a known defect, not a benchmark
workload: it asks ``check --cache --oracle`` about orbits a plain call
cached, and the program answers without ``codim_oracle``.

A run executes about ``--seconds`` worth of whole blocks of operations (see
``BLOCK_SECONDS``).  With ``--trace 0`` it reports the end-to-end metrics.
With ``--trace 1`` it runs each operation twice, once through
``trace_boot.py`` and once plain, and reports per-layer metrics with the
tracing overhead; the counts depend only on the seed and ``--seconds``.

The first run in a checkout also primes the cache workload's verdict cache
(about a minute, see ``Runner.primed_cache``); later runs reuse it.

Every answer is checked (``checks.py``).  The last line of standard output
is one JSON object with keys correct, attempted, failed and metrics; a
human-readable summary and the run's metadata and inputs go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
from checks import MissingExpectation, WrongAnswer, check_answer  # noqa: E402

WORKLOADS = ("sweep", "check-large", "oracle", "cache")
PROBES = ("cache-oracle-repeat",)
#: --version processes per run; setup_s is their median.
SETUP_REPEATS = 15
#: An operation running longer than this is killed and counted as failed.
OP_TIMEOUT_S = 60.0
#: What the ``orbitnorm`` console script runs.
LAUNCH = "import sys; from orbitnorm.cli import main; sys.exit(main())"
BUILD = ROOT / ".bench_build"
#: Seconds one block of each workload took at the seed commit on a 2-core
#: x86-64 machine under Python 3.11.7.  A run executes the whole number of
#: blocks nearest to --seconds / BLOCK_SECONDS, so every run of a workload
#: measures the same mix of operations; it starts no new block after
#: 1.5 times --seconds, which bounds the run time of a much slower program.
BLOCK_SECONDS = {
    "sweep": 7.9,
    "check-large": 7.7,
    "oracle": 2.4,
    "cache": 2.8,
    "cache-oracle-repeat": 0.65,
}


class BenchError(Exception):
    """The benchmark cannot run or cannot check an answer."""


class Runner:
    """Starts orbitnorm processes with a fixed environment and measures them."""

    def __init__(self, work: Path):
        self.work = work
        # ORBIT_MAX_SIZE is left unset on purpose: it changes hasse's bound.
        self.env = {
            "PATH": os.defpath,
            "PYTHONPATH": str(SRC),
            "PYTHONPYCACHEPREFIX": str(BUILD / "pycache"),
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C.UTF-8",
            "HOME": str(work),
        }
        self.peak_rss_kb = 0

    def run(self, argv: list[str], trace_to: Path | None = None, op_id: int = 0):
        """(exit code, stdout, stderr, wall seconds, timed out) of one process."""
        if trace_to is None:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        else:
            cmd = [sys.executable, str(HERE / "trace_boot.py"), str(trace_to), str(op_id), *argv]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        timed_out = seconds >= OP_TIMEOUT_S
        return (proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), seconds, timed_out)

    def primed_cache(self) -> Path:
        """The cache file primed by this program for these inputs, priming it if need be.

        Priming runs ``survey`` over every size up to ``CACHE_FILLER_MAX``,
        which takes about a minute, so it is part of a checkout's set-up: the
        first run of any workload primes the file into ``.bench_build``,
        named by a digest of the sources and inputs, and later runs reuse it.
        """
        pools = inputs.pools()
        excluded = (inputs.cache_orbits(pools["cache-hit"])
                    + [o for pool in pools["cache-miss"].values()
                       for o in inputs.cache_orbits(pool)])
        args = [json.dumps(inputs.filler_sizes()), json.dumps(excluded),
                json.dumps(inputs.cache_orbits(pools["cache-hit"]))]
        digest = hashlib.sha256("\0".join(args).encode())
        for source in [*sorted((SRC / "orbitnorm").glob("*.py")), HERE / "prime.py"]:
            digest.update(source.read_bytes())
        primed = BUILD / f"primed-{digest.hexdigest()[:16]}.jsonl"
        if not primed.exists():
            partial = self.work / "priming.jsonl"
            proc = subprocess.run([sys.executable, str(HERE / "prime.py"), str(partial), *args],
                                  stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  cwd=self.work, env=self.env, timeout=600)
            if proc.returncode != 0:
                raise BenchError(f"priming the cache failed:\n{proc.stderr}")
            os.replace(partial, primed)
        return primed


class Cache:
    """The primed JSONL verdict cache, copied afresh for every pass."""

    def __init__(self, runner: Runner, name: str = "cache.jsonl"):
        self.primed = runner.primed_cache()
        self.live = runner.work / name

    def reset(self) -> None:
        shutil.copyfile(self.primed, self.live)

    def records(self) -> int:
        with open(self.live, encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())


class Pass:
    """Runs operations, checks every answer and keeps the measurements."""

    def __init__(self, runner: Runner, expected: dict, cache: Cache | None):
        self.runner = runner
        self.expected = expected
        self.cache = cache
        self.attempted = 0
        self.failed = 0
        self.samples: list[tuple[dict, float]] = []
        self.failures: list[str] = []
        # latencies of --cache calls, split by whether the cache file grew
        self.hit_times: list[float] = []
        self.miss_times: list[float] = []

    def op(self, op: dict, trace_to: Path | None = None, op_id: int = 0) -> None:
        argv = list(op["argv"])
        before = None
        if op.get("cache"):
            argv += ["--cache", str(self.cache.live)]
            before = self.cache.live.stat().st_size
        code, out, err, seconds, timed_out = self.runner.run(argv, trace_to, op_id)
        self.attempted += 1
        self.samples.append((op, seconds))
        try:
            if timed_out:
                raise WrongAnswer(f"timed out after {OP_TIMEOUT_S} s")
            if before is not None:
                # hit or miss is decided from outside: a miss appends a record
                grew = self.cache.live.stat().st_size > before
                (self.miss_times if grew else self.hit_times).append(seconds)
                if op["kind"] == "cache-hit" and grew:
                    raise WrongAnswer("cached orbit was recomputed and appended again")
                if op["kind"] == "cache-miss" and not grew:
                    raise WrongAnswer("uncached orbit was answered without a new record")
            check_answer(op, code, out, err, self.expected)
        except WrongAnswer as exc:
            self.failed += 1
            self.failures.append(f"{' '.join(op['argv'])}: {exc}")
        except MissingExpectation as exc:
            raise BenchError(f"cannot check {' '.join(op['argv'])}: {exc}") from None


# --- metrics -----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(p: Pass, wall: float, setup: list[float], peak_rss_kb: int) -> dict:
    times = [s for _, s in p.samples]
    tail_value, _ = tail(times)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(times) / wall, "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def extras(workload: str, p: Pass, expected: dict) -> dict:
    """Readings printed in the summary only (see bench/README.md)."""
    _, percentile = tail([s for _, s in p.samples])
    out = {
        "samples": (len(p.samples), "count"),
        "tail_percentile": (percentile, "%"),
        "failed_ratio": (p.failed / p.attempted, "ratio"),
    }
    if workload == "sweep":
        for kind, field, name in (("survey", "orbits", "survey_orbits_per_s"),
                                  ("hasse", "edges", "hasse_edges_per_s")):
            mine = [(op, s) for op, s in p.samples if op["kind"] == kind]
            items = sum(expected[op["key"]]["answer"][field] for op, _ in mine)
            out[name] = (items / sum(s for _, s in mine), "1/s")
    if p.hit_times or p.miss_times:
        out["cache_hits"] = (len(p.hit_times), "count")
        out["cache_misses"] = (len(p.miss_times), "count")
    if p.hit_times:
        out["cache_hit_p50_ms"] = (statistics.median(p.hit_times) * 1e3, "ms")
    if p.miss_times:
        out["cache_miss_p50_ms"] = (statistics.median(p.miss_times) * 1e3, "ms")
    return out


# --- one workload ------------------------------------------------------------

def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((SRC / "orbitnorm").glob("*.py")))


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "process_model": "fresh interpreter per operation, one client, closed loop",
    }


def warm(runner: Runner) -> None:
    """One untimed call, so bytecode compilation is not timed."""
    code, out, err, _, _ = runner.run(["--version"])
    if code != 0 or not out.strip():
        raise BenchError(f"orbitnorm --version failed (exit {code}):\n{err}")


def preflight(p: Pass) -> None:
    """The paper's golden verdicts, checked (not timed) on every run."""
    for eps, parts, _ in inputs.GOLDENS:
        p.op(inputs.check_op(eps, parts))
    p.samples.clear()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runner: Runner,
                 expected: dict) -> dict:
    schedule = inputs.Schedule(workload, seed)
    blocks = max(1, int(seconds / BLOCK_SECONDS[workload] + 0.5))
    plan = [schedule.block() for _ in range(blocks)]
    plan = [block for block in plan if block is not None]
    warm(runner)
    runner.primed_cache()  # the checkout's set-up, whichever workload runs first
    cache = Cache(runner) if workload.startswith("cache") else None
    check = Pass(runner, expected, cache)
    preflight(check)
    if trace:
        return traced_workload(plan, runner, expected, cache, check)

    if cache is not None:
        cache.reset()
    p = Pass(runner, expected, cache)
    # setup_s samples are spread over the run, so they see the same machine
    # conditions as the operations they sit between
    setup_every = max(1, sum(map(len, plan)) // SETUP_REPEATS)
    setup: list[float] = []
    start = time.perf_counter()
    for block in plan:
        if time.perf_counter() - start > 1.5 * seconds:
            break
        for op in block:
            p.op(op)
            if len(p.samples) % setup_every == 0:
                setup.append(runner.run(["--version"])[3])
    wall = time.perf_counter() - start - sum(setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.run(["--version"])[3])
    return {
        "attempted": check.attempted + p.attempted,
        "failed": check.failed + p.failed,
        "failures": check.failures + p.failures,
        "metrics": end_to_end(p, wall, setup, runner.peak_rss_kb),
        "extras": extras(workload, p, expected),
        "inputs": [op["key"] for op, _ in p.samples],
    }


def traced_workload(plan, runner, expected, cache, check) -> dict:
    """The same operations traced and plain; counts depend only on the plan.

    Each operation runs once traced and once plain, in alternating order, so
    both passes see the same machine conditions and overhead_s compares like
    with like.  Each pass has its own copy of the primed cache.
    """
    agg = layers.Aggregate()
    passes = {}
    for traced in (True, False):
        pass_cache = None
        if cache is not None:
            pass_cache = Cache(runner, f"cache-{'traced' if traced else 'plain'}.jsonl")
            pass_cache.reset()
        passes[traced] = Pass(runner, expected, pass_cache)
    span_file = runner.work / "spans.json"
    for i, op in enumerate(op for block in plan for op in block):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            passes[traced].op(op, span_file if traced else None, i)
            if traced:
                agg.add_file(span_file)
    if agg.absent:
        print(f"absent from the package: {', '.join(sorted(agg.absent))}", file=sys.stderr)
    traced_pass = passes[True]
    wall = {t: sum(s for _, s in passes[t].samples) for t in passes}
    metrics = layers.per_layer_metrics(
        agg,
        {"hits": len(traced_pass.hit_times), "misses": len(traced_pass.miss_times),
         "records": traced_pass.cache.records() if cache is not None else 0},
        {"ops": len(traced_pass.samples), "traced": wall[True], "untraced": wall[False]})
    everything = (check, traced_pass, passes[False])
    return {
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "failures": [f for p in everything for f in p.failures],
        "metrics": metrics,
        "extras": {},
        "inputs": [op["key"] for op, _ in traced_pass.samples],
    }


# --- entry point -------------------------------------------------------------

def summarize(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} attempted, {result['failed']} failed",
          file=sys.stderr)
    for name, (value, unit) in {**result["metrics"], **result["extras"]}.items():
        print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    for line in result["failures"][:20]:
        print(f"  FAILED {line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + PROBES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitnorm" / "cli.py").is_file():
        print(f"error: no orbitnorm sources under {SRC}", file=sys.stderr)
        return 2
    expected_path = HERE / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    BUILD.mkdir(exist_ok=True)
    work = BUILD / f"work-{os.getpid()}"
    work.mkdir()
    try:
        results = {}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), Runner(work),
                                  expected)
            meta = metadata(name, args.seed, bool(args.trace))
            print(json.dumps({"meta": meta, "inputs": result["inputs"]}), file=sys.stderr)
            summarize(name, result)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
