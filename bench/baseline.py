"""Run the benchmark over several seeds and summarise each metric.

usage: python3 bench/baseline.py [--out FILE]

Run from the repository root.  For every workload in BENCHMARK.json it runs
``bench/run.py`` for ``run_seconds`` once per seed 1-10, then reports each
end-to-end metric's median, quartiles and spread (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles) next
to the bound in BENCHMARK.json.  It also runs the ``cache-oracle-repeat``
probe once and records its failure ratio.  With ``--out`` the summary is
written as JSON, together with the run metadata.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    meta = next(json.loads(line)["meta"] for line in proc.stderr.splitlines()
                if line.startswith('{"meta"'))
    return json.loads(proc.stdout.strip().splitlines()[-1]), meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    summary: dict = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result, meta = run(workload, seed, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary["meta"] = {k: meta[k] for k in ("python", "nproc", "commit", "src_lines",
                                                "process_model")}
        rows = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            rows[name] = {"values": xs, "median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"{workload:12s} {name:12s} median {median:10.5g}  spread "
                  f"{rows[name]['spread']:.4f}  bound {bounds[name]}", file=sys.stderr)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": rows}
    probe, _ = run("cache-oracle-repeat", SEEDS[0], seconds)
    summary["cache-oracle-repeat"] = {
        "seed": SEEDS[0], "attempted": probe["attempted"], "failed": probe["failed"],
        "failed_ratio": probe["failed"] / probe["attempted"],
    }
    print(f"cache-oracle-repeat failed {probe['failed']} of {probe['attempted']}",
          file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
