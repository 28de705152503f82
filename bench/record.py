"""Record the expected answer of every input the workloads can issue.

Run once, at the commit whose answers are the reference, from the repository
root:

    PYTHONPATH=src python3 bench/record.py

It calls ``orbitnorm.cli.main`` in-process for every pooled orbit, every
sweep size and every golden, and writes ``bench/expected.json``.  The
benchmark compares each later answer with this file (see ``checks.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from checks import canonical, parse  # noqa: E402


def every_op() -> list[dict]:
    pools = inputs.pools()
    ops = [inputs.sweep_op(cmd, eps, n) for cmd in ("survey", "hasse")
           for eps, sizes in inputs.SWEEP_SIZES.items() for n in sizes]
    ops += [inputs.check_op(eps, parts) for eps, parts, _ in inputs.GOLDENS]
    for (n, eps), orbits in pools["check-large"].items():
        ops += [inputs.check_op(eps, p) for p in orbits]
    for cmd, by_stratum in pools["oracle"].items():
        for (n, eps), orbits in by_stratum.items():
            ops += [inputs.oracle_op(cmd, eps, p) for p in orbits]
    for (n, eps), orbits in pools["cache-hit"].items():
        ops += [inputs.check_op(eps, p, oracle=o) for p in orbits for o in (False, True)]
    for oracle, by_stratum in pools["cache-miss"].items():
        for (n, eps), orbits in by_stratum.items():
            ops += [inputs.check_op(eps, p, oracle=oracle) for p in orbits]
    return ops


def main() -> int:
    from orbitnorm.cli import main as cli_main

    expected = {}
    for op in every_op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(op["argv"]))
        answer = canonical(op, parse(op, out.getvalue()))
        expected[op["key"]] = {"answer": answer, "exit": code}
    path = HERE / "expected.json"
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
             for k, v in sorted(expected.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(expected)} answers in {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
