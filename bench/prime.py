"""Prime a verdict cache file for the cache workloads.

usage: python3 bench/prime.py CACHE SIZES_JSON EXCLUDE_JSON ORBITS_JSON

SIZES_JSON is a list of [n, eps]: each size's ``survey --format json``
results become filler records, one report per line, serialized as the
program serializes its cache, except the orbits EXCLUDE_JSON lists as
[eps, parts].  ORBITS_JSON is a list of [eps, parts]: each goes through
``check --cache CACHE``, so the program writes those records itself, after
all the filler, and later lookups of them are hits.  Both run in this one
process.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys


def main() -> int:
    from orbitnorm.cli import main as cli_main

    path, sizes, exclude, orbits = sys.argv[1], *map(json.loads, sys.argv[2:5])
    exclude = {(eps, tuple(parts)) for eps, parts in exclude}
    with open(path, "w", encoding="utf-8") as cache:
        for n, eps in sizes:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["survey", "--eps", f"{eps:+d}", "--size", str(n),
                                 "--format", "json"])
            if code != 0:
                return code
            for report in json.loads(out.getvalue())["results"]:
                if (report["eps"], tuple(report["partition"])) not in exclude:
                    cache.write(json.dumps(report, separators=(",", ":"), sort_keys=True)
                                + "\n")
    for eps, parts in orbits:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["check", "--eps", f"{eps:+d}", "--partition",
                             ",".join(map(str, parts)), "--cache", path, "--format", "json"])
        if code not in (0, 10, 11):
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
