"""Benchmark inputs, generated by the benchmark's own code.

Partitions and the eps-parity rule are implemented here rather than taken
from ``orbitnorm``, so a defect in the program's enumeration cannot shrink
or reshape a workload.  Every workload is a list of *strata*; one *block* of
a workload holds a fixed number of operations per stratum (one, except the
cache hits).  A run executes whole blocks, so the mix of sizes and commands
is the same in every run and only the seeded choice of orbit inside each
stratum (and the order) differs between seeds.

Orbits are drawn from fixed pools whose answers ``record.py`` stored in
``expected.json`` at the seed commit; the run's ``--seed`` picks which pool
entries appear and in which order.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

#: Pool seed: fixes the orbits whose expected answers are on record.
POOL_SEED = 20150101
#: Orbits per pool stratum.
POOL_SIZE = 10

SWEEP_SIZES = {1: (16, 17, 18), -1: (16, 18)}
CHECK_LARGE_SIZES = (30, 32, 34, 36, 38, 40)
ORACLE_SIZES = (16, 20, 24)
# Filler records: every orbit up to these sizes except the pooled hit and
# miss orbits, about three thousand records.  The hit orbits are appended after
# the filler, so a hit scans the whole file, and a miss never finds a record.
CACHE_FILLER_MAX = {1: 24, -1: 24}
CACHE_HIT_STRATA = ((18, 1), (18, -1), (19, 1), (20, 1), (20, -1))
CACHE_HIT_POOL = 4
CACHE_MISS_STRATA = ((21, 1), (22, 1), (22, -1), (23, 1), (24, 1), (24, -1))
#: Every miss needs an orbit not yet cached in the run, and each miss
#: stratum uses one orbit per oracle flag every two blocks: a pool of 40
#: lasts 80 blocks, about 220 seconds, where a 20-second run needs 7.
CACHE_MISS_POOL = 40

#: (eps, partition, expected verdict) from the paper, plus [2n] for eps -1
#: and [2n+1] for eps +1, which are always Normal.
GOLDENS = (
    (1, (7, 2, 2), "NotNormal"),
    (-1, (6, 1, 1), "Normal"),
    (-1, (4, 4, 3, 3), "Undetermined"),
    (-1, (16,), "Normal"),
    (1, (17,), "Normal"),
)


@lru_cache(maxsize=None)
def count_partitions(n: int, cap: int) -> int:
    """Number of partitions of n with every part at most cap."""
    if n == 0:
        return 1
    return sum(count_partitions(n - first, first) for first in range(1, min(n, cap) + 1))


def uniform_partition(n: int, rng: random.Random) -> tuple[int, ...]:
    """A partition of n drawn uniformly at random, parts in decreasing order."""
    parts = []
    cap = n
    while n:
        r = rng.randrange(count_partitions(n, cap))
        for first in range(min(n, cap), 0, -1):
            c = count_partitions(n - first, first)
            if r < c:
                break
            r -= c
        parts.append(first)
        n -= first
        cap = first
    return tuple(parts)


def all_partitions(n: int, cap: int | None = None):
    """Every partition of n in reverse-lexicographic order."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def is_diagram(parts, eps: int) -> bool:
    """Parity rule: even parts (eps +1) or odd parts (eps -1) pair up."""
    bad_parity = 0 if eps == 1 else 1
    return all(m % 2 == 0 for part, m in Counter(parts).items() if part % 2 == bad_parity)


def diagrams(n: int, eps: int) -> list[tuple[int, ...]]:
    return [p for p in all_partitions(n) if is_diagram(p, eps)]


def random_diagram(n: int, eps: int, rng: random.Random, exclude=()) -> tuple[int, ...]:
    while True:
        p = uniform_partition(n, rng)
        if is_diagram(p, eps) and p not in exclude:
            return p


def csv(parts) -> str:
    return ",".join(map(str, parts))


def eps_arg(eps: int) -> str:
    return f"{eps:+d}"


# --- operations ----------------------------------------------------------
# An operation is a dict: "kind" names the command and how to check it,
# "argv" is the orbitnorm command line, "key" indexes expected.json.

def check_op(eps, parts, oracle=False, cache=False, kind="check"):
    argv = ["check", "--eps", eps_arg(eps), "--partition", csv(parts), "--format", "json"]
    if oracle:
        argv.append("--oracle")
    return {
        "kind": kind,
        "eps": eps,
        "partition": list(parts),
        "oracle": oracle,
        "cache": cache,
        "argv": argv,
        "key": f"{'check-oracle' if oracle else 'check'}:{eps_arg(eps)}:{csv(parts)}",
    }


def sweep_op(cmd, eps, n):
    return {
        "kind": cmd,
        "eps": eps,
        "n": n,
        "argv": [cmd, "--eps", eps_arg(eps), "--size", str(n), "--format", "json"],
        "key": f"{cmd}:{eps_arg(eps)}:{n}",
    }


def oracle_op(cmd, eps, parts):
    if cmd == "check":
        return check_op(eps, parts, oracle=True)
    argv = [cmd, "--eps", eps_arg(eps), "--partition", csv(parts)]
    if cmd == "dim":
        argv += ["--format", "json"]
    return {
        "kind": cmd,
        "eps": eps,
        "partition": list(parts),
        "argv": argv,
        "key": f"{cmd}:{eps_arg(eps)}:{csv(parts)}",
    }


# --- pools -----------------------------------------------------------------

def _pool(strata, size, seed_tag, reject=lambda p: False):
    """For each (n, eps) stratum, `size` distinct orbits from a fixed seed."""
    out = {}
    for n, eps in strata:
        rng = random.Random(f"{POOL_SEED}:{seed_tag}:{n}:{eps}")
        picked: list[tuple[int, ...]] = []
        while len(picked) < size:
            p = random_diagram(n, eps, rng, exclude=picked)
            if not reject(p):
                picked.append(p)
        out[(n, eps)] = picked
    return out


def check_large_strata():
    return [(n, eps) for n in CHECK_LARGE_SIZES for eps in (1, -1)]


def oracle_strata():
    return [(cmd, n, eps) for cmd in ("check", "dim", "verify")
            for n in ORACLE_SIZES for eps in (1, -1)]


def pools() -> dict:
    """Every orbit the workloads can touch, keyed by workload."""
    # verify needs a nonzero map: the all-ones partition has no image
    all_ones = lambda p: p[0] == 1
    oracle_by_cmd = {
        cmd: _pool([(n, eps) for n in ORACLE_SIZES for eps in (1, -1)], POOL_SIZE,
                   f"oracle-{cmd}", all_ones)
        for cmd in ("check", "dim", "verify")
    }
    miss = _pool(CACHE_MISS_STRATA, 2 * CACHE_MISS_POOL, "cache-miss")
    return {
        "check-large": _pool(check_large_strata(), POOL_SIZE, "check-large"),
        "oracle": oracle_by_cmd,
        "cache-hit": _pool(CACHE_HIT_STRATA, CACHE_HIT_POOL, "cache-hit"),
        # one pool split in two, so a plain miss never caches an oracle orbit
        "cache-miss": {
            oracle: {k: v[oracle::2] for k, v in miss.items()} for oracle in (False, True)
        },
    }


def filler_sizes():
    return [(n, eps) for eps in (1, -1) for n in range(1, CACHE_FILLER_MAX[eps] + 1)
            if eps == 1 or n % 2 == 0]


def cache_orbits(pool) -> list:
    """[eps, parts] of every orbit in a cache-hit or cache-miss pool."""
    return [[eps, list(p)] for (n, eps), orbits in pool.items() for p in orbits]


# --- schedules -------------------------------------------------------------

class Schedule:
    """Seeded stream of blocks for one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in BLOCKS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.pools = pools()
        self.used: set = set()
        self.blocks = 0

    def block(self) -> list[dict] | None:
        """Next block of operations, or None when a pool is exhausted."""
        ops = BLOCKS[self.workload](self)
        if ops is None:
            return None
        self.blocks += 1
        self.rng.shuffle(ops)
        return ops

    def pick(self, pool, fresh=False):
        """A seeded pool entry; with fresh, one not picked before in this run."""
        choices = [p for p in pool if not (fresh and p in self.used)]
        if not choices:
            return None
        p = self.rng.choice(choices)
        self.used.add(p)
        return p


def _sweep_block(s: Schedule):
    return [sweep_op(cmd, eps, n) for cmd in ("survey", "hasse")
            for eps, sizes in SWEEP_SIZES.items() for n in sizes]


def _check_large_block(s: Schedule):
    pool = s.pools["check-large"]
    return [check_op(eps, s.pick(pool[(n, eps)])) for n, eps in check_large_strata()]


def _oracle_block(s: Schedule):
    pool = s.pools["oracle"]
    return [oracle_op(cmd, eps, s.pick(pool[cmd][(n, eps)])) for cmd, n, eps in oracle_strata()]


def _cache_block(s: Schedule):
    # Two hits per hit stratum and one miss per miss stratum: hits are the
    # majority, so the median follows the hit path and the tail the miss
    # path.  The oracle flag alternates by stratum and block, so half the
    # misses also run the matrix oracle before they append.
    hit, miss = s.pools["cache-hit"], s.pools["cache-miss"]
    ops = [check_op(eps, s.pick(hit[(n, eps)]), cache=True, kind="cache-hit")
           for n, eps in CACHE_HIT_STRATA for _ in range(2)]
    for i, (n, eps) in enumerate(CACHE_MISS_STRATA):
        oracle = (i + s.blocks) % 2 == 1
        parts = s.pick(miss[oracle][(n, eps)], fresh=True)
        if parts is None:
            return None
        ops.append(check_op(eps, parts, oracle=oracle, cache=True, kind="cache-miss"))
    return ops


def _cache_oracle_repeat_block(s: Schedule):
    # Known-defect probe: each hit orbit was cached by a plain call, and a
    # seeded half of the calls ask again with --oracle.
    pool = s.pools["cache-hit"]
    return [check_op(eps, s.pick(pool[(n, eps)]), oracle=s.rng.random() < 0.5, cache=True,
                     kind="cache-repeat")
            for n, eps in CACHE_HIT_STRATA]


BLOCKS = {
    "sweep": _sweep_block,
    "check-large": _check_large_block,
    "oracle": _oracle_block,
    "cache": _cache_block,
    "cache-oracle-repeat": _cache_oracle_repeat_block,
}
