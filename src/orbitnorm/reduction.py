"""Cancellation of common leading rows and columns of a degeneration pair.

Erasing a shared leading row removes it from both diagrams; erasing a shared
leading column decrements every part and flips the form type.  Erasing every
common row, then every common column, yields the irreducible core, against
which the classification table is matched.  The sign rule is
eps' = (-1)^s * eps; the package README says why it carries the original eps.
"""

from collections import namedtuple

from .degeneration import DegenPair
from .errors import ContractError
from .partitions import Partition

# Erasure ledger events: ("row", length) or ("col", height), in erasure order.
Step = tuple[str, int]


def common_leading_rows(pair: DegenPair) -> int:
    """Largest r with the first r parts of bottom and top equal."""
    r = 0
    for b, t in zip(pair.bottom, pair.top):
        if b != t:
            break
        r += 1
    return r


def common_leading_columns(pair: DegenPair) -> int:
    """Largest s with the first s column heights of bottom and top equal."""
    s = 0
    for b, t in zip(pair.bottom.dual(), pair.top.dual()):
        if b != t:
            break
        s += 1
    return s


def is_irreducible(pair: DegenPair) -> bool:
    """No shared leading row and no shared leading column remain."""
    if not pair.is_strict:
        raise ContractError("irreducibility is undefined for an equal pair")
    return common_leading_rows(pair) == 0 and common_leading_columns(pair) == 0


class ReductionResult(namedtuple("ReductionResult", "core steps")):
    """Irreducible core of a pair together with the full erasure ledger."""

    __slots__ = ()

    core: DegenPair
    steps: tuple[Step, ...]

    @property
    def erased_rows(self) -> tuple[int, ...]:
        return tuple(value for kind, value in self.steps if kind == "row")

    @property
    def erased_columns(self) -> int:
        return sum(1 for kind, _ in self.steps if kind == "col")


def irreducible_core(pair: DegenPair, columns_first: bool = False) -> ReductionResult:
    """Erase every common row, then every common column (columns_first: the other order).

    Neither phase makes anything common for the other, so this is the fixpoint.
    With no common row left the first parts differ; erasing common columns
    keeps the sizes equal, so they cannot both vanish, and they stay different.
    With no common column left the row counts differ, and erasing common rows
    lowers both by as much.  So the core is irreducible; classify_core checks it again.
    Every erasure is recorded in order.
    """
    if not pair.is_strict:
        raise ContractError("cannot reduce an equal pair")
    current = pair
    steps: list[Step] = []
    for rows in (not columns_first, columns_first):
        count = common_leading_rows(current) if rows else common_leading_columns(current)
        if not count:  # an empty phase would only rebuild the pair
            continue
        bottom, top = current.bottom, current.top
        if rows:
            steps.extend(("row", length) for length in top[:count])
            current = DegenPair(current.eps, bottom[count:], top[count:])
        else:  # the form type flips once per erased column
            steps.extend(("col", height) for height in top.dual()[:count])
            eps = current.eps if count % 2 == 0 else -current.eps
            current = DegenPair(eps, [x - count for x in bottom if x > count],
                                [x - count for x in top if x > count])
    return ReductionResult(core=current, steps=tuple(steps))


def _add_column(p: Partition, height: int) -> Partition:
    parts = list(p) + [0] * max(0, height - len(p))
    if height < len(p):
        raise ContractError(f"column of height {height} too short for {p}")
    return Partition(x + 1 if i < height else x for i, x in enumerate(parts))


def _add_row(p: Partition, length: int) -> Partition:
    if p and length < p[0]:
        raise ContractError(f"row of length {length} too short for {p}")
    return Partition((length,) + tuple(p))


def reconstruct(result: ReductionResult) -> DegenPair:
    """Replay the erasure ledger backwards; must reproduce the input pair."""
    bottom, top = result.core.bottom, result.core.top
    eps = result.core.eps
    for kind, value in reversed(result.steps):
        if kind == "col":
            bottom = _add_column(bottom, value)
            top = _add_column(top, value)
            eps = -eps
        else:
            bottom = _add_row(bottom, value)
            top = _add_row(top, value)
    return DegenPair(eps, bottom, top)
