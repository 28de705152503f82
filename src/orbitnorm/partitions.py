"""Partitions and form-type diagrams.

A partition is a weakly decreasing tuple of positive integers.  A partition
paired with a form type eps (+1 orthogonal, -1 symplectic) labels a nilpotent
orbit; it is a valid diagram for eps=+1 iff every even part size occurs with
even multiplicity, and for eps=-1 iff every odd part size occurs with even
multiplicity.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .errors import CapacityError, ContractError, PartitionParseError

#: Default cap for whole-poset enumeration; override per call or via ORBIT_MAX_SIZE.
DEFAULT_MAX_SIZE = 40

ORTHOGONAL = 1
SYMPLECTIC = -1
VALID_EPS = (ORTHOGONAL, SYMPLECTIC)


def max_size() -> int:
    """Enumeration bound: the ORBIT_MAX_SIZE environment override, else the default."""
    env = os.environ.get("ORBIT_MAX_SIZE")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PartitionParseError(f"ORBIT_MAX_SIZE is not an integer: {env!r}")
    return DEFAULT_MAX_SIZE


def check_size(n: int, bound: int | None = None) -> None:
    """Raise CapacityError if n exceeds bound (max_size() if None), ContractError if it is < 0."""
    limit = max_size() if bound is None else bound
    if limit < 0:
        raise ContractError(f"the enumeration bound must be nonnegative, got {limit}")
    if n > limit:
        raise CapacityError(f"size {n} exceeds the enumeration bound {limit}")


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; the empty tuple is 0.

    A Partition is immutable and was checked when it was built, so passing
    one to the constructor returns it unchanged.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        norm = sorted(map(int, parts), reverse=True)
        # sorted descending, the smallest part decides; name the largest bad one
        if norm and norm[-1] <= 0:
            bad = next(p for p in norm if p <= 0)
            raise ContractError(f"partition parts must be positive, got {bad}")
        return super().__new__(cls, norm)

    @property
    def size(self) -> int:
        return sum(self)

    def dual(self) -> "Partition":
        """Column heights of the Young diagram (conjugate partition)."""
        heights: list[int] = []
        width = 0
        # from the shortest row up: columns width+1..self[k] have height k+1
        for k in range(len(self) - 1, -1, -1):
            heights += [k + 1] * (self[k] - width)
            width = self[k]
        return Partition(heights)

    def erase_first_column(self) -> "Partition":
        """Decrement every part, dropping parts that vanish."""
        return Partition(p - 1 for p in self if p > 1)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self) + "]"


def parse_partition(text: str) -> Partition:
    """Parse comma- or space-separated positive integers; order irrelevant."""
    parts = []
    for tok in text.replace(",", " ").split():
        try:
            value = int(tok)
        except ValueError:
            raise PartitionParseError(f"not an integer part: {tok!r}")
        if value <= 0:
            raise PartitionParseError(f"parts must be positive, got {tok!r}")
        parts.append(value)
    return Partition(parts)


def _check_eps(eps: int) -> None:
    if eps not in VALID_EPS:
        raise ContractError(f"eps must be +1 or -1, got {eps}")


def eps_violation(p: Partition, eps: int) -> str | None:
    """Name of the parity rule violated by p for this eps, or None if valid."""
    _check_eps(eps)
    p = Partition(p)
    # p is sorted, so equal parts form runs.  Parts of the constrained parity
    # must pair up within their run; the largest unpaired one is named first,
    # as the most salient violation.
    odd = eps == SYMPLECTIC
    i, n = 0, len(p)
    while i < n:
        part = p[i]
        if part % 2 != odd:
            i += 1
        elif i + 1 < n and p[i + 1] == part:
            i += 2
        else:
            return f"{'odd' if odd else 'even'} part {part} has odd multiplicity"
    return None


def is_eps_diagram(p: Iterable[int], eps: int) -> bool:
    """True iff p is the Jordan type of a nilpotent element for form type eps."""
    return eps_violation(p, eps) is None


class EpsDiagram(namedtuple("EpsDiagram", "partition eps")):
    """A partition that is a valid diagram for its form type."""

    __slots__ = ()

    partition: Partition
    eps: int

    def __new__(cls, partition: Iterable[int], eps: int) -> "EpsDiagram":
        partition = Partition(partition)
        violation = eps_violation(partition, eps)
        if violation is not None:
            raise ContractError(
                f"{partition} is not a valid diagram for eps={eps:+d}: {violation}"
            )
        return super().__new__(cls, partition, eps)

    @classmethod
    def _make(cls, iterable: Iterable) -> "EpsDiagram":
        return cls(*iterable)  # _replace builds through _make, so it validates too

    @property
    def size(self) -> int:
        return self.partition.size


@lru_cache(maxsize=None)
def _diagrams_desc(n: int, cap: int, eps: int) -> tuple[tuple[int, ...], ...]:
    """Parts of every eps-diagram of n with parts <= cap, in reverse-lexicographic order.

    Part sizes run largest first and each size's multiplicity highest first,
    which is that order; a size of the constrained parity steps by 2.
    """
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    for part in range(min(n, cap), 0, -1):
        step = 2 if part % 2 == (eps == SYMPLECTIC) else 1
        most = n // part
        for m in range(most - most % step, 0, -step):
            head = (part,) * m
            out += [head + rest for rest in _diagrams_desc(n - m * part, part - 1, eps)]
    return tuple(out)


def enumerate_eps_diagrams(n: int, eps: int, bound: int | None = None) -> list[EpsDiagram]:
    """Valid eps-diagrams of n, reverse-lexicographic; capacity-bounded."""
    _check_eps(eps)
    if n < 0:
        raise ContractError(f"n must be nonnegative, got {n}")
    check_size(n, bound)
    return [EpsDiagram(p, eps) for p in _diagrams_desc(n, n, eps)]
