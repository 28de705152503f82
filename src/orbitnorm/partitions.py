"""Partitions and form-type diagrams.

A partition is a weakly decreasing tuple of positive integers.  A partition
paired with a form type eps (+1 orthogonal, -1 symplectic) labels a nilpotent
orbit; it is a valid diagram for eps=+1 iff every even part size occurs with
even multiplicity, and for eps=-1 iff every odd part size occurs with even
multiplicity.
"""

import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .errors import ContractError

ORTHOGONAL = 1
SYMPLECTIC = -1
VALID_EPS = (ORTHOGONAL, SYMPLECTIC)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers; the empty tuple is 0.

    A Partition is immutable and was checked when it was built, so passing
    one to the constructor returns it unchanged.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts
        parts = list(parts)  # kept, so a part that is no int can be named
        # a part is an int: a float, a str or a bool (True == 1) is refused, not read as one
        if not {*map(type, parts)} <= {int}:
            bad = next(p for p in parts if type(p) is not int)
            raise ContractError(f"partition parts must be integers, got {bad!r}")
        norm = sorted(parts, reverse=True)
        # sorted descending, the smallest part decides; name the largest bad one
        if norm and norm[-1] <= 0:
            bad = next(p for p in norm if p <= 0)
            raise ContractError(f"partition parts must be positive, got {bad}")
        return tuple.__new__(cls, norm)

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


def size_text(n: int) -> str:
    """n in decimal; ">=10^D" once n has more than the D digits that str() may print."""
    digits = sys.get_int_max_str_digits()
    return f">=10^{digits}" if digits and n >= 10 ** digits else str(n)


def is_integer(text: str) -> bool:
    """Whether text is integer text: an optional "-", then ASCII digits and nothing else."""
    return text.isascii() and text.removeprefix("-").isdigit()


def integer(text: str, what: str) -> int:
    """The int that integer text spells; any other text is a ContractError naming what."""
    try:  # int() also refuses more digits than sys.get_int_max_str_digits()
        if is_integer(text):
            return int(text)
    except ValueError:
        pass
    raise ContractError(f"{what} must be an integer, got {text!r}")


def parse_partition(text: str) -> Partition:
    """Parse comma- or space-separated positive integers; order irrelevant."""
    parts = []
    for tok in text.replace(",", " ").split():
        value = integer(tok, "partition part")
        if value <= 0:
            raise ContractError(f"parts must be positive, got {tok!r}")
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


def enumerate_eps_diagrams(n: int, eps: int) -> list[EpsDiagram]:
    """Valid eps-diagrams of n, reverse-lexicographic."""
    _check_eps(eps)
    if n < 0:
        raise ContractError(f"n must be nonnegative, got {n}")
    return [EpsDiagram(p, eps) for p in _diagrams_desc(n, n, eps)]
