"""The a–h table of irreducible minimal degenerations.

Kraft and Procesi (Comment. Math. Helv. 57, 1982) list eight families.  Each
fixes the form type, the shapes of both diagrams and the printed codimension
up to one integer parameter n, and each is written once below, in a..h order.

A row is found from its top shape alone.  The size of every top is affine in
n, so two evaluations solve for the one candidate n, and the shape is then
compared.  Families are tried in table order, so a claims the shape (2)/(1,1)
that g also has at n=1; h starts at n=3, so the e shape at n=1 has no second
reading.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .partitions import ORTHOGONAL, SYMPLECTIC, Partition


class Family(namedtuple("Family", "eps least top bottom codim")):
    __slots__ = ()

    eps: int
    least: int | None  # least admissible n; None for the parameterless a
    top: Callable[[int], list[int]]
    bottom: Callable[[int], list[int]]
    codim: Callable[[int], int]  # as printed; see README on f and h


#: The eight families in a..h order; tops and bottoms are listed largest part first.
TABLE = {
    "a": Family(SYMPLECTIC, None, lambda n: [2], lambda n: [1, 1], lambda n: 2),
    "b": Family(SYMPLECTIC, 2, lambda n: [2 * n], lambda n: [2 * n - 2, 2], lambda n: 2),
    "c": Family(ORTHOGONAL, 1, lambda n: [2 * n + 1], lambda n: [2 * n - 1, 1, 1], lambda n: 2),
    "d": Family(SYMPLECTIC, 1, lambda n: [2 * n + 1] * 2, lambda n: [2 * n, 2 * n, 2],
                lambda n: 2),
    "e": Family(ORTHOGONAL, 1, lambda n: [2 * n] * 2, lambda n: [2 * n - 1] * 2 + [1, 1],
                lambda n: 2),
    "f": Family(ORTHOGONAL, 2, lambda n: [2, 2] + [1] * (2 * n - 3), lambda n: [1] * (2 * n + 1),
                lambda n: 4 * n - 2),
    "g": Family(SYMPLECTIC, 1, lambda n: [2] + [1] * (2 * n - 2), lambda n: [1] * (2 * n),
                lambda n: 2 * n),
    "h": Family(ORTHOGONAL, 3, lambda n: [2, 2] + [1] * (2 * n - 4), lambda n: [1] * (2 * n),
                lambda n: 4 * n - 2),
}

#: Least admissible parameter per family (a is parameterless).
FAMILY_RANGES = {name: f.least for name, f in TABLE.items() if f.least is not None}


class DegenType(namedtuple("DegenType", "family n")):
    __slots__ = ()

    family: str
    n: int | None

    @property
    def codim(self) -> int:
        """The codimension the table prints for this family instance."""
        return TABLE[self.family].codim(self.n)

    def __str__(self) -> str:
        suffix = "" if self.n is None else f"(n={self.n})"
        return f"type {self.family}{suffix}, codim {self.codim}"


#: (family, n, bottom) of one table row.
Row = tuple[str, int | None, Partition]


def table_row(eps: int, top: tuple[int, ...]) -> Row | None:
    """The table row whose top shape is top at form type eps, if any."""
    size = sum(top)
    for name, family in TABLE.items():
        if family.eps != eps:
            continue
        n = family.least
        if n is not None:
            # the top's size is base + step * (n - least) with step > 0
            base = sum(family.top(n))
            k, r = divmod(size - base, sum(family.top(n + 1)) - base)
            if r or k < 0:
                continue
            n += k
        if tuple(family.top(n)) == top:
            return name, n, Partition(family.bottom(n))
    return None


@lru_cache(maxsize=None)
def top_heads(size: int) -> frozenset[tuple[int, int, int]]:
    """(form type, rows, first part) of every table top of size at most size.

    Every top grows with n, so each family is walked from its least n up.
    """
    heads = set()
    for family in TABLE.values():
        n = family.least
        while sum(top := family.top(n)) <= size:
            heads.add((family.eps, len(top), top[0]))
            if n is None:
                break
            n += 1
    return frozenset(heads)
