"""The a–h table of irreducible minimal degenerations.

Kraft and Procesi (Comment. Math. Helv. 57, 1982) list eight families.  Each
fixes the form type, the shapes of both diagrams and the printed codimension
up to one integer parameter n, and each is written once below, in a..h order.

A row is found from its top alone, through one index per size: the form
type, row count and first part of a top already fix its family and n.  The
index is filled in a..h order, so a claims the shape (2)/(1,1) that g also has
at n=1; h starts at n=3, so the e shape at n=1 has no second reading.
"""

from collections import namedtuple
from collections.abc import Callable
from functools import lru_cache

from .partitions import ORTHOGONAL, SYMPLECTIC


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


@lru_cache(maxsize=None)
def table_types(size: int) -> dict[tuple[int, int, int], DegenType]:
    """The type of every table top of size at most size, keyed by its
    (form type, rows, first part).

    Every top grows with n, so each family is walked from its least n up.
    Families go in a..h order and the first key wins, so a keeps the key of
    its shape (2)/(1,1), which g has at n=1; no other two tops share a key.
    """
    types: dict[tuple[int, int, int], DegenType] = {}
    for name, family in TABLE.items():
        n = family.least
        while sum(top := family.top(n)) <= size:
            types.setdefault((family.eps, len(top), top[0]), DegenType(name, n))
            if n is None:
                break
            n += 1
    return types
