"""The a–h table of irreducible minimal degenerations.

Each family fixes the form type and the shapes of both diagrams up to one
integer parameter n.  A row is found from its top shape alone: solve for n,
then compare.  The a shape (2)/(1,1) is also g at n=1, and a wins; h starts
at n=3, so the e shape at n=1 has no second reading.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .errors import ContractError
from .partitions import ORTHOGONAL, SYMPLECTIC, Partition

#: Least admissible parameter per family (a is parameterless).
FAMILY_RANGES = {"b": 2, "c": 1, "d": 1, "e": 1, "f": 2, "g": 1, "h": 3}

#: (family, n, bottom, algebra label) of one table row.
Row = tuple[str, Optional[int], Partition, str]


def shapes(family: str, n: int) -> tuple[int, Partition, Partition, str]:
    """(eps, top, bottom, algebra label) for one family instance."""
    if family == "a":
        return SYMPLECTIC, Partition([2]), Partition([1, 1]), "sp_2"
    if family == "b":
        return SYMPLECTIC, Partition([2 * n]), Partition([2 * n - 2, 2]), f"sp_{2 * n}"
    if family == "c":
        return (
            ORTHOGONAL,
            Partition([2 * n + 1]),
            Partition([2 * n - 1, 1, 1]),
            f"so_{2 * n + 1}",
        )
    if family == "d":
        return (
            SYMPLECTIC,
            Partition([2 * n + 1, 2 * n + 1]),
            Partition([2 * n, 2 * n, 2]),
            f"sp_{4 * n + 2}",
        )
    if family == "e":
        return (
            ORTHOGONAL,
            Partition([2 * n, 2 * n]),
            Partition([2 * n - 1, 2 * n - 1, 1, 1]),
            f"so_{4 * n}",
        )
    if family == "f":
        return (
            ORTHOGONAL,
            Partition([2, 2] + [1] * (2 * n - 3)),
            Partition([1] * (2 * n + 1)),
            f"so_{2 * n + 1}",
        )
    if family == "g":
        return (
            SYMPLECTIC,
            Partition([2] + [1] * (2 * n - 2)),
            Partition([1] * (2 * n)),
            f"sp_{2 * n}",
        )
    if family == "h":
        return (
            ORTHOGONAL,
            Partition([2, 2] + [1] * (2 * n - 4)),
            Partition([1] * (2 * n)),
            f"so_{2 * n}",
        )
    raise ContractError(f"unknown family {family!r}")


def _candidates(top: tuple[int, ...]) -> list[tuple[str, int]]:
    """Family parameters solvable from the top shape alone."""
    out = []
    if len(top) == 1:
        if top[0] % 2 == 0:
            out.append(("b", top[0] // 2))
        else:
            out.append(("c", (top[0] - 1) // 2))
    if len(top) == 2 and top[0] == top[1]:
        if top[0] % 2 == 1:
            out.append(("d", (top[0] - 1) // 2))
        else:
            out.append(("e", top[0] // 2))
    if top and top[0] == 2:
        ones = sum(1 for p in top if p == 1)
        twos = sum(1 for p in top if p == 2)
        if twos == 1 and ones % 2 == 0:
            out.append(("g", (ones + 2) // 2))
        if twos == 2:
            if ones % 2 == 1:
                out.append(("f", (ones + 3) // 2))
            else:
                out.append(("h", (ones + 4) // 2))
    return out


@lru_cache(maxsize=4096)
def table_row(eps: int, top: tuple[int, ...]) -> Row | None:
    """The table row whose top shape is top at form type eps, if any.

    Memoized: a tuple and the Partition with the same parts share an entry.
    """
    # a before g so that the shared shape reports the more specific label
    if (eps, top) == (SYMPLECTIC, (2,)):
        _, _, bottom, algebra = shapes("a", 0)
        return "a", None, bottom, algebra
    for family, n in _candidates(top):
        if n < FAMILY_RANGES[family]:
            continue
        row_eps, row_top, bottom, algebra = shapes(family, n)
        if (row_eps, row_top) == (eps, top):
            return family, n, bottom, algebra
    return None
