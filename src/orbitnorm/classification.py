"""Matching irreducible minimal degenerations against the eight known families.

Matching is exact: look up the table row of the core's top shape (see
``table``, which also fixes the a/g and e/h tie-breaks) and compare the
bottom shape with the row's.
"""

from __future__ import annotations

from .degeneration import DegenPair
from .errors import ContractError, NotMinimalIrreducible
from .reduction import ReductionResult, irreducible_core, is_irreducible
from .table import TABLE, DegenType, table_row

__all__ = [
    "instantiate",
    "classify_core",
    "table_codim",
    "classify_minimal_degeneration",
]


def table_codim(t: DegenType) -> int:
    return t.codim


def instantiate(family: str, n: int | None = None) -> DegenPair:
    """Build the degeneration pair of one family instance."""
    if family not in TABLE:
        raise ContractError(f"unknown family {family!r}")
    row = TABLE[family]
    if row.least is None:
        if n is not None:
            raise ContractError(f"family {family} takes no parameter")
    elif n is None or n < row.least:
        raise ContractError(f"family {family} needs n >= {row.least}")
    return DegenPair(row.eps, row.bottom(n), row.top(n))


def classify_core(pair: DegenPair) -> DegenType:
    """The unique family instance matching (eps, top, bottom)."""
    if not is_irreducible(pair):
        raise ContractError(f"{pair} is not irreducible")
    row = table_row(pair.eps, pair.top)
    if row is None or row[2] != pair.bottom:
        raise NotMinimalIrreducible(f"no family matches {pair}")
    return DegenType(row[0], row[1])


def classify_minimal_degeneration(pair: DegenPair) -> tuple[ReductionResult, DegenType]:
    """Reduce to the irreducible core, then classify it."""
    result = irreducible_core(pair)
    return result, classify_core(result.core)

