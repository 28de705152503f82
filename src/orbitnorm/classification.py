"""Matching irreducible minimal degenerations against the eight known families.

Matching is exact: the core's form type, row count and first part name the
one table row it can be (``table.table_types``, which also fixes the a/g
tie-break), and the core must equal that row's pair.
"""

from .degeneration import DegenPair, table_pair
from .errors import ContractError, NotMinimalIrreducible
from .reduction import ReductionResult, irreducible_core, is_irreducible
from .table import TABLE, DegenType, table_types


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
    return table_pair(DegenType(family, n))


def classify_core(pair: DegenPair) -> DegenType:
    """The unique family instance matching (eps, top, bottom)."""
    if not is_irreducible(pair):
        raise ContractError(f"{pair} is not irreducible")
    t = table_types(pair.size).get((pair.eps, len(pair.top), pair.top[0]))
    if t is None or table_pair(t) != pair:
        raise NotMinimalIrreducible(f"not a minimal degeneration: no family matches {pair}")
    return t


def classify_minimal_degeneration(pair: DegenPair) -> tuple[ReductionResult, DegenType]:
    """Reduce to the irreducible core, then classify it."""
    result = irreducible_core(pair)
    return result, classify_core(result.core)

