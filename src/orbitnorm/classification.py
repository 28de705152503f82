"""Matching irreducible minimal degenerations against the eight known families.

Matching is exact: look up the table row of the core's top shape (see
``table``, which also fixes the a/g and e/h tie-breaks) and compare the
bottom shape with the row's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .degeneration import DegenPair, PosetGraph
from .errors import ContractError, NotMinimalIrreducible
from .reduction import ReductionResult, irreducible_core, is_irreducible
from .table import FAMILY_RANGES, shapes, table_row

__all__ = [
    "DegenType",
    "FAMILY_RANGES",
    "instantiate",
    "classify_core",
    "table_codim",
    "classify_minimal_degeneration",
    "annotate",
]

#: Families whose table codimension is the constant 2.
CODIM2_FAMILIES = "abcde"


@dataclass(frozen=True)
class DegenType:
    family: str
    n: Optional[int]
    codim: int
    algebra: str

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "codim": self.codim}

    def __str__(self) -> str:
        suffix = "" if self.n is None else f"(n={self.n})"
        return f"type {self.family}{suffix}, codim {self.codim}"


def _codim(family: str, n: Optional[int]) -> int:
    if family in CODIM2_FAMILIES:
        return 2
    if family == "g":
        return 2 * n
    return 4 * n - 2  # f and h, as printed; see README on the oracle discrepancy


def table_codim(t: DegenType) -> int:
    return _codim(t.family, t.n)


def instantiate(family: str, n: Optional[int] = None) -> DegenPair:
    """Build the degeneration pair of one family instance."""
    if family == "a":
        if n is not None:
            raise ContractError("family a takes no parameter")
        eps, top, bottom, _ = shapes("a", 0)
        return DegenPair(eps, bottom, top)
    if family not in FAMILY_RANGES:
        raise ContractError(f"unknown family {family!r}")
    if n is None or n < FAMILY_RANGES[family]:
        raise ContractError(f"family {family} needs n >= {FAMILY_RANGES[family]}")
    eps, top, bottom, _ = shapes(family, n)
    return DegenPair(eps, bottom, top)


def classify_core(pair: DegenPair) -> DegenType:
    """The unique family instance matching (eps, top, bottom)."""
    if not is_irreducible(pair):
        raise ContractError(f"{pair} is not irreducible")
    row = table_row(pair.eps, pair.top)
    if row is None or row[2] != pair.bottom:
        raise NotMinimalIrreducible(f"no family matches {pair}")
    family, n, _, algebra = row
    return DegenType(family, n, _codim(family, n), algebra)


def classify_minimal_degeneration(pair: DegenPair) -> tuple[ReductionResult, DegenType]:
    """Reduce to the irreducible core, then classify it."""
    result = irreducible_core(pair)
    return result, classify_core(result.core)


def annotate(graph: PosetGraph) -> PosetGraph:
    """Fill family and codimension annotations on every edge, in place."""
    for edge in graph.edges:
        pair = DegenPair(graph.eps, edge.bottom, edge.top)
        _, degen_type = classify_minimal_degeneration(pair)
        edge.family = degen_type.family
        edge.codim = degen_type.codim
    return graph
