"""Degeneration (dominance) order on diagrams and its covering relations.

The orbit labelled sigma lies in the closure of the orbit labelled eta exactly
when every prefix sum of sigma is bounded by the matching prefix sum of eta
(sizes equal).  Minimal degenerations are the covering relations of this
order restricted to valid diagrams of one form type.

Covers are generated locally (Kraft and Procesi, Comment. Math. Helv. 57,
1982): every cover of eta agrees with eta on some leading rows and columns,
and what remains of eta is the top of a row of the a–h table.  Running that
cancellation backwards from eta yields exactly the covers, with no search
over the other diagrams of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import CapacityError, ContractError
from .partitions import EpsDiagram, Partition, enumerate_eps_diagrams, max_size
from .table import table_row

#: Full-poset construction is quadratic in the diagram count; cap it lower.
DEFAULT_HASSE_MAX = 26

__all__ = [
    "DegenPair",
    "PosetEdge",
    "PosetGraph",
    "dominates",
    "degenerations",
    "minimal_degenerations",
    "cover_family",
    "hasse",
]


def dominates(top: Partition, bottom: Partition) -> bool:
    """Prefix-sum dominance at equal size: bottom lies below top."""
    top, bottom = Partition(top), Partition(bottom)
    if top.size != bottom.size:
        raise ContractError(
            f"dominance needs equal sizes, got {top.size} and {bottom.size}"
        )
    # Past the shorter partition its prefix sum is the total.  If bottom ends
    # first, top's sum there falls short of the total, so the loop fails at
    # bottom's last part; if top ends first, no later bottom sum exceeds it.
    t = b = 0
    for x, y in zip(top, bottom):
        t += x
        b += y
        if b > t:
            return False
    return True


@dataclass(frozen=True)
class DegenPair:
    """An ordered degeneration: bottom <= top, same size, same form type."""

    eps: int
    bottom: Partition
    top: Partition

    def __post_init__(self) -> None:
        object.__setattr__(self, "bottom", Partition(self.bottom))
        object.__setattr__(self, "top", Partition(self.top))
        # EpsDiagram construction validates the parity condition
        EpsDiagram(self.bottom, self.eps)
        EpsDiagram(self.top, self.eps)
        if not dominates(self.top, self.bottom):
            raise ContractError(f"{self.bottom} is not a degeneration of {self.top}")

    @property
    def size(self) -> int:
        return self.top.size

    @property
    def is_strict(self) -> bool:
        return self.bottom != self.top

    def to_json(self) -> dict:
        return {"eps": self.eps, "top": list(self.top), "bottom": list(self.bottom)}

    def __str__(self) -> str:
        return f"({self.bottom} <= {self.top}, eps={self.eps:+d})"


def degenerations(eta: EpsDiagram, bound: int | None = None) -> list[EpsDiagram]:
    """All strictly smaller valid diagrams below eta, in enumeration order."""
    return [
        d
        for d in enumerate_eps_diagrams(eta.size, eta.eps, bound)
        if d.partition != eta.partition and dominates(eta.partition, d.partition)
    ]


def minimal_degenerations(eta: EpsDiagram, bound: int | None = None) -> list[DegenPair]:
    """Covering relations below eta, in enumeration (descending) order."""
    limit = max_size() if bound is None else bound
    if eta.size > limit:
        raise CapacityError(f"size {eta.size} exceeds the enumeration bound {limit}")
    return [DegenPair(eta.eps, sigma, eta.partition) for sigma in _covers(eta.partition, eta.eps)]


def cover_family(pair: DegenPair) -> str:
    """Table family of the core the cover generator found for this cover."""
    family = _covers(pair.top, pair.eps).get(pair.bottom)
    if family is None:
        raise ContractError(f"{pair} is not a minimal degeneration")
    return family


@lru_cache(maxsize=256)
def _covers(lam: Partition, eps: int) -> dict[Partition, str]:
    """Cover sigma -> family of its core, sigma in descending order.

    Strip the first i rows of lam, then the first s columns of what is left.
    If the remainder T is a table top of form type (-1)^s * eps with bottom
    B, the cover keeps lam's first i rows, puts B + s (s added to each part)
    in place of T + s, and keeps the rows below, which lie inside the s
    erased columns.  B has len(B) - len(T) more rows than T; when s > 0 as
    many rows of length exactly s leave from below, so that the first s
    columns, and the size, stay those of lam.
    """
    found: dict[tuple[int, ...], str] = {}
    for i in range(len(lam)):
        for s in range(lam[i]):
            core = tuple(x - s for x in lam[i:] if x > s)
            row = table_row(eps if s % 2 == 0 else -eps, core)
            if row is None:
                continue
            family, _, bottom, _ = row
            below = lam[i + len(core):]
            extra = len(bottom) - len(core) if s else 0
            if below[:extra] != (s,) * extra:
                continue
            found[lam[:i] + tuple(b + s for b in bottom) + below[extra:]] = family
    return {Partition(sigma): found[sigma] for sigma in sorted(found, reverse=True)}


@dataclass
class PosetEdge:
    """A covering pair, optionally annotated by the classification pass."""

    top: Partition
    bottom: Partition
    family: str | None = None
    codim: int | None = None

    def to_json(self) -> dict:
        return {
            "top": list(self.top),
            "bottom": list(self.bottom),
            "type": self.family,
            "codim": self.codim,
        }


@dataclass
class PosetGraph:
    """Cover graph of the degeneration order on all diagrams of one size."""

    eps: int
    n: int
    nodes: list[EpsDiagram]
    edges: list[PosetEdge] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "n": self.n,
            "nodes": [list(d.partition) for d in self.nodes],
            "edges": [e.to_json() for e in self.edges],
        }


def hasse(n: int, eps: int, bound: int | None = None) -> PosetGraph:
    """Cover graph on all eps-diagrams of n; annotations left to classification."""
    if bound is None:
        bound = max_size(DEFAULT_HASSE_MAX)
    nodes = enumerate_eps_diagrams(n, eps, bound)
    edges = []
    for eta in nodes:
        for pair in minimal_degenerations(eta, bound):
            edges.append(PosetEdge(top=pair.top, bottom=pair.bottom))
    return PosetGraph(eps=eps, n=n, nodes=nodes, edges=edges)
