"""Degeneration (dominance) order on diagrams and its covering relations.

The orbit labelled sigma lies in the closure of the orbit labelled eta exactly
when every prefix sum of sigma is bounded by the matching prefix sum of eta
(sizes equal).  Minimal degenerations are the covering relations of this
order restricted to valid diagrams of one form type.

Covers are generated locally (Kraft and Procesi, Comment. Math. Helv. 57,
1982): every cover of eta agrees with eta on some leading rows and columns,
and what remains of eta is the top of a row of the a–h table.  Running that
cancellation backwards from eta yields exactly the covers, with no search
over the other diagrams of the same size, and gives each cover's core and
table row on the way.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache

from .errors import ContractError
from .partitions import EpsDiagram, Partition, check_size, enumerate_eps_diagrams
from .table import DegenType, table_row, top_heads

__all__ = [
    "DegenPair",
    "Witness",
    "PosetEdge",
    "PosetGraph",
    "dominates",
    "covers",
    "minimal_degenerations",
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


class DegenPair(namedtuple("DegenPair", "eps bottom top")):
    """An ordered degeneration: bottom <= top, same size, same form type."""

    __slots__ = ()

    eps: int
    bottom: Partition
    top: Partition

    def __new__(cls, eps: int, bottom: Iterable[int], top: Iterable[int]) -> "DegenPair":
        bottom, top = Partition(bottom), Partition(top)
        # EpsDiagram construction validates the parity condition
        EpsDiagram(bottom, eps)
        EpsDiagram(top, eps)
        if not dominates(top, bottom):
            raise ContractError(f"{bottom} is not a degeneration of {top}")
        return super().__new__(cls, eps, bottom, top)

    @classmethod
    def _make(cls, iterable: Iterable) -> "DegenPair":
        return cls(*iterable)  # _replace builds through _make, so it validates too

    @property
    def size(self) -> int:
        return self.top.size

    @property
    def is_strict(self) -> bool:
        return self.bottom != self.top

    def __str__(self) -> str:
        return f"({self.bottom} <= {self.top}, eps={self.eps:+d})"


class Witness(namedtuple("Witness", "sigma core degen_type")):
    """A cover sigma of eta, with the irreducible core and table row it comes from."""

    __slots__ = ()

    sigma: Partition
    core: DegenPair
    degen_type: DegenType


@lru_cache(maxsize=None)
def _core(eps: int, top: tuple[int, ...]) -> tuple[DegenPair, DegenType] | None:
    """(core, type) of the table row whose top is top at form type eps, if any."""
    row = table_row(eps, top)
    if row is None:
        return None
    family, n, bottom = row
    return DegenPair(eps, bottom, top), DegenType(family, n)


def covers(eta: EpsDiagram, bound: int | None = None) -> tuple[Witness, ...]:
    """Every cover of eta = (lam, eps) with its core and type, sigma in descending order.

    Strip the first i rows of lam, then the first s columns of what is left.
    If the remainder T is a table top of form type (-1)^s * eps with bottom
    B, the core is (B <= T) at that form type, and the cover keeps lam's
    first i rows, puts B + s (s added to each part) in place of T + s, and
    keeps the rows below, which lie inside the s erased columns.  B has
    len(B) - len(T) more rows than T; when s > 0 as many rows of length
    exactly s leave from below, so that the first s columns, and the size,
    stay those of lam.  Those rows are always there: a bottom one row longer
    needs only lam[j] = s, and the bottoms two rows longer (c, e, f, h) have
    orthogonal cores, so s has the parity whose parts pair up in an
    eps-diagram, and lam[j+1] = s as well.

    Every bottom has more rows than its top, so for s > 0 a row of length s
    sits right below T: T ends at a drop lam[j-1] > lam[j] = s.  With s = 0,
    T is all of lam[i:].  Only those (i, j) are tried, and only when T's
    form type, row count and first part head some table top.
    """
    check_size(eta.size, bound)
    lam, eps = eta
    heads = top_heads(lam.size)
    # (j, s, form type (-1)^s * eps) of each place where T can end
    ends = [(j, lam[j], -eps if lam[j] % 2 else eps)
            for j in range(1, len(lam)) if lam[j] < lam[j - 1]]
    ends.append((len(lam), 0, eps))
    found: dict[tuple[int, ...], Witness] = {}
    for j, s, core_eps in ends:
        for i in range(j):
            if (core_eps, j - i, lam[i] - s) not in heads:
                continue
            shape = _core(core_eps, tuple([x - s for x in lam[i:j]]))
            if shape is None:
                continue
            core, degen_type = shape
            extra = len(core.bottom) - (j - i) if s else 0
            sigma = lam[:i] + tuple([b + s for b in core.bottom]) + lam[j + extra:]
            found[sigma] = Witness(Partition(sigma), core, degen_type)
    return tuple(found[sigma] for sigma in sorted(found, reverse=True))


def minimal_degenerations(eta: EpsDiagram, bound: int | None = None) -> list[DegenPair]:
    """Covering relations below eta as pairs, in enumeration (descending) order."""
    return [DegenPair(eta.eps, w.sigma, eta.partition) for w in covers(eta, bound)]


class PosetEdge(namedtuple("PosetEdge", "top bottom family codim")):
    """A covering pair with its core's family and printed codimension."""

    __slots__ = ()

    top: Partition
    bottom: Partition
    family: str
    codim: int


class PosetGraph(namedtuple("PosetGraph", "eps n nodes edges")):
    """Cover graph of the degeneration order on all diagrams of one size."""

    __slots__ = ()

    eps: int
    n: int
    nodes: list[EpsDiagram]
    edges: list[PosetEdge]


def hasse(n: int, eps: int, bound: int | None = None) -> PosetGraph:
    """Cover graph on all eps-diagrams of n, each edge labelled by its core's table row."""
    nodes = enumerate_eps_diagrams(n, eps, bound)
    # enumeration checks n against the bound; every node has size n, so n bounds its own check
    edges = [
        PosetEdge(eta.partition, w.sigma, w.degen_type.family, w.degen_type.codim)
        for eta in nodes
        for w in covers(eta, n)
    ]
    return PosetGraph(eps=eps, n=n, nodes=nodes, edges=edges)
