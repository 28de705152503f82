"""Normality decision for nilpotent orbit closures.

A closure is normal when no minimal degeneration reduces to a core of family
d or e; a family-e core certifies non-normality; a family-d core (and no e)
leaves the question open, so Undetermined is a first-class verdict here.
Families a, b, c never obstruct (their closures are full nilpotent cones),
and f, g, h exceed codimension 2, so only d and e enter the decision.
"""

from collections import namedtuple

from .degeneration import Witness, covers
from .partitions import EpsDiagram

NORMAL = "Normal"
NOT_NORMAL = "NotNormal"
UNDETERMINED = "Undetermined"


class NormalityVerdict(namedtuple("NormalityVerdict", "eta witnesses")):
    __slots__ = ()

    eta: EpsDiagram
    witnesses: tuple[Witness, ...]

    @property
    def verdict(self) -> str:
        """The verdict rules applied to the families of the witnesses."""
        families = {w.degen_type.family for w in self.witnesses}
        if "e" in families:
            return NOT_NORMAL
        return UNDETERMINED if "d" in families else NORMAL


def decide(eta: EpsDiagram) -> NormalityVerdict:
    """eta's verdict, from its minimal degenerations.

    The witnesses are the cover generator's records, which carry the core and
    type it found while it built each cover; nothing is reduced a second time.
    """
    return NormalityVerdict(eta, covers(eta))
