"""Exception hierarchy shared across the package."""


class OrbitNormError(Exception):
    """Base class for all package-specific errors."""


class PartitionParseError(OrbitNormError, ValueError):
    """Raised when partition text cannot be parsed into positive parts."""


class ContractError(OrbitNormError, ValueError):
    """A precondition was violated by the caller."""


class CapacityError(OrbitNormError):
    """An enumeration or oracle size bound was exceeded."""


class NotMinimalIrreducible(OrbitNormError):
    """An irreducible pair matched no row of the table; only classify_core raises it."""
