"""Exception hierarchy shared across the package."""


class OrbitNormError(Exception):
    """Base class for all package-specific errors."""


class PartitionParseError(OrbitNormError, ValueError):
    """Raised when partition text cannot be parsed into positive parts."""


class ContractError(OrbitNormError, ValueError):
    """A precondition was violated by the caller."""


class CapacityError(OrbitNormError):
    """A command's size exceeds its bound; only the command line has a bound and raises this."""


class NotMinimalIrreducible(OrbitNormError):
    """An irreducible pair matched no row of the table; only classify_core raises it."""
