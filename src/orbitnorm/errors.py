"""The package's exceptions, one per refusal exit code: ContractError 2, CapacityError 3."""


class ContractError(ValueError):
    """Input the package refuses: text that does not parse, or a broken precondition."""


class NotMinimalIrreducible(ContractError):
    """An irreducible pair matched no row of the table; only classify_core raises it."""


class CapacityError(Exception):
    """A command's size exceeds its bound; only the command line has a bound and raises this."""
