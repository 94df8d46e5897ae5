"""Exception taxonomy shared across the package."""


class CatforgeError(Exception):
    """Base class for all catforge-specific errors."""


class DegenerateState(CatforgeError):
    """A superposition collapsed to nothing (or a cat was required and absent)."""


class TruncationTooLarge(CatforgeError):
    """Requested Fock-space dimension exceeds the beam splitter's limit."""


class ZeroProbability(CatforgeError):
    """Conditioning on an outcome whose probability (density) is numerically zero."""


class DimensionMismatch(CatforgeError):
    """Fock-space operands have incompatible dimensions."""


class DomainError(CatforgeError, ValueError):
    """Parameter outside the mathematical domain of an operation.

    Also a ValueError, so that callers catching ValueError for a refused
    input keep working."""


class GridTooLarge(CatforgeError):
    """Sweep grid exceeds the configured per-axis step cap."""
