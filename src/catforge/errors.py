"""Exception taxonomy shared across the package."""


class CatforgeError(Exception):
    """Base class for all catforge-specific errors."""


class DomainError(CatforgeError, ValueError):
    """Parameter outside the mathematical domain of an operation.

    Also a ValueError, so that callers catching ValueError for a refused
    input keep working."""


class DegenerateState(CatforgeError):
    """crosscheck cannot split the oracle's branches within its tolerance."""


class TruncationTooLarge(DomainError):
    """Requested Fock-space dimension exceeds the beam splitter's limit."""


class ZeroProbability(CatforgeError):
    """Conditioning on an outcome whose probability (density) is numerically zero."""


class DimensionMismatch(CatforgeError):
    """Fock-space operands have incompatible dimensions."""


class GridTooLarge(DomainError):
    """Sweep grid exceeds the configured per-axis step cap."""
