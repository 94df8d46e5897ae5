"""Conditional preparation of symmetric coherent-state superpositions.

Two phase-split coherent components interfere on a balanced beam splitter;
post-selecting a quadrature measurement on one output port leaves the other
port in a vacuum/cat superposition.  The package carries the closed-form
branch coefficients, an independent Fock-basis oracle, and the sweep and
optimization tools built on top of them.
"""

from .cv_core import HomodyneWindow
from .errors import (
    CatforgeError,
    DegenerateState,
    DimensionMismatch,
    DomainError,
    GridTooLarge,
    TruncationTooLarge,
    ZeroProbability,
)
from .protocol import (
    PreparedStateReport,
    ProtocolParams,
    Separations,
    coefficient_ratio,
    coefficient_ratio_second_order,
    coefficient_ratio_small_angle,
    homodyne_density,
    kept_wigner,
    report,
    separations,
    vacuum_null_alpha,
    vacuum_null_alpha_approx,
    window_metrics,
)
from .optimize_sweep import (
    GridSpec,
    find_min_alpha,
    sweep_ratio,
    window_tradeoff,
)
from .crosscheck import crosscheck_grid, crosscheck_point

__version__ = "0.1.0"

__all__ = [
    "CatforgeError",
    "DegenerateState",
    "DimensionMismatch",
    "DomainError",
    "GridSpec",
    "GridTooLarge",
    "HomodyneWindow",
    "PreparedStateReport",
    "ProtocolParams",
    "Separations",
    "TruncationTooLarge",
    "ZeroProbability",
    "coefficient_ratio",
    "coefficient_ratio_second_order",
    "coefficient_ratio_small_angle",
    "crosscheck_grid",
    "crosscheck_point",
    "find_min_alpha",
    "homodyne_density",
    "kept_wigner",
    "report",
    "separations",
    "sweep_ratio",
    "vacuum_null_alpha",
    "vacuum_null_alpha_approx",
    "window_metrics",
    "window_tradeoff",
]
