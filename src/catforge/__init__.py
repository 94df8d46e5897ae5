"""Conditional preparation of symmetric coherent-state superpositions.

Two phase-split coherent components interfere on a balanced beam splitter;
post-selecting a quadrature measurement on one output port leaves the other
port in a vacuum/cat superposition.  The package carries the closed-form
branch coefficients, an independent Fock-basis oracle, and the sweep and
optimization tools built on top of them.
"""

from .config import fock_cap
from .cv_core import (
    CoherentSuperposition,
    HomodyneWindow,
    TwoModeSuperposition,
    beam_splitter_50_50,
    coherent,
    coherent_overlap,
    even_cat,
    quadrature_overlap,
    superposition_inner,
    superposition_norm,
    vacuum,
    wigner_grid,
    wigner_point,
)
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
    cat_coefficient,
    coefficient_ratio,
    coefficient_ratio_second_order,
    coefficient_ratio_small_angle,
    conditional_state,
    homodyne_density,
    ideal_cat,
    interfere,
    report,
    separations,
    source_state,
    vacuum_coefficient,
    vacuum_null_alpha,
    vacuum_null_alpha_approx,
    window_metrics,
)
from .optimize_sweep import (
    GridSpec,
    SweepRow,
    find_min_alpha,
    sweep_ratio,
    window_tradeoff,
    zero_alphas,
    zero_count,
)
from .crosscheck import crosscheck_grid, crosscheck_point

__version__ = "0.1.0"

__all__ = [
    "CatforgeError",
    "CoherentSuperposition",
    "DegenerateState",
    "DimensionMismatch",
    "DomainError",
    "GridSpec",
    "GridTooLarge",
    "HomodyneWindow",
    "PreparedStateReport",
    "ProtocolParams",
    "Separations",
    "SweepRow",
    "TruncationTooLarge",
    "TwoModeSuperposition",
    "ZeroProbability",
    "beam_splitter_50_50",
    "cat_coefficient",
    "coherent",
    "coherent_overlap",
    "coefficient_ratio",
    "coefficient_ratio_second_order",
    "coefficient_ratio_small_angle",
    "conditional_state",
    "crosscheck_grid",
    "crosscheck_point",
    "even_cat",
    "find_min_alpha",
    "fock_cap",
    "homodyne_density",
    "ideal_cat",
    "interfere",
    "quadrature_overlap",
    "report",
    "separations",
    "source_state",
    "superposition_inner",
    "superposition_norm",
    "sweep_ratio",
    "vacuum",
    "vacuum_coefficient",
    "vacuum_null_alpha",
    "vacuum_null_alpha_approx",
    "wigner_grid",
    "wigner_point",
    "window_metrics",
    "window_tradeoff",
    "zero_alphas",
    "zero_count",
]
