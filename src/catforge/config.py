"""Numerical tolerances and limits.

The code uses these constants as they are.  The Fock cap alone can be
overridden: per call, by --max-fock, or through the CATFORGE_MAX_FOCK
environment variable; either must be a positive integer.
"""

import os

from .errors import DomainError

# cat_wigner refuses a cat whose branches +-s lie this close or closer
CAT_SEPARATION_FLOOR = 1e-12

# a conditioned state whose norm is below this is treated as fully cancelled
DEGENERATE_NORM = 1e-14

# conditioning density below this raises ZeroProbability
ZERO_DENSITY = 1e-30

# default Fock-space dimension cap: a cold crosscheck_point at dimension n
# takes about FOCK_SECONDS_PER_DIM3 * n^3 seconds, the cubic fit to medians
# of 3 cold points each at dims 724-1800 (2-core Xeon under KVM, one BLAS
# thread, one pinned CPU: 0.31 s at 724, 0.47 s at 860, 0.87 s at 1024,
# 1.6 s at 1200, 2.4 s at 1400, 3.8 s at 1600, 5.1 s at 1800; a free
# exponent fits 3.18).  At the cap, 2048, the beam splitter's own limit
# (fock_oracle.MAX_TOTAL_PHOTONS + 1), a cold point took 7.8 s, so a
# crosscheck point finishes in under 10 s
DEFAULT_FOCK_CAP = 2048
FOCK_SECONDS_PER_DIM3 = 8.8e-10
FOCK_CAP_ENV = "CATFORGE_MAX_FOCK"

# composite Gauss-Legendre rule used for every 1D window / marginal integral
GL_ORDER = 16
MAX_PANEL_WIDTH = 0.1

# half-range of a marginal lobe about its centre; window integrals end there
MARGINAL_HALF_RANGE = 10.0

# largest float spacing at a lobe centre a window may reach (see README)
MAX_LOBE_ULP = 0.25

# relative distance from a closed-form optimum location within which
# cos(alpha0^2 sin phi) must change sign for the numeric cross-check to pass
NULL_CHECK_TOL = 1e-12

# per-axis cap on sweep grids
GRID_STEP_CAP = 2001

# analytic vs Fock-oracle agreement required on the validation grid
CROSSCHECK_TOL = 1e-8

# crosscheck refuses to split the oracle's branches where the split's
# rounding, over the cat carrier's tail, could exceed this; apart from
# CROSSCHECK_TOL, so that the validation gate moves without the refusal
SPLIT_REFUSAL_TOL = 1e-8


def fock_cap(override=None):
    """Effective Fock dimension cap: explicit override, else env var, else
    default.  Raises DomainError, naming the source, unless it is a positive
    integer."""
    value, source = override, "the Fock cap"
    if value is None:
        value, source = os.environ.get(FOCK_CAP_ENV), FOCK_CAP_ENV
        if not value:
            return DEFAULT_FOCK_CAP
    try:
        cap = int(value)
    except (TypeError, ValueError):
        cap = 0
    if cap < 1:
        raise DomainError(f"{source} must be a positive integer, got {value!r}")
    return cap
