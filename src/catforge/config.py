"""Numerical tolerances and limits.

The code uses these constants as they are.  The Fock cap alone can be
overridden: per call, by --max-fock, or through the CATFORGE_MAX_FOCK
environment variable; either must be a positive integer.
"""

import os

from .errors import CatforgeError

# amplitude coalescing: terms whose coherent amplitudes agree this closely merge
COALESCE_TOL = 1e-12

# a superposition with Gram norm below this is treated as fully cancelled
DEGENERATE_NORM = 1e-14

# wigner_grid refuses a state whose Gram norm^2 is further than this from 1
NORM_TOL = 1e-12

# conditioning density below this raises ZeroProbability
ZERO_DENSITY = 1e-30

# default Fock-space dimension cap: a cold crosscheck_point at dimension n
# takes about FOCK_SECONDS_PER_DIM3 * n^3 seconds (2-core Xeon under KVM, one
# BLAS thread: 2.0 s at 512, 6.6 s at 768, 9.5 s at 860), so at the cap a
# crosscheck point finishes in about 10 s
DEFAULT_FOCK_CAP = 860
FOCK_SECONDS_PER_DIM3 = 1.5e-8
FOCK_CAP_ENV = "CATFORGE_MAX_FOCK"

# composite Gauss-Legendre rule used for every 1D window / marginal integral
GL_ORDER = 16
MAX_PANEL_WIDTH = 0.1

# half-range of a marginal lobe about its centre; window integrals end there
MARGINAL_HALF_RANGE = 10.0

# largest float spacing at a lobe centre a window may reach (see README)
MAX_LOBE_ULP = 0.25

# bisection used to cross-check closed-form optimum locations
BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 200

# per-axis cap on sweep grids
GRID_STEP_CAP = 2001

# analytic vs Fock-oracle agreement required on the validation grid
CROSSCHECK_TOL = 1e-8


def fock_cap(override=None):
    """Effective Fock dimension cap: explicit override, else env var, else
    default.  Raises CatforgeError, naming the source, unless it is a positive
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
        raise CatforgeError(f"{source} must be a positive integer, got {value!r}")
    return cap
