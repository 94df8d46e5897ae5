"""Numerical tolerances and limits.

Module constants are the defaults; many operations that depend on one
accept an override parameter, and the Fock cap can also be set through
the CATFORGE_MAX_FOCK environment variable.
"""

import os

# amplitude coalescing: terms whose coherent amplitudes agree this closely merge
COALESCE_TOL = 1e-12

# a superposition with Gram norm below this is treated as fully cancelled
DEGENERATE_NORM = 1e-14

# claimed-normalized states must have norm within this of 1
NORMALIZED_TOL = 1e-10

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

# density-matrix eigenvalues above this floor are clipped to zero; below is an error
EIG_FLOOR = -1e-8

# bisection used to cross-check closed-form optimum locations
BISECTION_TOL = 1e-12
BISECTION_MAX_ITER = 200

# per-axis cap on sweep grids
GRID_STEP_CAP = 2001

# analytic vs Fock-oracle agreement required on the validation grid
CROSSCHECK_TOL = 1e-8


def fock_cap(override=None):
    """Effective Fock dimension cap: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(FOCK_CAP_ENV)
    if env:
        return int(env)
    return DEFAULT_FOCK_CAP
