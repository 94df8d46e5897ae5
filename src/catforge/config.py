"""Numerical tolerances and limits, used as they are.  config imports
nothing; the quadrature rule holds its own order and panel width."""

# conditioning density below this raises ZeroProbability
ZERO_DENSITY = 1e-30

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
