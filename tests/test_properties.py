"""Property tests of the protocol layer over generated parameters.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic; no example database is written.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from catforge.config import COALESCE_TOL
from catforge.cv_core import PI_QUARTER_INV, superposition_inner
from catforge.protocol import (ProtocolParams, canonical_phi, cat_coefficient,
                               conditional_state, homodyne_density,
                               ideal_cat, interfere, source_state)

# the same examples on every run, no database, no per-example deadline
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# up to alpha0 = 5 the Gram sum that measures a norm errs by at most about
# 3e-14 (its phases reach alpha0^2 radians); it grows as alpha0^2 beyond
alpha0s = st.floats(0.0, 5.0)
phis = st.floats(-10.0, 10.0)
xs = st.floats(-2.0, 2.0)


@PROPERTY
@given(alpha0s, phis, xs)
def test_normalized_states_have_unit_gram_norm(alpha0, phi, x):
    p = ProtocolParams(alpha0, phi)
    for s in (source_state(p), interfere(p), conditional_state(p, x),
              ideal_cat(p)):
        assert s.normalized
        assert abs(superposition_inner(s, s).real - 1.0) <= 1e-13


@PROPERTY
@given(st.floats(0.0, 8.0), phis, st.floats(-6.0, 6.0))
def test_density_is_even_in_x(alpha0, phi, x):
    p = ProtocolParams(alpha0, phi)
    gap = abs(homodyne_density(p, x) - homodyne_density(p, -x))
    if len(source_state(p).terms) == 2:
        # mirror-image source amplitudes: x -> -x conjugates every projected
        # weight through the same operations
        assert gap == 0.0
    else:
        # one merged source term, up to COALESCE_TOL / 2 off the axis
        assert gap <= COALESCE_TOL


@PROPERTY
@given(st.floats(0.0, 1e6), phis)
def test_cat_coefficient_at_origin_is_pi_to_the_minus_quarter(alpha0, phi):
    c = cat_coefficient(ProtocolParams(alpha0, phi))
    assert (c.real, c.imag) == (PI_QUARTER_INV, 0.0)


@PROPERTY
@given(st.floats(0.0, 10.0), st.floats(-1e3, 1e3))
def test_phi_is_canonicalized(alpha0, phi):
    p = ProtocolParams(alpha0, phi)
    assert 0.0 <= p.phi <= math.pi
    assert ProtocolParams(alpha0, -phi).phi == p.phi
    assert canonical_phi(p.phi) == p.phi
    # one turn added moves phi by a rounding of 2 pi at most
    assert abs(ProtocolParams(alpha0, phi + 2.0 * math.pi).phi - p.phi) \
        <= 8.0 * math.ulp(max(abs(phi), 2.0 * math.pi))
