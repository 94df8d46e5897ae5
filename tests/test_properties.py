"""Property tests of the protocol layer over generated parameters.

Derandomized, so every run draws the same examples and tier-1 stays
deterministic; no example database is written.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catforge._format17 import csv_lines
from catforge.cv_core import PI_QUARTER_INV, SQRT2, HomodyneWindow
from catforge.protocol import (ProtocolParams, canonical_phi, homodyne_density,
                               kept_wigner, report, vacuum_null_alpha,
                               window_metrics)
from coherent_terms import coalesce, ideal_cat, inner, source_state

# the same examples on every run, no database, no per-example deadline
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# up to alpha0 = 5 the Gram sum that measures a norm errs by at most about
# 3e-14 (its phases reach alpha0^2 radians); it grows as alpha0^2 beyond
alpha0s = st.floats(0.0, 5.0)
phis = st.floats(-10.0, 10.0)
xs = st.floats(-2.0, 2.0)


@PROPERTY
@given(alpha0s, phis)
def test_normalized_states_have_unit_gram_norm(alpha0, phi):
    p = ProtocolParams(alpha0, phi)
    # the coherent terms of the reference
    for s in (source_state(p), ideal_cat(p)):
        assert abs(inner(s, s).real - 1.0) <= 1e-13


@PROPERTY
@given(st.floats(0.0, 8.0), phis, st.floats(-6.0, 6.0))
def test_density_is_even_in_x(alpha0, phi, x):
    # x -> -x swaps the outer lobes and flips the sign of I, which enters
    # squared, through the same operations; no source term is merged
    p = ProtocolParams(alpha0, phi)
    assert homodyne_density(p, x) == homodyne_density(p, -x)


@PROPERTY
@given(st.floats(0.0, 1e6), phis)
def test_cat_coefficient_at_origin_is_pi_to_the_minus_quarter(alpha0, phi):
    c = report(ProtocolParams(alpha0, phi)).cat_coeff
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


@PROPERTY
@given(alpha0s, phis)
def test_whole_marginal_has_unit_mass(alpha0, phi):
    [(prob, _)] = window_metrics(ProtocolParams(alpha0, phi),
                                 [HomodyneWindow(0.0, 1e308)])
    assert abs(prob - 1.0) <= 1e-13


@PROPERTY
@given(st.floats(1e-300, math.pi, exclude_max=True), st.integers(0, 3))
def test_vacuum_null_condition(phi, k):
    alpha0 = vacuum_null_alpha(phi, k)
    u = alpha0 * alpha0 * math.sin(phi)
    # alpha0 and u carry a few roundings; cos has slope 1 at its zeros
    assert abs(math.cos(u)) <= 8.0 * math.ulp(u)
    assert report(ProtocolParams(alpha0, phi)).fidelity >= 1.0 - 1e-12


@PROPERTY
@given(st.floats(0.0, 1e154), phis)
def test_ideal_cat_has_the_conditioned_amplitudes(alpha0, phi):
    p = ProtocolParams(alpha0, phi)
    # the kept amplitudes (a_i - a_j) / sqrt2 of the beam splitter's images
    # of the source pairs, coalesced as the source terms are
    src = source_state(p)
    kept = coalesce([(1.0, (ai - aj) / SQRT2) for _, ai in src for _, aj in src])
    cat = {a for _, a in kept} - {0}
    assume(len(cat) == 2)  # +-s apart from 0 and from each other
    assert {a for _, a in ideal_cat(p)} == cat


@PROPERTY
@given(alpha0s, phis, xs, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_kept_wigner_mirrors_under_x_to_minus_x(alpha0, phi, x, q, y):
    # x -> -x conjugates the kept mode's coordinates, which mirrors W in y
    p = ProtocolParams(alpha0, phi)
    assert abs(kept_wigner(p, x, [q], [y])[0, 0]
               - kept_wigner(p, -x, [q], [-y])[0, 0]) <= 1e-15


@PROPERTY
@given(alpha0s, phis, xs)
def test_kept_wigner_at_the_origin_is_two_over_pi(alpha0, phi, x):
    # |0> and |s> + |-s> are both even, and W(0) is 2/pi times the parity
    w = kept_wigner(ProtocolParams(alpha0, phi), x, [0.0], [0.0])
    assert abs(w[0, 0] - 2.0 / math.pi) <= 1e-15


@PROPERTY
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_csv_cells_are_format_17g(patterns):
    # any float64, nan, infinities and subnormals included, from its bits
    v = np.array(patterns, dtype=np.uint64).view(np.float64)
    line = ",".join(format(x, ".17g") for x in v.tolist()) + "\n"
    assert b"".join(csv_lines((), [[v]])) == line.encode("ascii")
