"""Tests for the interference protocol layer.

Frozen decimals below were computed once from the closed forms and confirmed
against the independent number-basis route before being locked in; the
crosscheck suite keeps guarding that agreement on a full grid.
"""

import cmath
import math
import re
import struct
import sys

import numpy as np
import pytest

from catforge import protocol
from catforge.config import ZERO_DENSITY
from catforge.crosscheck import oracle_pipeline
from catforge.cv_core import (PI_QUARTER_INV, HomodyneWindow, coherent_overlap,
                              quadrature_overlap)
from catforge.errors import (CatforgeError, DomainError, TruncationTooLarge,
                             ZeroProbability)
from catforge.optimize_sweep import find_min_alpha
from catforge.quadrature import gauss_legendre
from catforge.protocol import (ProtocolParams, cat_wigner, coefficient_ratio,
                               coefficient_ratio_second_order,
                               coefficient_ratio_small_angle,
                               homodyne_density, kept_wigner, report,
                               separations, vacuum_null_alpha,
                               vacuum_null_alpha_approx, window_metrics)
from coherent_terms import (COALESCE_TOL, coalesce, even_cat, gram, ideal_cat,
                            inner, norm, normalize, source_amplitudes,
                            source_state, vacuum, wigner_grid)
import mp_reference
from mp_reference import Conditioning

SQRT2 = math.sqrt(2.0)


def params_grid(rng, n, alpha_max=5.0, phi_max=math.pi):
    for _ in range(n):
        yield ProtocolParams(rng.uniform(0.0, alpha_max),
                             rng.uniform(0.0, phi_max))


# (alpha0, phi) where 1 - cos(phi) cancels: tiny phi with alpha0^2 phi^2 of order 1
TINY_PHI_POINTS = ((1.4e8, 1e-8), (1e4, 1e-6), (1e6, 1e-12))


def ratio_tolerance(p, ulps=4):
    """A few ulps times the absolute condition number of the closed-form ratio.

    R = E |cos(a^2 sin phi)| with envelope E = 2 exp(-2 a^2 sin^2(phi/2)), so
        |a dR/da| + |phi dR/dphi|
            <= E a^2 (4 sin^2(phi/2) + 2 sin phi + phi sin phi + phi |cos phi|);
    rounding the inputs of either route by an ulp moves R by about that much.
    """
    a2, phi = p.alpha0 ** 2, p.phi
    env = 2.0 * math.exp(-2.0 * a2 * math.sin(0.5 * phi) ** 2)
    cond = env * a2 * (4.0 * math.sin(0.5 * phi) ** 2 + 2.0 * math.sin(phi)
                       + phi * math.sin(phi) + phi * abs(math.cos(phi)))
    return ulps * 2.0 ** -52 * (env + cond)


def second_order_tolerance(p, ulps=4):
    """A few ulps times the absolute condition number of the second-order ratio.

    R2 = E2 |cos(a^2 phi)| with envelope E2 = 2 exp(-a^2 phi^2 / 2), so
        |a dR2/da| + |phi dR2/dphi| <= E2 a^2 phi (2 phi + 3).
    """
    a2, phi = p.alpha0 ** 2, p.phi
    env = 2.0 * math.exp(-0.5 * a2 * phi * phi)
    return ulps * 2.0 ** -52 * env * (1.0 + a2 * phi * (2.0 * phi + 3.0))


def branch_tolerances(p, x, ulps=4):
    """A few ulps times the absolute condition numbers of c_vac, c_cat and
    the ratio at X = x, for relative perturbations of alpha0, phi and x.

    With g(y) = pi^(-1/4) e^{-y^2/2}, k = 2 a cos(phi/2), theta = a^2 sin phi,
    each lobe L+- = g(x +- d0) e^{i(kx +- theta)} of c_vac moves by |L+-| times
        |x +- d0| (|x| + d0 + phi a cos(phi/2)) + 2 |kx| + 2 theta
            + phi (a^2 |cos phi| + |x| a sin(phi/2)),
    and c_cat = g(x) e^{ikx} by |c_cat| (x^2 + 2 |kx| + phi |x| a sin(phi/2)).
    The ratio R = E sqrt(cos^2 theta + sinh^2 u), E = 2 e^{-s^2}, u = x d0,
    moves by at most E cosh(u) (2 s^2 + theta phi + 3 |u|) through s^2 and u,
    and by E (2 theta + a^2 phi |cos phi|) through theta: at x = 0 the bound
    of ratio_tolerance.
    """
    a, phi, x = p.alpha0, p.phi, float(x)
    d0, k, theta = (2.0 * a * math.sin(0.5 * phi), 2.0 * a * math.cos(0.5 * phi),
                    a * a * math.sin(phi))
    kx, s2, u = abs(k * x), 0.5 * d0 * d0, x * d0
    phase = 2.0 * kx + 2.0 * theta + phi * (a * a * abs(math.cos(phi))
                                             + abs(x) * a * math.sin(0.5 * phi))
    vac = sum(PI_QUARTER_INV * math.exp(-0.5 * y * y)
              * (1.0 + abs(y) * (abs(x) + d0 + phi * a * math.cos(0.5 * phi)) + phase)
              for y in (x + d0, x - d0))
    cat = PI_QUARTER_INV * math.exp(-0.5 * x * x) * (
        1.0 + x * x + 2.0 * kx + phi * abs(x) * a * math.sin(0.5 * phi))
    env = 2.0 * math.exp(-s2)
    ratio = env * (math.cosh(u) * (1.0 + 2.0 * s2 + theta * phi + 3.0 * abs(u))
                   + 2.0 * theta + a * a * phi * abs(math.cos(phi)))
    return tuple(ulps * 2.0 ** -52 * t for t in (vac, cat, ratio))


class TestParams:
    def test_phase_canonicalized_to_half_period(self):
        assert ProtocolParams(1.0, -0.3).phi == pytest.approx(0.3, abs=1e-15)
        assert ProtocolParams(1.0, 2 * math.pi - 0.3).phi == pytest.approx(
            0.3, abs=1e-14)
        assert ProtocolParams(1.0, math.pi + 0.2).phi == pytest.approx(
            math.pi - 0.2, abs=1e-14)

    def test_canonicalization_preserves_ratio(self):
        rng = np.random.default_rng(3)
        for p in params_grid(rng, 50):
            for image in (-p.phi, p.phi + 2 * math.pi, -p.phi - 4 * math.pi):
                q = ProtocolParams(p.alpha0, image)
                assert coefficient_ratio(q) == pytest.approx(
                    coefficient_ratio(p), abs=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            ProtocolParams(-1.0, 0.1)
        with pytest.raises(DomainError):
            ProtocolParams(float("nan"), 0.1)
        with pytest.raises(DomainError):
            ProtocolParams(1.0, float("inf"))


class TestSourceState:
    """The coherent terms of the reference's source state."""

    def test_dark_source_is_vacuum(self):
        s = source_state(ProtocolParams(0.0, 0.7))
        assert len(s) == 1
        assert s[0][1] == 0.0

    def test_aligned_source_is_coherent(self):
        s = source_state(ProtocolParams(1.0, 0.0))
        assert len(s) == 1
        w, a = s[0]
        assert abs(a - 1j) < 1e-15
        assert abs(abs(w) - 1.0) < 1e-12

    def test_component_separation(self):
        p = ProtocolParams(2.0, 0.2)
        d0 = separations(p).d0
        assert d0 == pytest.approx(4.0 * math.sin(0.1), abs=1e-15)
        amps = [a for _, a in source_state(p)]
        assert abs(amps[0] - amps[1]) == pytest.approx(d0, abs=1e-13)

    def test_source_is_normalized(self):
        rng = np.random.default_rng(4)
        for p in params_grid(rng, 30):
            assert norm(source_state(p)) == pytest.approx(
                1.0, abs=1e-12)


class TestSeparations:
    def test_output_is_sqrt2_times_input_bitwise(self):
        rng = np.random.default_rng(5)
        for p in params_grid(rng, 1000):
            sep = separations(p)
            assert sep.d == SQRT2 * sep.d0

    def test_dataclass_roundtrip(self):
        sep = separations(ProtocolParams(1.0, 0.3))
        assert sep.d0 == 2.0 * math.sin(0.15)


REPORT_FIELDS = ("alpha0", "phi", "x", "vacuum_coeff", "cat_coeff", "ratio",
                 "fidelity", "density_at_x", "separations")


class TestRecords:
    """The report records are immutable named tuples with fixed fields."""

    def test_field_names_and_order(self):
        assert protocol.PreparedStateReport._fields == REPORT_FIELDS
        assert protocol.Separations._fields == ("d0", "d")

    @pytest.mark.parametrize("field", REPORT_FIELDS)
    def test_report_fields_are_read_only(self, field):
        r = report(ProtocolParams(1.0, 0.3), 0.2)
        with pytest.raises(AttributeError):
            setattr(r, field, 0.0)

    @pytest.mark.parametrize("field", ["d0", "d"])
    def test_separation_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(separations(ProtocolParams(1.0, 0.3)), field, 0.0)

    def test_report_as_dict(self):
        r = report(ProtocolParams(2.3, 1.1), 0.7)
        fields = r._asdict()
        assert tuple(fields) == REPORT_FIELDS
        assert tuple(fields.values()) == r
        assert fields["separations"] is r.separations
        assert protocol.PreparedStateReport(**fields) == r

    def test_separations_round_trip(self):
        sep = separations(ProtocolParams(1.0, 0.3))
        d0, d = sep
        assert sep == (d0, d) == (sep.d0, sep.d)
        assert sep._asdict() == {"d0": d0, "d": d}
        assert protocol.Separations(**sep._asdict()) == sep


def cat_half_separation(p):
    """s = d0 / sqrt2, where the beam splitter places the cat's branches."""
    return separations(p).d0 / SQRT2


class TestIdealCat:
    """The reference's cat terms, and the domain of cat_wigner."""

    def test_branch_amplitudes(self):
        cat = ideal_cat(ProtocolParams(SQRT2, math.pi))
        amps = sorted(a.real for _, a in cat)
        assert amps == pytest.approx([-2.0, 2.0], abs=1e-15)

    def test_degenerate_collapses_to_vacuum(self):
        cat = ideal_cat(ProtocolParams(1.0, 0.0))
        assert len(cat) == 1
        assert cat[0][1] == 0.0
        assert abs(inner(cat, vacuum())) == pytest.approx(1.0, abs=1e-12)

    def test_cat_from_the_vacuum_to_1e306(self):
        # s = 0 is the vacuum, (2/pi) e^{-2 |gamma|^2} (TestCatWigner takes
        # tiny s); up to 1e306 every pair phase, at most 112 s, is finite,
        # and past it, as for a negative s or nan, the cat is refused
        q, y = np.meshgrid(AXIS, AXIS, indexing="ij")
        vacuum_w = 2.0 / math.pi * np.exp(-2.0 * (q * q + y * y))
        for p in (ProtocolParams(1.0, 0.0), ProtocolParams(0.0, 0.5)):
            got = cat_wigner(cat_half_separation(p), AXIS, AXIS)
            assert np.max(np.abs(got - vacuum_w)) <= 1e-16
        edge = [-1e306, -1e306 + 28.0, 0.0, 28.0, 1e306]
        got = cat_wigner(1e306, edge, edge)
        assert np.all(np.isfinite(got))
        assert got[2, 2] == got[0, 2] * 2.0 == pytest.approx(2.0 / math.pi)
        for s in (math.nan, math.inf, -math.inf, -1.0,
                  math.nextafter(1e306, 2e306)):
            with pytest.raises(DomainError, match=re.escape(
                    f"cat half-separation must lie in [0, 1e306], got {s}")):
                cat_wigner(s, AXIS, AXIS)

    def test_matches_even_cat_helper(self):
        # alpha0 = 1, phi = pi/2 puts the branches exactly at +-1
        cat = ideal_cat(ProtocolParams(1.0, math.pi / 2))
        want = even_cat(1.0)
        assert abs(inner(cat, want)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_overlap_closed_form(self):
        rng = np.random.default_rng(8)
        for p in params_grid(rng, 30, alpha_max=3.0):
            s = SQRT2 * p.alpha0 * math.sin(0.5 * p.phi)
            if s < 1e-6:
                continue
            want = 2.0 * math.exp(-0.5 * s * s) / math.sqrt(
                2.0 + 2.0 * math.exp(-2.0 * s * s))
            got = inner(vacuum(), ideal_cat(p))
            assert got.real == pytest.approx(want, abs=1e-12)
            assert got.imag == pytest.approx(0.0, abs=1e-13)


class TestCoefficients:
    # vacuum nulls at which a -alpha^2/2 - |alpha|^2/2 exponent, evaluated
    # term by term, leaves a 1-ulp residue and misses pi^(-1/4)
    NULL_POINTS = [ProtocolParams(5.52695695545997, 0.48114746432748823),
                   ProtocolParams(2.529880115229785, 2.3140407142063553),
                   ProtocolParams(3.2770555080437918, 0.8202919633219825),
                   ProtocolParams(6.242965446991037, 0.12120572903116608)]

    def test_cat_coefficient_is_constant_at_origin(self):
        # the measured-mode amplitude is purely imaginary, so the Gaussian
        # weight cancels identically and the overlap is parameter free
        rng = np.random.default_rng(9)
        for p in [*params_grid(rng, 100), *self.NULL_POINTS]:
            c = report(p).cat_coeff
            assert c.real == PI_QUARTER_INV
            assert c.imag == 0.0

    def test_vacuum_coefficient_dark_source(self):
        c = report(ProtocolParams(0.0, 0.4)).vacuum_coeff
        assert abs(c - 2.0 * PI_QUARTER_INV) < 1e-15

    def test_vacuum_coefficient_is_real(self):
        rng = np.random.default_rng(10)
        for p in params_grid(rng, 50):
            assert report(p).vacuum_coeff.imag == 0.0

    def test_vacuum_coefficient_matches_direct_overlaps(self):
        # the closed form is not the overlaps' route, so the two agree to the
        # coefficient's condition number: here the closed form is 1.3 ulps
        # from the 80-digit value and the overlaps 3 ulps
        p = ProtocolParams(1.7, 0.45)
        a_plus = 1j * p.alpha0 * cmath.exp(0.5j * p.phi)
        a_minus = 1j * p.alpha0 * cmath.exp(-0.5j * p.phi)
        want = (quadrature_overlap(0.0, SQRT2 * a_plus)
                + quadrature_overlap(0.0, SQRT2 * a_minus))
        tol = branch_tolerances(p, 0.0)[0]
        got = report(p).vacuum_coeff
        assert abs(got - want) <= tol
        ref = Conditioning(p.alpha0, p.phi).coefficients(0.0)[0]
        assert abs(got - ref) <= abs(want - ref)

    @staticmethod
    def one_route_points():
        """Seeded ordinary points, nulls, and points with phi < 2^-20 (the
        integer path of _phase) or near an odd source."""
        rng = np.random.default_rng(98)
        points = list(params_grid(rng, 150, alpha_max=6.0))
        points += [ProtocolParams(rng.uniform(0.1, 6.0),
                                  rng.uniform(0.0, 2.0 ** -20)) for _ in range(30)]
        points += [ProtocolParams(vacuum_null_alpha(phi, k), phi)
                   for phi in rng.uniform(0.05, 3.1, 10) for k in range(3)]
        points += [ProtocolParams(a, phi) for a, phi in TINY_PHI_POINTS]
        points += [ProtocolParams(*odd_source(k, d0))
                   for k in range(3) for d0 in (1e-8, 1e-3, 0.5)]
        return points + TestCoefficients.NULL_POINTS

    def test_report_at_origin_is_the_closed_forms_bit_for_bit(self):
        for p in self.one_route_points():
            r = report(p, 0.0)
            assert r.ratio == coefficient_ratio(p)
            assert r.cat_coeff == PI_QUARTER_INV
            assert r.cat_coeff.imag == 0.0
            assert r.separations == separations(p)

    def test_far_from_every_lobe(self):
        # k x overflows at x = 1e308, where cos(k x) would raise; every lobe,
        # and so the density report conditions on, is 0 long before
        p = ProtocolParams(1e8, 0.3)
        for x in (1e3, 1e308, -math.inf):
            with pytest.raises(ZeroProbability):
                report(p, x)
            assert protocol._branches(p, x)[3:] == (0j, 0j)


class TestBranchCoefficientsReference:
    """c_vac, c_cat and the ratio at X = x against the 80-digit amplitudes."""

    @staticmethod
    def points():
        rng = np.random.default_rng(97)
        points = []
        for i in range(400):
            phi = (rng.uniform(0.0, 2.0 ** -20) if i % 8 == 0
                   else rng.uniform(0.0, math.pi))
            points.append((ProtocolParams(rng.uniform(0.1, 6.0), phi),
                           rng.uniform(-2.0, 2.0)))
        # odd sources within alpha0 <= 6, on both sides of s^2 = 1
        for k, d0 in ((0, 0.6), (0, 1.0), (0, 1.5), (1, 2.0), (2, 3.0)):
            for x in (0.0, 0.4, -1.3, 2.0):
                points.append((ProtocolParams(*odd_source(k, d0)), x))
        return points

    def test_against_high_precision(self):
        points = self.points()
        s2 = [0.5 * separations(p).d0 ** 2 for p, _ in points]
        assert min(s2) < 1e-12 and sum(v > 1.0 for v in s2) > 100
        for p, x in points:
            ref = Conditioning(p.alpha0, p.phi)
            want = (*ref.coefficients(x), ref.ratio(x))
            r = report(p, x)
            got = (r.vacuum_coeff, r.cat_coeff, r.ratio)
            for g, w, tol in zip(got, want, branch_tolerances(p, x)):
                assert abs(g - w) <= tol, (p, x)


class TestCoefficientRatio:
    def test_limits_are_two(self):
        assert coefficient_ratio(ProtocolParams(0.0, 0.8)) == 2.0
        assert coefficient_ratio(ProtocolParams(3.0, 0.0)) == 2.0

    def test_reference_point(self):
        got = coefficient_ratio(ProtocolParams(1.0, 0.1))
        assert got == pytest.approx(1.9801244381583083, abs=1e-14)

    def test_exact_zero_condition(self):
        p = ProtocolParams(math.sqrt(math.pi), math.pi / 6)
        # sin(pi/6) = 1/2 exactly would put the cosine argument at pi/2;
        # float rounding leaves a residue at the derivative scale ~1e-16
        assert coefficient_ratio(p) < 1e-12

    def test_matches_coefficient_quotient(self):
        rng = np.random.default_rng(12)
        for p in params_grid(rng, 100):
            r = report(p)
            quotient = abs(r.vacuum_coeff) / abs(r.cat_coeff)
            assert coefficient_ratio(p) == pytest.approx(quotient, abs=1e-12)

    @pytest.mark.parametrize("alpha0,phi", TINY_PHI_POINTS)
    def test_tiny_phi_against_high_precision(self, alpha0, phi):
        want = mp_reference.coefficient_ratio(alpha0, phi)
        p = ProtocolParams(alpha0, phi)
        assert abs(coefficient_ratio(p) - want) <= ratio_tolerance(p)

    def test_ordinary_points_against_high_precision(self):
        rng = np.random.default_rng(95)
        for p in params_grid(rng, 200):
            want = mp_reference.coefficient_ratio(p.alpha0, p.phi)
            assert abs(coefficient_ratio(p) - want) <= ratio_tolerance(p)

    def test_second_order_against_high_precision(self):
        rng = np.random.default_rng(96)
        points = list(params_grid(rng, 200))
        points += [ProtocolParams(a, phi) for a, phi in TINY_PHI_POINTS]
        for p in points:
            want = mp_reference.coefficient_ratio_second_order(p.alpha0, p.phi)
            assert abs(coefficient_ratio_second_order(p) - want) \
                <= second_order_tolerance(p)

    def test_small_angle_limits(self):
        assert coefficient_ratio_small_angle(ProtocolParams(2.0, 0.0)) == 2.0
        assert coefficient_ratio_second_order(ProtocolParams(2.0, 0.0)) == 2.0

    def test_second_order_separation_form(self):
        rng = np.random.default_rng(13)
        for p in params_grid(rng, 50, phi_max=0.5):
            d = SQRT2 * p.alpha0 * p.phi
            want = math.exp(-0.25 * d * d) * 2.0 * abs(
                math.cos(p.alpha0 * d / SQRT2))
            assert coefficient_ratio_second_order(p) == pytest.approx(
                want, abs=1e-12)

    def test_separation_four_suppression(self):
        for alpha0, phi in ((5.0, 0.6), (4.0, 0.75), (8.0, 0.36)):
            p = ProtocolParams(alpha0, phi)
            assert SQRT2 * alpha0 * phi >= 4.0
            assert coefficient_ratio_second_order(p) <= 2.0 * math.exp(-4.0)


class TestVacuumNull:
    def test_exact_location(self):
        got = vacuum_null_alpha(0.1)
        assert got == pytest.approx(3.9666325494340016, abs=1e-14)
        assert coefficient_ratio(ProtocolParams(got, 0.1)) < 1e-12

    def test_higher_nulls(self):
        for k in (1, 2, 5):
            a = vacuum_null_alpha(0.1, k)
            assert a > vacuum_null_alpha(0.1, k - 1)
            assert coefficient_ratio(ProtocolParams(a, 0.1)) < 1e-11

    def test_approximation(self):
        assert vacuum_null_alpha_approx(0.1) == pytest.approx(
            3.963327297606011, abs=1e-14)
        # right-angle separation needs no approximation
        assert vacuum_null_alpha(math.pi / 2) == pytest.approx(
            math.sqrt(math.pi / 2), abs=1e-15)

    def test_small_angle_output_separation(self):
        phi = 1e-5
        a = vacuum_null_alpha_approx(phi)
        assert a == pytest.approx(396.3327, abs=1e-3)
        d = SQRT2 * 2.0 * a * math.sin(0.5 * phi)
        assert d == pytest.approx(math.sqrt(math.pi * phi), rel=1e-8)

    def test_domain_errors(self):
        for phi in (0.0, math.pi, -0.1, 4.0):
            with pytest.raises(DomainError):
                vacuum_null_alpha(phi)
            with pytest.raises(DomainError):
                vacuum_null_alpha_approx(phi)
        with pytest.raises(DomainError):
            vacuum_null_alpha(0.1, k=-1)
        with pytest.raises(DomainError):
            vacuum_null_alpha(0.1, k=0.5)

    @pytest.mark.parametrize("k", [math.inf, math.nan, 10 ** 400, 1e308],
                             ids=["inf", "nan", "int-past-floats", "1e308"])
    def test_k_whose_null_phase_overflows_names_k(self, k):
        # (k + 1/2) pi is not finite: inf and 10^400 raised OverflowError,
        # nan a ValueError, from k * pi and int(k)
        for null in (vacuum_null_alpha, find_min_alpha):
            with pytest.raises(DomainError, match=re.escape(
                    f"(k + 1/2) pi is finite, got k = {k}")):
                null(0.1, k)

    @pytest.mark.parametrize("phi", [1e-320, 5e-324])
    def test_overflowing_null_names_phi(self, phi):
        # pi / (2 phi) overflows: the small-angle form returned inf
        for null in (vacuum_null_alpha, vacuum_null_alpha_approx):
            with pytest.raises(DomainError, match=f"phi = {phi:g} is too small"):
                null(phi)


NULL_K = (0, 1, 2, 10 ** 6)
EPS = sys.float_info.epsilon


def double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def null_refusal_edge(k):
    """The smallest phi whose k-th null vacuum_null_alpha returns: a
    bisection over the bits of the positive doubles, whose order is theirs."""
    def returns(bits):
        try:
            vacuum_null_alpha(double(bits), k)
        except DomainError:
            return False
        return True
    lo, hi = 1, struct.unpack("<q", struct.pack("<d", 1e-290))[0]
    assert returns(hi) and not returns(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if returns(mid) else (mid, hi)
    return double(hi)


class TestVacuumNullReference:
    """vacuum_null_alpha against the 80-digit sqrt((k + 1/2) pi / sin phi),
    down to where alpha0^2 leaves the float range and next to pi, where
    sin phi is about 1e-16.  The reference takes the exact binary phi, so
    its condition number (phi cot(phi) / 2, 1.4e15 next to pi) does not
    enter; 0.77 ulp was the largest error seen."""

    @pytest.mark.parametrize("phi", [
        1e-200, 1e-250, 1e-300, 1e-307, 2.0 ** -1020, 1e-3, 1.0, 3.0,
        math.pi - 1e-6, math.pi - 1e-12, math.nextafter(math.pi, 0.0)])
    @pytest.mark.parametrize("k", NULL_K)
    def test_within_ulps(self, phi, k):
        want, excess = mp_reference.vacuum_null_alpha(phi, k)
        if excess > 0.0:  # k = 10^6 at phi <= 1e-307
            with pytest.raises(DomainError, match="too small"):
                vacuum_null_alpha(phi, k)
            return
        assert abs(vacuum_null_alpha(phi, k) - want) <= 2.0 * EPS * want

    @pytest.mark.parametrize("k", NULL_K)
    def test_refusal_edge(self, k):
        # the edge lies within 2 ulps of where alpha0^2 leaves the float
        # range: the last phi returned needs no more, the first refused no
        # less (k = 0: subnormal phi, 2.6 ulps apart)
        edge = null_refusal_edge(k)
        want, excess = mp_reference.vacuum_null_alpha(edge, k)
        assert abs(vacuum_null_alpha(edge, k) - want) <= 2.0 * EPS * want
        assert excess < 2.0 * EPS
        past = math.nextafter(edge, 0.0)
        with pytest.raises(DomainError, match=f"phi = {past:g} is too small"):
            vacuum_null_alpha(past, k)
        assert mp_reference.vacuum_null_alpha(past, k)[1] > -2.0 * EPS


# an asymmetric axis: W(q, y) and W(q, -y) differ off the cat's axes
AXIS = (-5.5, -2.2, -0.7, 0.0, 0.4, 1.9, 4.6)


class TestConditionalState:
    def test_perfect_cat_at_null(self):
        # fidelity F bounds the Wigner difference by (2/pi) 2 sqrt(1 - F)
        for phi in (0.05, 0.1, 0.3):
            p = ProtocolParams(vacuum_null_alpha(phi), phi)
            assert report(p).fidelity >= 1.0 - 1e-10
            w = kept_wigner(p, 0.0, AXIS, AXIS)
            cat = cat_wigner(cat_half_separation(p), AXIS, AXIS)
            assert np.max(np.abs(w - cat)) <= 4.0 / math.pi * 1e-5

    def test_reference_fidelity(self):
        r = report(ProtocolParams(1.0, 0.1))
        assert r.fidelity == pytest.approx(0.99999690356844, abs=1e-12)

    def test_dark_input_gives_vacuum(self):
        for x in (0.0, 1.3):
            w = kept_wigner(ProtocolParams(0.0, 0.3), x, AXIS, AXIS)
            assert np.max(np.abs(w - wigner_grid(vacuum(), AXIS, AXIS))) <= 1e-15

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            kept_wigner(ProtocolParams(0.0, 0.3), 10.0, AXIS, AXIS)


class TestCatWigner:
    """cat_wigner against the 80-digit pair sum on both sides of
    _plane_wigner's switch at s^2 = 1, and at separations of 1e-12 and
    below, where the pair sum would cancel in doubles."""

    TOL = 4 * 2.0 ** -52  # a few ulps of the peak W(0) = 2/pi

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, math.nextafter(0.5e-12, 1.0),
                                   0.5e-12, 1e-13],
                             ids=["s2=0.25", "s2=1", "s2=4", "floor", "s=5e-13",
                                  "s=1e-13"])
    def test_against_high_precision(self, s):
        got = cat_wigner(s, AXIS, AXIS)
        want = mp_reference.cat_wigner(s, AXIS, AXIS)
        assert np.max(np.abs(got - want)) <= self.TOL


class TestHomodyneDensity:
    def test_dark_input_is_vacuum_marginal(self):
        p = ProtocolParams(0.0, 0.3)
        assert homodyne_density(p, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-14)
        assert homodyne_density(p, 1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), abs=1e-14)

    def test_unit_mass(self):
        p = ProtocolParams(2.0, 0.3)
        xs, ws, _ = gauss_legendre((((-8.0, 8.0),),))
        total = sum(w * homodyne_density(p, x) for x, w in zip(xs, ws))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_even_in_x(self):
        p = ProtocolParams(1.3, 0.4)
        for x in (0.3, 1.1, 2.7):
            assert homodyne_density(p, x) == pytest.approx(
                homodyne_density(p, -x), abs=1e-13)


class TestReport:
    def test_reference_point(self):
        r = report(ProtocolParams(1.0, 0.1))
        assert r.vacuum_coeff == pytest.approx(
            1.4873220467199977 + 0j, abs=1e-14)
        assert r.cat_coeff == pytest.approx(0.7511255444649425 + 0j, abs=0)
        assert r.ratio == pytest.approx(1.9801244381583083, abs=1e-13)
        assert r.density_at_x == pytest.approx(0.5627776700410807, abs=1e-14)
        assert r.separations.d == SQRT2 * r.separations.d0

    def test_ratio_field_matches_closed_form(self):
        rng = np.random.default_rng(14)
        points = list(params_grid(rng, 30, alpha_max=3.0))
        points += [ProtocolParams(a, phi) for a, phi in TINY_PHI_POINTS]
        for p in points:
            r = report(p)
            assert abs(r.ratio - coefficient_ratio(p)) <= ratio_tolerance(p)

    def test_null_report(self):
        p = ProtocolParams(vacuum_null_alpha(0.1), 0.1)
        r = report(p)
        assert r.ratio < 1e-12
        assert r.fidelity >= 1.0 - 1e-10

    def test_dark_source_ratio(self):
        r = report(ProtocolParams(0.0, 0.4))
        assert r.ratio == pytest.approx(2.0, abs=1e-13)

    def test_ratio_past_the_float_range_names_x(self):
        # |c_cat| = g(38) is about 2e-314 and |c_vac| about 0.46
        p = ProtocolParams(19.0, 3.14159)
        with pytest.raises(DomainError, match=r"overflows at x=38\.0$"):
            report(p, 38.0)
        # one lobe apart: the ratio is about 1.1e297, its exponent x d0 - s^2
        # of condition number about x d0 = 1406
        got = report(p, 37.0).ratio
        assert rel(got, Conditioning(19.0, 3.14159).ratio(37.0)) <= 1e-12

    def test_ratio_where_both_coefficients_underflow(self):
        # at alpha0 = 1e154 s^2 overflows; the lobe at x = d0 has a density,
        # but |c_vac| / |c_cat| is inf / inf there
        p = ProtocolParams(1e154, 0.3)
        with pytest.raises(DomainError, match="overflows at x="):
            report(p, separations(p).d0)


class TestWindowMetrics:
    def test_reference_window(self):
        p = ProtocolParams(math.sqrt(math.pi), math.pi / 6)
        [(prob, fid)] = window_metrics(p, [HomodyneWindow(0.0, 0.2)])
        assert prob == pytest.approx(0.16040987038868226, abs=1e-12)
        assert fid == pytest.approx(0.999448358978538, abs=1e-12)

    def test_narrow_window_matches_sharp_conditioning(self):
        p = ProtocolParams(1.5, 0.2)
        [(_, fid)] = window_metrics(p, [HomodyneWindow(0.0, 1e-4)])
        sharp = report(p).fidelity
        assert fid == pytest.approx(sharp, abs=1e-6)

    def test_truncation_guard(self):
        # the Fock cap belongs to the oracle alone; window_metrics has none
        with pytest.raises(TruncationTooLarge):
            oracle_pipeline(ProtocolParams(50.0, 0.1))

    def test_null_fidelity(self):
        p = ProtocolParams(vacuum_null_alpha(1e-3), 1e-3)
        assert p.alpha0 == pytest.approx(39.63, abs=5e-3)
        windows = [HomodyneWindow(0.0, eps) for eps in (1e-4, 1e-2, 1e-1, 1.0)]
        for _, fid in window_metrics(p, windows):
            assert 1.0 - 1e-9 <= fid <= 1.0

    def test_empty_window_list(self):
        with pytest.raises(DomainError, match="empty window list"):
            window_metrics(ProtocolParams(1.0, 0.3), [])

    def test_window_off_the_marginal(self):
        with pytest.raises(ZeroProbability):
            window_metrics(ProtocolParams(1.0, 0.3), [HomodyneWindow(50.0, 0.1)])

    @pytest.mark.parametrize("phi", [0.3, 1.5, 3.0])
    def test_lobe_spacing_bound(self, phi):
        def at_spacing(spacing):
            # outer lobe centres +-d0 where doubles lie spacing apart
            d0 = 1.5 * 2.0 ** 52 * spacing
            return ProtocolParams(d0 / (2.0 * math.sin(0.5 * phi)), phi)

        whole = [HomodyneWindow(0.0, 1e308)]
        [(prob, _)] = window_metrics(at_spacing(0.25), whole)
        assert abs(prob - 1.0) <= 1e-15
        # at 0.5 the whole marginal came out 5e-5 above 1
        with pytest.raises(DomainError, match="0.5 apart"):
            window_metrics(at_spacing(0.5), whole)


# --- the route with a Gram sum at every stage ------------------------------

def interfere_renormalized(p, merge=True):
    """Two-mode terms (w, a, b) of the sources' product after the beam
    splitter, renormalized by their two-mode Gram sum, as if that step could
    not be skipped.  merge=False keeps source amplitudes closer than
    COALESCE_TOL apart, as the basis form of report, homodyne_density and
    window_metrics does; merging them moves a lobe by up to COALESCE_TOL."""
    if merge:
        src = source_state(p)
    else:
        src = normalize(tuple(
            (1.0, complex(a)) for a in source_amplitudes(p)))
    product = [(wi * wj, ai, aj) for wi, ai in src for wj, aj in src]
    if merge:
        # the pairs of a coalesced source are pairwise distinct: coalescing
        # the product would merge nothing
        assert all(max(abs(a - c), abs(b - d)) > COALESCE_TOL
                   for k, (_, a, b) in enumerate(product)
                   for _, c, d in product[:k])
    two = [(w, (a + b) / SQRT2, (a - b) / SQRT2) for w, a, b in product]
    n2 = sum(wi.conjugate() * wj * coherent_overlap(ai, aj)
             * coherent_overlap(bi, bj)
             for wi, ai, bi in two for wj, aj, bj in two).real
    n = math.sqrt(n2)
    return [(w / n, a, b) for w, a, b in two]


def projected_renormalized(p, x, merge=True):
    """Raw projected kept-mode terms and their 16-term Gram density."""
    kept = tuple((w * quadrature_overlap(x, a), b)
                 for w, a, b in interfere_renormalized(p, merge))
    return kept, inner(kept, kept).real


def conditional_renormalized(p, x):
    """The conditioned state coalesced and normalized by a second Gram sum."""
    kept, dens = projected_renormalized(p, x)
    if dens < ZERO_DENSITY:
        raise ZeroProbability(
            f"conditioning density {dens:.3e} at x={x} below floor")
    return normalize(coalesce(kept))


def wigner_renormalized(p, x):
    """kept_wigner by coherent terms: wigner_grid of conditional_renormalized."""
    return wigner_grid(conditional_renormalized(p, x), AXIS, AXIS)


def window_metrics_renormalized(p, windows):
    """window_metrics by coherent terms: the Gram matrices of the kept terms
    of interfere_renormalized(p, merge=False), and of the ideal cat against
    them, contracted with the window integrals of the terms' projections."""
    two = interfere_renormalized(p, merge=False)
    kept = tuple((w, b) for w, _, b in two)
    a = np.array([a for _, a, _ in two])
    gram_kept = np.array(gram(kept, kept))
    u = np.array(gram(ideal_cat(p), kept)).sum(axis=0)
    d0 = separations(p).d0
    metrics = []
    for window in windows:
        x, ws, _ = gauss_legendre(
            (protocol._window_pieces(window, protocol._lobe_ranges(d0)),))
        x = x[:, None]
        q = PI_QUARTER_INV * np.exp(-0.5 * (x - SQRT2 * a.real) ** 2
                                    + 1j * a.imag * (SQRT2 * x - a.real))
        quad = (q.conj().T * ws) @ q
        prob = float(np.sum(gram_kept * quad).real)
        if prob < ZERO_DENSITY:
            raise ZeroProbability(f"window probability {prob:.3e} below floor")
        numer = float((u.conj() @ quad @ u).real)
        metrics.append((prob, min(max(numer / prob, 0.0), 1.0)))
    return metrics


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except CatforgeError as exc:
        return type(exc), str(exc)


def just_apart(alpha0, gap):
    """Parameters whose source amplitudes lie gap apart: 2 alpha0 sin(phi/2)."""
    return ProtocolParams(alpha0, 2.0 * math.asin(gap / (2.0 * alpha0)))


class TestOneGramPerState:
    """The one-Gram route agrees with a Gram sum at every stage to 1e-13."""

    TOL = 1e-13

    # alpha0 = 0 (one source term), phi = 0 and pi, source amplitudes just
    # inside and outside COALESCE_TOL, and kept amplitudes +-s just inside
    # and outside it (s = gap / sqrt2)
    EDGES = [ProtocolParams(0.0, 0.7), ProtocolParams(1.5, 0.0),
             ProtocolParams(1.5, math.pi),
             just_apart(1.0, 0.99 * COALESCE_TOL),
             just_apart(1.0, 1.01 * COALESCE_TOL),
             just_apart(2.0, 0.99 * SQRT2 * COALESCE_TOL),
             just_apart(2.0, 1.01 * SQRT2 * COALESCE_TOL)]

    @staticmethod
    def points(n=500):
        rng = np.random.default_rng(90)
        for _ in range(n):
            yield (ProtocolParams(rng.uniform(0.0, 6.0),
                                  rng.uniform(0.0, math.pi)),
                   rng.uniform(-3.0, 3.0))

    def check_point(self, p, x):
        kept, dens = projected_renormalized(p, x, merge=False)
        assert abs(homodyne_density(p, x) - max(dens, 0.0)) <= self.TOL
        want = outcome(wigner_renormalized, p, x)
        got = outcome(kept_wigner, p, x, AXIS, AXIS)
        if isinstance(want, tuple):
            assert got == want
            assert outcome(report, p, x) == want
            return
        assert np.max(np.abs(got - want)) <= self.TOL
        r = report(p, x)
        assert abs(r.fidelity - abs(inner(ideal_cat(p), kept)) ** 2 / dens) \
            <= self.TOL
        assert abs(r.density_at_x - max(dens, 0.0)) <= self.TOL

    def test_random_points(self):
        for p, x in self.points():
            self.check_point(p, x)

    @pytest.mark.parametrize("p", EDGES, ids=[
        "dark", "phi0", "phipi", "source-merged", "source-apart",
        "kept-merged", "kept-apart"])
    def test_edge_points(self, p):
        for x in (0.0, 0.4, -1.7):
            self.check_point(p, x)

    def test_coalescing_edges_are_hit(self):
        terms = [(len(source_state(p)), len(conditional_renormalized(p, 0.0)))
                 for p in self.EDGES[3:]]
        assert terms == [(1, 1), (2, 1), (2, 1), (2, 3)]

    def test_tail_density_is_exactly_zero(self):
        p = ProtocolParams(1.0, 0.3)
        assert projected_renormalized(p, 60.0)[1] == 0.0
        assert homodyne_density(p, 60.0) == 0.0
        self.check_point(p, 60.0)
        with pytest.raises(ZeroProbability, match="density 0.000e"):
            kept_wigner(p, 60.0, AXIS, AXIS)

    def test_density_near_the_floor_against_80_digits(self):
        # densities in [1e-30, 1e-28), e^-x^2 / sqrt(pi) for the dark source:
        # the two coordinates cancel nothing there, so report and kept_wigner
        # answer down to ZERO_DENSITY, and below it refuse
        for alpha0, phi, x in ((0.0, 0.5, 8.136), (1.0, 0.5, 8.4)):
            p, ref = ProtocolParams(alpha0, phi), Conditioning(alpha0, phi)
            r = report(p, x)
            assert ZERO_DENSITY <= r.density_at_x < 1e-28
            assert rel(r.density_at_x, ref.density(x)) <= 1e-14
            assert rel(r.ratio, ref.ratio(x)) <= 1e-14
            assert rel(r.cat_coeff, ref.coefficients(x)[1]) <= 1e-14
            got = kept_wigner(p, x, AXIS, AXIS)
            assert np.max(np.abs(got - ref.wigner(x, AXIS, AXIS))) <= 1e-15
        p, x = ProtocolParams(0.0, 0.5), 8.4
        assert homodyne_density(p, x) < ZERO_DENSITY
        for fn, args in ((report, ()), (kept_wigner, (AXIS, AXIS))):
            with pytest.raises(ZeroProbability, match="below floor"):
                fn(p, x, *args)

    def test_window_metrics(self):
        rng = np.random.default_rng(91)
        cases = [(p, [HomodyneWindow(x, w) for w in
                      sorted(rng.uniform(1e-3, 1.5, 2))])
                 for p, x in self.points()]
        cases += [(p, [HomodyneWindow(0.0, 0.05), HomodyneWindow(1.0, 0.5)])
                  for p in self.EDGES]
        cases.append((ProtocolParams(1.0, 0.3), [HomodyneWindow(60.0, 0.1)]))
        for p, ws in cases:
            got = outcome(window_metrics, p, ws)
            want = outcome(window_metrics_renormalized, p, ws)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert np.max(np.abs(np.subtract(got, want))) <= self.TOL


# --- near an odd source, against the 80-digit reference ----------------------

def odd_source(k, d0):
    """(alpha0, phi) with alpha0^2 sin phi = (2k+1) pi and source separation
    2 alpha0 sin(phi/2) = d0, up to rounding (alpha0^2 sin phi is
    alpha0 d0 cos(phi/2))."""
    phi = 0.0
    for _ in range(4):
        alpha0 = (2 * k + 1) * math.pi / (d0 * math.cos(0.5 * phi))
        phi = 2.0 * math.asin(0.5 * d0 / alpha0)
    return alpha0, phi


def rel(got, want):
    return abs(got - want) / abs(want)


def check_coefficients(p, x, ulps=4):
    """report's c_vac and c_cat against mp_reference at X = x.

    Each sums amplitudes <x|A> = pi^(-1/4) exp(-(x - sqrt2 Re A)^2/2
    + i Im A (sqrt2 x - Re A)) of a float A from (alpha0, phi), whose real
    and imaginary parts are each rounded relative to themselves.  That moves
    the phase by a few ulps times |Im A| (|sqrt2 x| + |Re A|) and the log of
    the modulus by a few ulps times |x - sqrt2 Re A| (|x| + sqrt2 |Re A|),
    the condition numbers of <x|A>; the tolerance weighs each |<x|A>| by
    them.  The phase alone fails at phi near pi, where |Re A| is large.
    """
    a_plus, a_minus = source_amplitudes(p)
    measured = ((SQRT2 * a_plus, SQRT2 * a_minus), ((a_plus + a_minus) / SQRT2,))
    r = report(p, x)
    got = (r.vacuum_coeff, r.cat_coeff)
    want = Conditioning(p.alpha0, p.phi).coefficients(x)
    for g, w, amps in zip(got, want, measured):
        tol = sum(abs(quadrature_overlap(x, a))
                  * (1.0 + abs(a.imag) * (SQRT2 * abs(x) + abs(a.real))
                     + abs(x - SQRT2 * a.real) * (abs(x) + SQRT2 * abs(a.real)))
                  for a in amps)
        assert abs(g - w) <= ulps * 2.0 ** -52 * tol


class TestOddSourceReference:
    """Near alpha0^2 sin phi = (2k+1) pi the source norm^2 is about d0^2, and
    the kept mode's coherent terms cancel to about 4 log10(1/d0) digits (at
    d0 = 1e-3, prepare and window printed 3 digits, at 1e-4 none).  The basis
    form keeps every quantity within 1e-14 of mp_reference."""

    TOL = 1e-14

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("d0", [10.0 ** -e for e in range(1, 9)])
    def test_family(self, k, d0):
        alpha0, phi = odd_source(k, d0)
        p = ProtocolParams(alpha0, phi)
        assert rel(separations(p).d0, d0) <= 1e-15
        assert rel(alpha0 * alpha0 * math.sin(phi), (2 * k + 1) * math.pi) <= 1e-15
        ref = Conditioning(alpha0, phi)
        # R, the real part of the vacuum coordinate, changes sign near 0.7
        for x in (0.0, 0.7, 2.0):
            assert rel(homodyne_density(p, x), ref.density(x)) <= self.TOL
            check_coefficients(p, x)
        r = report(p)
        assert rel(r.density_at_x, ref.density(0.0)) <= self.TOL
        assert rel(r.fidelity, ref.fidelity(0.0)) <= self.TOL
        [got] = window_metrics(p, [HomodyneWindow(0.0, 0.1)])
        for g, w in zip(got, ref.window(-0.1, 0.1)):
            assert rel(g, w) <= self.TOL

    # off both axes, so the term odd in y (through Im alpha) enters
    CELLS = ((-1.5, 0.9), (0.9, -0.4), (0.3, 1.7))

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("d0", [10.0 ** -e for e in range(1, 9)])
    def test_wigner_family(self, k, d0):
        # kept_wigner takes theta = alpha0^2 sin(phi) from the rounded sin(phi),
        # as report does.  Off x = 0 an ulp of theta moves W by theta |dW/dtheta|
        # (about 1e4 at d0 = 1e-3, x = 0.7), so the tolerance adds four such ulps
        alpha0, phi = odd_source(k, d0)
        p = ProtocolParams(alpha0, phi)
        ref = Conditioning(alpha0, phi)
        for x in (0.0, 0.7, 2.0):
            for q, y in self.CELLS:
                tol = self.TOL
                if x:
                    tol += 4 * 2.0 ** -52 * abs(ref.wigner_theta_slope(x, q, y))
                got = kept_wigner(p, x, [q], [y])
                assert abs(got[0, 0] - ref.wigner(x, [q], [y])[0][0]) <= tol

    def test_window_example(self):
        # d0 = 1e-3: `window` printed probability 0.08380 at eps = 0.1
        alpha0, phi = 3141.592653589793, 3.183098861837907e-07
        [(prob, fid)] = window_metrics(ProtocolParams(alpha0, phi),
                                       [HomodyneWindow(0.0, 0.1)])
        assert round(prob, 6) == 0.083976
        want = Conditioning(alpha0, phi).window(-0.1, 0.1)
        assert rel(prob, want[0]) <= self.TOL
        assert rel(fid, want[1]) <= self.TOL


class TestKeptModeFloatArray:
    """_kept_mode takes a float in Python floats and an array in numpy; the
    two must agree bit for bit, signed zeros included."""

    POINTS = [(0.7, 0.4),    # s^2 <= 1
              (3.0, 0.5),    # s^2 > 1
              (0.0, 0.0),    # dark source, d0 = 0
              odd_source(2, 1e-8)]  # the integer path of _phase
    XS = [0.0, -0.0, 0.3, -1.7, 38.0, 45.0, -41.0, 1e3]

    @staticmethod
    def fields(out):
        dens, overlap2, (re, im, g, norm2, _, _) = out
        return dens, overlap2, re, im, g, norm2

    @pytest.mark.parametrize("alpha0, phi", POINTS,
                             ids=["small", "large", "dark", "odd"])
    def test_float_equals_array_element(self, alpha0, phi):
        p = ProtocolParams(alpha0, phi)
        for x in self.XS:
            got = self.fields(protocol._kept_mode(p, x))
            assert all(type(v) is float for v in got)
            want = [v[0] if isinstance(v, np.ndarray) else v for v in
                    self.fields(protocol._kept_mode(p, np.array([x])))]
            assert list(map(repr, got)) == list(map(repr, map(float, want))), x

    def test_random_points(self):
        # numpy's exp and sinh differ from libm's on a few percent of these
        rng = np.random.default_rng(31)
        for _ in range(2000):
            p = ProtocolParams(rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi))
            x = rng.uniform(-6.0, 6.0)
            got = self.fields(protocol._kept_mode(p, x))
            want = self.fields(protocol._kept_mode(p, np.array([x])))
            assert got[:2] == (want[0][0], want[1][0])
            assert got[2:] == (want[2][0], want[3][0], want[4][0], want[5])

    def test_int_and_numpy_scalars_take_the_float_path(self):
        p = ProtocolParams(0.7, 0.4)
        want = list(map(repr, self.fields(protocol._kept_mode(p, 1.0))))
        for x in (1, np.float64(1.0), np.int64(1)):
            got = self.fields(protocol._kept_mode(p, x))
            assert all(type(v) is float for v in got)
            assert list(map(repr, got)) == want


class TestKeptWigner:
    def test_random_points_against_the_coherent_terms(self):
        # the coherent terms' pair sum rounds to about an ulp times
        # (sum |w_i|)^2 times 2/pi; past sum |w_i| = 3 (near an odd source,
        # about 1.5% of draws) the 80-digit pair sum is the reference instead
        rng = np.random.default_rng(94)
        big = set()
        for _ in range(2000):
            p = ProtocolParams(rng.uniform(0.0, 6.0), rng.uniform(0.0, math.pi))
            x = rng.uniform(-3.0, 3.0)
            got = kept_wigner(p, x, AXIS, AXIS)
            ref = conditional_renormalized(p, x)
            if sum(abs(w) for w, _ in ref) <= 3.0:
                want = wigner_grid(ref, AXIS, AXIS)
            else:
                want = Conditioning(p.alpha0, p.phi).wigner(x, AXIS, AXIS)
            assert np.max(np.abs(got - want)) <= 1e-14
            big.add(0.5 * separations(p).d0 ** 2 > 1.0)
        assert big == {False, True}

    @pytest.mark.parametrize("phi", [0.4, 1.2, math.pi / 2, 2.7])
    def test_continuous_across_the_branch_threshold(self, phi):
        # neighbouring alpha0 either side of s^2 = 1, where _plane_wigner
        # switches from its five products to the sum over 9 pairs
        alpha0 = 1.0 / (SQRT2 * math.sin(0.5 * phi))
        ps = [ProtocolParams(alpha0 + k * math.ulp(alpha0), phi)
              for k in range(-8, 9)]
        s2 = [0.5 * separations(p).d0 ** 2 for p in ps]
        k = next(k for k in range(16) if s2[k] <= 1.0 < s2[k + 1])
        for x in (0.0, 0.6, -1.9):
            below, above = (kept_wigner(p, x, AXIS, AXIS) for p in ps[k:k + 2])
            assert np.max(np.abs(below - above)) <= 1e-14


def test_coefficients_at_ordinary_points():
    rng = np.random.default_rng(92)
    for _ in range(200):
        check_coefficients(ProtocolParams(rng.uniform(0.0, 5.0),
                                          rng.uniform(0.0, math.pi)),
                           rng.uniform(-3.0, 3.0))
