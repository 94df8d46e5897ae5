"""Tests for the interference protocol layer.

Frozen decimals below were computed once from the closed forms and confirmed
against the independent number-basis route before being locked in; the
crosscheck suite keeps guarding that agreement on a full grid.
"""

import cmath
import math

import numpy as np
import pytest

from catforge import protocol
from catforge.config import COALESCE_TOL, ZERO_DENSITY
from catforge.crosscheck import oracle_pipeline
from catforge.cv_core import (PI_QUARTER_INV, CoherentSuperposition,
                              HomodyneWindow, TwoModeSuperposition,
                              beam_splitter_50_50, even_cat,
                              quadrature_overlap, superposition_inner,
                              superposition_norm, vacuum)
from catforge.errors import (CatforgeError, DegenerateState, DomainError,
                             TruncationTooLarge, ZeroProbability)
from catforge.quadrature import gauss_legendre
from catforge.protocol import (ProtocolParams, cat_coefficient,
                               coefficient_ratio, coefficient_ratio_second_order,
                               coefficient_ratio_small_angle, conditional_state,
                               homodyne_density, ideal_cat, interfere, report,
                               separations, source_state, vacuum_coefficient,
                               vacuum_null_alpha, vacuum_null_alpha_approx,
                               window_metrics)

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
        with pytest.raises(ValueError):
            ProtocolParams(-1.0, 0.1)
        with pytest.raises(ValueError):
            ProtocolParams(float("nan"), 0.1)
        with pytest.raises(ValueError):
            ProtocolParams(1.0, float("inf"))


class TestSourceState:
    def test_dark_source_is_vacuum(self):
        s = source_state(ProtocolParams(0.0, 0.7))
        assert len(s.terms) == 1
        assert s.terms[0][1] == 0.0

    def test_aligned_source_is_coherent(self):
        s = source_state(ProtocolParams(1.0, 0.0))
        assert len(s.terms) == 1
        w, a = s.terms[0]
        assert abs(a - 1j) < 1e-15
        assert abs(abs(w) - 1.0) < 1e-12

    def test_component_separation(self):
        p = ProtocolParams(2.0, 0.2)
        d0 = separations(p).d0
        assert d0 == pytest.approx(4.0 * math.sin(0.1), abs=1e-15)
        s = source_state(p)
        amps = [a for _, a in s.terms]
        assert abs(amps[0] - amps[1]) == pytest.approx(d0, abs=1e-13)

    def test_source_is_normalized(self):
        rng = np.random.default_rng(4)
        for p in params_grid(rng, 30):
            assert superposition_norm(source_state(p)) == pytest.approx(
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


class TestInterfere:
    def test_output_amplitude_structure(self):
        p = ProtocolParams(1.0, 0.3)
        two = interfere(p)
        s = SQRT2 * math.sin(0.15)
        assert max(abs(b.imag) for _, _, b in two.terms) < 1e-13
        kept = sorted(b.real for _, _, b in two.terms)
        assert kept == pytest.approx([-s, 0.0, 0.0, s], abs=1e-12)
        # empty-port branches carry the full source magnitude
        for _, a, b in two.terms:
            if b != 0:
                assert abs(a - SQRT2 * 1j * math.cos(0.15)) < 1e-12

    def test_normalized(self):
        rng = np.random.default_rng(6)
        for p in params_grid(rng, 20, alpha_max=3.0):
            assert superposition_norm(interfere(p)) == pytest.approx(1.0, abs=1e-12)

    def test_dark_input(self):
        two = interfere(ProtocolParams(0.0, 1.0))
        assert len(two.terms) == 1
        w, a, b = two.terms[0]
        assert (a, b) == (0.0, 0.0)
        assert abs(abs(w) - 1.0) < 1e-12


class TestIdealCat:
    def test_branch_amplitudes(self):
        cat = ideal_cat(ProtocolParams(SQRT2, math.pi))
        amps = sorted(a.real for _, a in cat.terms)
        assert amps == pytest.approx([-2.0, 2.0], abs=1e-15)

    def test_degenerate_collapses_to_vacuum(self):
        cat = ideal_cat(ProtocolParams(1.0, 0.0))
        assert len(cat.terms) == 1
        assert cat.terms[0][1] == 0.0
        assert abs(superposition_inner(cat, vacuum())) == pytest.approx(
            1.0, abs=1e-12)

    def test_require_cat_raises_when_degenerate(self):
        with pytest.raises(DegenerateState):
            ideal_cat(ProtocolParams(1.0, 0.0), require_cat=True)
        with pytest.raises(DegenerateState):
            ideal_cat(ProtocolParams(0.0, 0.5), require_cat=True)

    def test_matches_even_cat_helper(self):
        # alpha0 = 1, phi = pi/2 puts the branches exactly at +-1
        cat = ideal_cat(ProtocolParams(1.0, math.pi / 2))
        want = even_cat(1.0)
        assert abs(superposition_inner(cat, want)) == pytest.approx(
            1.0, abs=1e-12)

    def test_vacuum_overlap_closed_form(self):
        rng = np.random.default_rng(8)
        for p in params_grid(rng, 30, alpha_max=3.0):
            s = SQRT2 * p.alpha0 * math.sin(0.5 * p.phi)
            if s < 1e-6:
                continue
            want = 2.0 * math.exp(-0.5 * s * s) / math.sqrt(
                2.0 + 2.0 * math.exp(-2.0 * s * s))
            got = superposition_inner(vacuum(), ideal_cat(p))
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
            c = cat_coefficient(p)
            assert c.real == PI_QUARTER_INV
            assert c.imag == 0.0

    def test_vacuum_coefficient_dark_source(self):
        c = vacuum_coefficient(ProtocolParams(0.0, 0.4))
        assert abs(c - 2.0 * PI_QUARTER_INV) < 1e-15

    def test_vacuum_coefficient_is_real(self):
        rng = np.random.default_rng(10)
        for p in params_grid(rng, 50):
            assert vacuum_coefficient(p).imag == 0.0

    def test_vacuum_coefficient_matches_direct_overlaps(self):
        p = ProtocolParams(1.7, 0.45)
        a_plus = 1j * p.alpha0 * cmath.exp(0.5j * p.phi)
        a_minus = 1j * p.alpha0 * cmath.exp(-0.5j * p.phi)
        want = (quadrature_overlap(0.0, SQRT2 * a_plus)
                + quadrature_overlap(0.0, SQRT2 * a_minus))
        assert vacuum_coefficient(p) == want


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
            quotient = abs(vacuum_coefficient(p)) / abs(cat_coefficient(p))
            assert coefficient_ratio(p) == pytest.approx(quotient, abs=1e-12)

    @pytest.mark.parametrize("alpha0,phi", TINY_PHI_POINTS)
    def test_tiny_phi_against_high_precision(self, alpha0, phi):
        import mpmath
        with mpmath.workdps(50):
            a, f = mpmath.mpf(alpha0), mpmath.mpf(phi)
            want = float(2 * mpmath.exp(-2 * a * a * mpmath.sin(f / 2) ** 2)
                         * abs(mpmath.cos(a * a * mpmath.sin(f))))
        p = ProtocolParams(alpha0, phi)
        assert abs(coefficient_ratio(p) - want) <= ratio_tolerance(p)

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


class TestConditionalState:
    def test_perfect_cat_at_null(self):
        for phi in (0.05, 0.1, 0.3):
            p = ProtocolParams(vacuum_null_alpha(phi), phi)
            fid = abs(superposition_inner(ideal_cat(p),
                                          conditional_state(p))) ** 2
            assert fid >= 1.0 - 1e-10

    def test_reference_fidelity(self):
        r = report(ProtocolParams(1.0, 0.1))
        assert r.fidelity == pytest.approx(0.99999690356844, abs=1e-12)

    def test_dark_input_gives_vacuum(self):
        cond = conditional_state(ProtocolParams(0.0, 0.3))
        assert len(cond.terms) == 1
        assert cond.terms[0][1] == 0.0

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            conditional_state(ProtocolParams(0.0, 0.3), x=10.0)


class TestHomodyneDensity:
    def test_dark_input_is_vacuum_marginal(self):
        p = ProtocolParams(0.0, 0.3)
        assert homodyne_density(p, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-14)
        assert homodyne_density(p, 1.0) == pytest.approx(
            math.exp(-1.0) / math.sqrt(math.pi), abs=1e-14)

    def test_unit_mass(self):
        p = ProtocolParams(2.0, 0.3)
        xs, ws = gauss_legendre(-8.0, 8.0)
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

def interfere_renormalized(p):
    """interfere with the product coalesced and renormalized after the beam
    splitter, as if neither step could be skipped."""
    src = source_state(p)
    product = TwoModeSuperposition.from_terms(
        [(wi * wj, ai, aj) for wi, ai in src.terms for wj, aj in src.terms])
    return beam_splitter_50_50(product).normalize()


def projected_renormalized(p, x):
    """Raw projected kept-mode terms and their 16-term Gram density."""
    kept = CoherentSuperposition(tuple(
        (w * quadrature_overlap(x, a), b)
        for w, a, b in interfere_renormalized(p).terms))
    return kept, superposition_inner(kept, kept).real


def conditional_renormalized(p, x):
    """The conditioned state coalesced and normalized by a second Gram sum."""
    kept, dens = projected_renormalized(p, x)
    if dens < ZERO_DENSITY:
        raise ZeroProbability(
            f"conditioning density {dens:.3e} at x={x} below floor")
    return CoherentSuperposition.from_terms(kept.terms).normalize()


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
        dens = projected_renormalized(p, x)[1]
        assert abs(homodyne_density(p, x) - max(dens, 0.0)) <= self.TOL
        want = outcome(conditional_renormalized, p, x)
        got = outcome(conditional_state, p, x)
        if isinstance(want, tuple):
            assert got == want
            assert outcome(report, p, x) == want
            return
        assert [a for _, a in got.terms] == [a for _, a in want.terms]
        assert max(abs(u - v) for (u, _), (v, _)
                   in zip(got.terms, want.terms)) <= self.TOL
        r = report(p, x)
        assert abs(r.fidelity - abs(superposition_inner(
            ideal_cat(p), want)) ** 2) <= self.TOL
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
        terms = [(len(source_state(p).terms), len(conditional_state(p).terms))
                 for p in self.EDGES[3:]]
        assert terms == [(1, 1), (2, 1), (2, 1), (2, 3)]

    def test_tail_density_is_exactly_zero(self):
        p = ProtocolParams(1.0, 0.3)
        assert projected_renormalized(p, 60.0)[1] == 0.0
        assert homodyne_density(p, 60.0) == 0.0
        self.check_point(p, 60.0)
        with pytest.raises(ZeroProbability, match="density 0.000e"):
            conditional_state(p, 60.0)

    def test_degenerate_floor_between_the_two_floors(self):
        # density e^-x^2 / sqrt(pi) of the dark source lands in [1e-30, 1e-28)
        p, x = ProtocolParams(0.0, 0.5), 8.136
        assert ZERO_DENSITY <= homodyne_density(p, x) < 1e-28
        with pytest.raises(DegenerateState):
            conditional_state(p, x)
        self.check_point(p, x)

    def test_window_metrics(self, monkeypatch):
        rng = np.random.default_rng(91)
        cases = [(p, [HomodyneWindow(x, w) for w in
                      sorted(rng.uniform(1e-3, 1.5, 2))])
                 for p, x in self.points()]
        cases += [(p, [HomodyneWindow(0.0, 0.05), HomodyneWindow(1.0, 0.5)])
                  for p in self.EDGES]
        cases.append((ProtocolParams(1.0, 0.3), [HomodyneWindow(60.0, 0.1)]))
        got = [outcome(window_metrics, p, ws) for p, ws in cases]
        monkeypatch.setattr(protocol, "interfere", interfere_renormalized)
        want = [outcome(window_metrics, p, ws) for p, ws in cases]
        for g, w in zip(got, want):
            if isinstance(w, tuple):
                assert g == w
            else:
                assert np.max(np.abs(np.subtract(g, w))) <= self.TOL
