"""Tests for the closed-form superposition algebra.

The independent checks here are deliberately dumb: truncated Fock series
summed in-test, so any error in the closed forms shows up against a
different derivation.
"""

import cmath
import math
import struct

import numpy as np
import pytest

from catforge import cv_core
from catforge.cv_core import (CoherentSuperposition, HomodyneWindow,
                              TwoModeSuperposition, beam_splitter_50_50,
                              coherent, coherent_overlap, even_cat,
                              quadrature_overlap, superposition_inner,
                              superposition_norm, vacuum,
                              wigner_grid, wigner_point)
from catforge.errors import DegenerateState

SQRT2 = math.sqrt(2.0)
PI_QUARTER_INV = math.pi ** -0.25


def fock_series_overlap(alpha, beta, nmax=40):
    """<alpha|beta> by brute-force truncated number-basis summation."""
    alpha, beta = complex(alpha), complex(beta)
    pref = math.exp(-0.5 * (abs(alpha) ** 2 + abs(beta) ** 2))
    term = 1.0 + 0j
    acc = term
    for n in range(1, nmax):
        term *= alpha.conjugate() * beta / n
        acc += term
    return pref * acc


def hermite_series_overlap(x, alpha, nmax=40):
    """<x|alpha> summed over Hermite functions h_n(x) alpha^n/sqrt(n!)."""
    alpha = complex(alpha)
    h_prev = PI_QUARTER_INV * math.exp(-0.5 * x * x)
    h = SQRT2 * x * h_prev
    coef = math.exp(-0.5 * abs(alpha) ** 2)
    acc = coef * h_prev
    for n in range(1, nmax):
        coef *= alpha / math.sqrt(n)
        acc += coef * h
        h, h_prev = (x * math.sqrt(2.0 / (n + 1)) * h
                     - math.sqrt(n / (n + 1)) * h_prev), h
    return acc


class TestCoherentOverlap:
    def test_vacuum_self(self):
        assert coherent_overlap(0, 0) == 1.0

    def test_self_overlap_is_one(self):
        assert abs(coherent_overlap(2 + 3j, 2 + 3j) - 1.0) < 1e-14

    def test_against_fock_series(self):
        assert abs(coherent_overlap(0, 1) - math.exp(-0.5)) < 1e-14
        for a, b in [(0, 1), (1.5, -0.5j), (1 + 1j, 2 - 0.3j)]:
            assert abs(coherent_overlap(a, b) - fock_series_overlap(a, b)) < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = (complex(*v) for v in rng.uniform(-5, 5, (2, 2)))
            mod = abs(coherent_overlap(a, b))
            assert mod <= 1.0 + 1e-14
            if abs(a - b) > 1e-6:
                assert mod < 1.0


class TestQuadratureOverlap:
    def test_imaginary_amplitude_is_constant_at_origin(self):
        # the alpha^2 and |alpha|^2 terms cancel exactly on the imaginary axis
        for r in (1.3, -0.4, 7.0):
            assert quadrature_overlap(0.0, SQRT2 * 1j * r) == PI_QUARTER_INV

    def test_vacuum_wavefunction(self):
        got = quadrature_overlap(1.0, 0.0)
        assert abs(got - PI_QUARTER_INV * math.exp(-0.5)) < 1e-15
        assert abs(got - 0.455581) < 1e-6

    def test_against_hermite_series(self):
        for x, a in [(0.0, 1.0), (0.7, 1 + 0.5j), (-1.2, 0.3 - 0.8j)]:
            assert abs(quadrature_overlap(x, a) - hermite_series_overlap(x, a)) < 1e-12
        assert abs(quadrature_overlap(0, 1) - PI_QUARTER_INV * math.exp(-1)) < 1e-12

    def test_unit_mass(self):
        # |<x|alpha>|^2 integrates to 1; domain centred on sqrt2 Re alpha
        from catforge.quadrature import gauss_legendre
        for a in (0.0, 1.5, 1 - 2j):
            c = SQRT2 * complex(a).real
            xs, ws = gauss_legendre(c - 10.0, c + 10.0)
            total = sum(w * abs(quadrature_overlap(x, a)) ** 2
                        for x, w in zip(xs, ws))
            assert abs(total - 1.0) < 1e-8


def _bits(z):
    return struct.pack("dd", z.real, z.imag)


class TestUnderflowGuard:
    """Below EXP_UNDERFLOW an overlap is 0 and its phase is not formed.

    At or above the limit both overlaps keep the bits of their unguarded
    exponentials; below it the exponential is 0 in any case, and near the
    top of the amplitude range the phase overflows while the real part is
    still finite, which cmath.exp refuses.
    """

    @staticmethod
    def unguarded_coherent(a, b):
        dr, di = a.real - b.real, a.imag - b.imag
        return cmath.exp(complex(-0.5 * (dr * dr + di * di),
                                 a.imag * dr - a.real * di))

    @staticmethod
    def unguarded_quadrature(x, a):
        dx = x - SQRT2 * a.real
        return PI_QUARTER_INV * cmath.exp(
            complex(-0.5 * dx * dx, a.imag * (SQRT2 * x - a.real)))

    @staticmethod
    def random_pair(rng):
        """An amplitude of magnitude 1e-3 .. 1e154 and an offset that is not
        lost to rounding next to it, of magnitude 1e-3 up to about both."""
        top = rng.uniform(-3, 154)
        a = cmath.rect(10.0 ** top, rng.uniform(-math.pi, math.pi))
        d = cmath.rect(10.0 ** rng.uniform(-3, max(top, 3.0)),
                       rng.uniform(-math.pi, math.pi))
        return a, d

    def test_coherent_overlap_bits_above_the_limit(self):
        rng = np.random.default_rng(41)
        above = below = 0
        for _ in range(10000):
            a, d = self.random_pair(rng)
            b = a + d
            dr, di = a.real - b.real, a.imag - b.imag
            if -0.5 * (dr * dr + di * di) >= cv_core.EXP_UNDERFLOW:
                above += 1
                assert _bits(coherent_overlap(a, b)) == _bits(
                    self.unguarded_coherent(a, b))
            else:
                below += 1
                assert _bits(coherent_overlap(a, b)) == _bits(0j)
        assert min(above, below) > 2500

    def test_quadrature_overlap_bits_above_the_limit(self):
        rng = np.random.default_rng(42)
        above = below = 0
        for _ in range(10000):
            a, d = self.random_pair(rng)
            x = SQRT2 * a.real + d.real
            dx = x - SQRT2 * a.real
            if -0.5 * dx * dx >= cv_core.EXP_UNDERFLOW:
                above += 1
                assert _bits(quadrature_overlap(x, a)) == _bits(
                    self.unguarded_quadrature(x, a))
            else:
                below += 1
                assert _bits(quadrature_overlap(x, a)) == _bits(0j)
        assert min(above, below) > 2500

    def test_overflowing_phase_gives_zero(self):
        # beam-splitter images at alpha0 = 1.25e154, phi = 0.76: real part
        # -8.6e307, imaginary part past the float range
        a = complex(-6.557009480070436e153, 1.641662653160711e154)
        b = complex(6.557009480070436e153, 1.641662653160711e154)
        with pytest.raises(ValueError):
            self.unguarded_coherent(a, b)
        assert coherent_overlap(a, b) == 0j
        x, alpha = -8.47079254463894e153, 1.5176995454451777e154j
        with pytest.raises(ValueError):
            self.unguarded_quadrature(x, alpha)
        assert quadrature_overlap(x, alpha) == 0j


class TestLargeAmplitudeReference:
    """Both overlaps against 50-digit mpmath at amplitudes 1e2 .. 1e8.

    The float arguments are taken as exact.  Each overlap is exp(e) with a
    real part of order one here, so the tolerances are a few ulps times the
    condition number of log|value| and of the phase in the arguments: any
    double evaluation must lose that much, while a form that cancels
    |alpha|^2-sized terms loses up to |alpha|^2 ulps.
    """

    EPS = np.finfo(float).eps

    def check(self, got, want, cond_mod, cond_phase):
        import mpmath
        assert abs(math.log(abs(got)) - float(mpmath.log(abs(want)))) \
            <= 8 * self.EPS * (1 + cond_mod)
        phase = float(mpmath.arg(want / mpmath.mpc(got)))
        assert abs(phase) <= 8 * self.EPS * (1 + cond_phase)

    def test_coherent_overlap(self):
        import mpmath
        rng = np.random.default_rng(31)
        with mpmath.workdps(50):
            for mag in (1e2, 1e4, 1e6, 1e8):
                for _ in range(10):
                    a = complex(mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                    b = a + complex(*rng.uniform(-2.0, 2.0, 2))
                    ma, mb = mpmath.mpc(a), mpmath.mpc(b)
                    want = mpmath.exp(-(abs(ma) ** 2 + abs(mb) ** 2) / 2
                                      + mpmath.conj(ma) * mb)
                    self.check(coherent_overlap(a, b), want,
                               abs(a - b) * (abs(a) + abs(b)), abs(a) * abs(b))

    def test_quadrature_overlap(self):
        import mpmath
        rng = np.random.default_rng(32)
        with mpmath.workdps(50):
            for mag in (1e2, 1e4, 1e6, 1e8):
                for _ in range(10):
                    a = complex(mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                    x = SQRT2 * a.real + rng.uniform(-3.0, 3.0)
                    ma, mx = mpmath.mpc(a), mpmath.mpf(x)
                    want = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(
                        -mx ** 2 / 2 + mpmath.sqrt(2) * mx * ma - ma ** 2 / 2
                        - abs(ma) ** 2 / 2)
                    dx = x - SQRT2 * a.real
                    self.check(quadrature_overlap(x, a), want,
                               abs(dx) * (abs(x) + SQRT2 * abs(a)),
                               (abs(x) + abs(a)) ** 2)


class TestSuperpositionAlgebra:
    def test_single_term_norm(self):
        assert abs(superposition_norm(coherent(1.7 - 0.2j)) - 1.0) < 1e-14

    def test_coalesced_vacuum_norm(self):
        s = CoherentSuperposition.from_terms([(1.0, 0.0), (1.0, 0.0)])
        assert len(s.terms) == 1
        assert abs(superposition_norm(s) - 2.0) < 1e-14

    def test_even_pair_norm(self):
        s = CoherentSuperposition.from_terms([(1.0, 1.0), (1.0, -1.0)])
        want = math.sqrt(2.0 + 2.0 * math.exp(-2.0))
        assert abs(superposition_norm(s) - want) < 1e-12
        # norm^2 = sum_even 4 e^-1 / n! = 4 e^-1 cosh(1) = 2 (1 + e^-2)
        series = 4.0 * math.exp(-1.0) * math.cosh(1.0)
        assert abs(want ** 2 - series) < 1e-12
        assert abs(want - 1.506875) < 1e-6

    def test_full_cancellation_raises(self):
        with pytest.raises(DegenerateState):
            CoherentSuperposition.from_terms([(1.0, 0.5), (-1.0, 0.5)])

    def test_norm_squared_matches_inner(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            terms = [(complex(*rng.standard_normal(2)),
                      complex(*rng.uniform(-2, 2, 2))) for _ in range(3)]
            s = CoherentSuperposition.from_terms(terms)
            inner = superposition_inner(s, s)
            assert abs(superposition_norm(s) ** 2 - inner.real) < 1e-12
            assert abs(inner.imag) < 1e-12

    def test_inner_conjugate_symmetry(self):
        a = CoherentSuperposition.from_terms([(1.0, 0.3 + 1j), (0.5j, -0.7)])
        b = CoherentSuperposition.from_terms([(2.0, 0.1), (1 - 1j, 1.1j)])
        assert abs(superposition_inner(a, b)
                   - superposition_inner(b, a).conjugate()) < 1e-14

    def test_vacuum_inner_examples(self):
        assert abs(superposition_inner(vacuum(), vacuum()) - 1.0) < 1e-14
        assert abs(superposition_inner(vacuum(), even_cat(0.0)) - 1.0) < 1e-14
        want = 2.0 * math.exp(-0.5) / math.sqrt(2.0 + 2.0 * math.exp(-2.0))
        got = superposition_inner(vacuum(), even_cat(1.0))
        assert abs(got - want) < 1e-12
        assert abs(want - 0.805018) < 1e-6

    def test_normalize(self):
        s = CoherentSuperposition.from_terms([(3.0, 0.9), (1j, -0.2)]).normalize()
        assert abs(superposition_norm(s) - 1.0) < 1e-12


class TestBeamSplitter:
    def test_equal_inputs_empty_second_port(self):
        a = 0.8 + 0.3j
        t = TwoModeSuperposition.from_terms([(1.0, a, a)])
        out = beam_splitter_50_50(t)
        ((w, oa, ob),) = out.terms
        assert abs(oa - SQRT2 * a) < 1e-15
        assert ob == 0.0

    def test_single_input_splits_evenly(self):
        a = 1.1 - 0.4j
        t = TwoModeSuperposition.from_terms([(1.0, a, 0.0)])
        ((_, oa, ob),) = beam_splitter_50_50(t).terms
        assert abs(oa - a / SQRT2) < 1e-15
        assert abs(ob - a / SQRT2) < 1e-15

    def test_vacuum_fixed_point(self):
        t = TwoModeSuperposition.from_terms([(1.0, 0.0, 0.0)])
        ((w, oa, ob),) = beam_splitter_50_50(t).terms
        assert (oa, ob) == (0.0, 0.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            terms = [(complex(*rng.standard_normal(2)),
                      complex(*rng.uniform(-2, 2, 2)),
                      complex(*rng.uniform(-2, 2, 2))) for _ in range(3)]
            t = TwoModeSuperposition.from_terms(terms)
            assert abs(superposition_norm(beam_splitter_50_50(t))
                       - superposition_norm(t)) < 1e-12

    def test_self_inverse(self):
        # the balanced splitter is an involution on amplitude pairs
        rng = np.random.default_rng(6)
        for _ in range(25):
            a, b = (complex(*v) for v in rng.uniform(-3, 3, (2, 2)))
            t = TwoModeSuperposition.from_terms([(1.0, a, b)])
            ((_, ra, rb),) = beam_splitter_50_50(beam_splitter_50_50(t)).terms
            assert abs(ra - a) < 1e-14
            assert abs(rb - b) < 1e-14


def wigner_parity_fock(s, nmax=80):
    """Origin Wigner value from the parity expectation in the number basis."""
    amps = np.zeros(nmax, dtype=complex)
    coefs = np.zeros(nmax, dtype=complex)
    for w, a in s.terms:
        a = complex(a)
        c = math.exp(-0.5 * abs(a) ** 2)
        term = complex(c)
        for n in range(nmax):
            coefs[n] = term
            term *= a / math.sqrt(n + 1)
        amps += complex(w) * coefs
    signs = np.where(np.arange(nmax) % 2 == 0, 1.0, -1.0)
    return (2.0 / math.pi) * float(np.sum(signs * np.abs(amps) ** 2))


def wigner_displaced_overlap(s, gamma):
    """Wigner value from displaced parity, using only coherent overlaps."""
    g = complex(gamma)
    acc = 0j
    for wi, ai in s.terms:
        for wj, aj in s.terms:
            phase_i = cmath.exp((g.conjugate() * ai - g * complex(ai).conjugate()) / 2)
            phase_j = cmath.exp((g.conjugate() * aj - g * complex(aj).conjugate()) / 2)
            acc += (complex(wi).conjugate() * wj * phase_i.conjugate() * phase_j
                    * coherent_overlap(ai - g, g - aj))
    return (2.0 / math.pi) * acc.real


class TestWigner:
    def test_vacuum_peak(self):
        assert abs(wigner_point(vacuum(), 0.0) - 2.0 / math.pi) < 1e-14

    def test_displacement_covariance(self):
        assert abs(wigner_point(coherent(1.0), 1.0) - 2.0 / math.pi) < 1e-14

    def test_even_cat_origin(self):
        cat = even_cat(1.5)
        assert abs(wigner_point(cat, 0.0) - wigner_parity_fock(cat)) < 1e-12
        # by parity, W(0) = 2/pi for every even cat, at any amplitude
        for beta in (1.5, 30.0, 1e3, 1e8):
            assert abs(wigner_point(even_cat(beta), 0.0) - 2.0 / math.pi) < 1e-12

    def test_matches_displaced_parity(self):
        rng = np.random.default_rng(9)
        states = [vacuum(), even_cat(1.2), coherent(0.5 - 0.7j)]
        for s in states:
            for _ in range(10):
                g = complex(*rng.uniform(-2, 2, 2))
                assert abs(wigner_point(s, g)
                           - wigner_displaced_overlap(s, g)) < 1e-12

    def test_imaginary_residue_small(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            terms = [(complex(*rng.standard_normal(2)),
                      complex(*rng.uniform(-1.5, 1.5, 2))) for _ in range(3)]
            s = CoherentSuperposition.from_terms(terms).normalize()
            g = complex(*rng.uniform(-2, 2, 2))
            # re-sum the kernel keeping the imaginary part
            acc = 0j
            for wi, ai in s.terms:
                for wj, aj in s.terms:
                    acc += (complex(wi).conjugate() * wj
                            * coherent_overlap(ai, aj)
                            * cmath.exp(-2.0 * (g.conjugate() - complex(ai).conjugate())
                                        * (g - aj)))
            assert abs(acc.imag) < 1e-12
            assert abs((2.0 / math.pi) * acc.real - wigner_point(s, g)) < 1e-14

    def test_grid_matches_pointwise(self):
        s = even_cat(1.0)
        re = [-0.5, 0.0, 1.3]
        im = [-1.0, 0.2]
        w = wigner_grid(s, re, im)
        assert w.shape == (3, 2)
        for i, x in enumerate(re):
            for j, y in enumerate(im):
                assert abs(w[i, j] - wigner_point(s, x + 1j * y)) < 1e-13

    def test_unit_mass(self):
        from catforge.quadrature import gauss_legendre
        s = even_cat(1.0)
        xs, ws = gauss_legendre(-6.0, 6.0)
        w = wigner_grid(s, xs, xs)
        total = float(ws @ w @ ws)
        assert abs(total - 1.0) < 1e-6

    def test_requires_normalized(self):
        s = CoherentSuperposition.from_terms([(2.0, 0.3)])
        with pytest.raises(ValueError):
            wigner_point(s, 0.0)

    def test_accepts_any_state_of_unit_norm(self):
        # the check measures the Gram norm, whatever built the state
        s = CoherentSuperposition(((1.0, 0.3),))
        re, im = [-1.0, 0.3, 2.0], [0.0, 0.5]
        assert np.array_equal(wigner_grid(s, re, im),
                              wigner_grid(coherent(0.3), re, im))


class TestHomodyneWindow:
    def test_bounds(self):
        w = HomodyneWindow(0.5, 0.2)
        assert (w.lo, w.hi) == (0.3, 0.7)

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            HomodyneWindow(0.0, 0.0)
        with pytest.raises(ValueError):
            HomodyneWindow(0.0, -1.0)
        with pytest.raises(ValueError):
            HomodyneWindow(math.nan, 1.0)
