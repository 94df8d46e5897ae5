"""Tests for the closed-form overlaps, the coherent-term reference and the
cat's Wigner function.

The independent checks here are deliberately dumb: truncated Fock series
summed in-test, so any error in the closed forms shows up against a
different derivation.  The coherent-term reference (coherent_terms), which
the protocol tests compare the package against, is checked the same way.
"""

import cmath
import math
import os
import pathlib
import struct
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mp_reference
from catforge import cv_core, fock_oracle, quadrature
from catforge.cv_core import HomodyneWindow, coherent_overlap, quadrature_overlap
from catforge.errors import (CatforgeError, DegenerateState, DomainError,
                             GridTooLarge, TruncationTooLarge)
from catforge.optimize_sweep import GridSpec
from catforge.protocol import cat_wigner
from catforge.quadrature import GL_ORDER
from coherent_terms import (coalesce, coherent, even_cat, inner, norm,
                            normalize, vacuum, wigner_point)

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
            xs, ws, _ = gauss_legendre((((c - 10.0, c + 10.0),),))
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
    """The reference's Gram sums against closed forms and Fock series."""

    def test_single_term_norm(self):
        assert abs(norm(coherent(1.7 - 0.2j)) - 1.0) < 1e-14

    def test_coalesced_vacuum_norm(self):
        s = coalesce([(1.0, 0.0), (1.0, 0.0)])
        assert len(s) == 1
        assert abs(norm(s) - 2.0) < 1e-14

    def test_even_pair_norm(self):
        s = coalesce([(1.0, 1.0), (1.0, -1.0)])
        want = math.sqrt(2.0 + 2.0 * math.exp(-2.0))
        assert abs(norm(s) - want) < 1e-12
        # norm^2 = sum_even 4 e^-1 / n! = 4 e^-1 cosh(1) = 2 (1 + e^-2)
        series = 4.0 * math.exp(-1.0) * math.cosh(1.0)
        assert abs(want ** 2 - series) < 1e-12
        assert abs(want - 1.506875) < 1e-6

    def test_full_cancellation_raises(self):
        with pytest.raises(DegenerateState):
            coalesce([(1.0, 0.5), (-1.0, 0.5)])

    def test_norm_squared_matches_inner(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = coalesce([(complex(*rng.standard_normal(2)),
                           complex(*rng.uniform(-2, 2, 2))) for _ in range(3)])
            n2 = inner(s, s)
            assert abs(norm(s) ** 2 - n2.real) < 1e-12
            assert abs(n2.imag) < 1e-12

    def test_inner_conjugate_symmetry(self):
        a = coalesce([(1.0, 0.3 + 1j), (0.5j, -0.7)])
        b = coalesce([(2.0, 0.1), (1 - 1j, 1.1j)])
        assert abs(inner(a, b) - inner(b, a).conjugate()) < 1e-14

    def test_vacuum_inner_examples(self):
        assert abs(inner(vacuum(), vacuum()) - 1.0) < 1e-14
        assert abs(inner(vacuum(), even_cat(0.0)) - 1.0) < 1e-14
        want = 2.0 * math.exp(-0.5) / math.sqrt(2.0 + 2.0 * math.exp(-2.0))
        got = inner(vacuum(), even_cat(1.0))
        assert abs(got - want) < 1e-12
        assert abs(want - 0.805018) < 1e-6

    def test_normalize(self):
        s = normalize(coalesce([(3.0, 0.9), (1j, -0.2)]))
        assert abs(norm(s) - 1.0) < 1e-12


def wigner_parity_fock(s, nmax=80):
    """Origin Wigner value from the parity expectation in the number basis."""
    amps = np.zeros(nmax, dtype=complex)
    coefs = np.zeros(nmax, dtype=complex)
    for w, a in s:
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
    for wi, ai in s:
        for wj, aj in s:
            phase_i = cmath.exp((g.conjugate() * ai - g * complex(ai).conjugate()) / 2)
            phase_j = cmath.exp((g.conjugate() * aj - g * complex(aj).conjugate()) / 2)
            acc += (complex(wi).conjugate() * wj * phase_i.conjugate() * phase_j
                    * coherent_overlap(ai - g, g - aj))
    return (2.0 / math.pi) * acc.real


def cat_point(beta, gamma):
    g = complex(gamma)
    return float(cat_wigner(beta, [g.real], [g.imag])[0, 0])


class TestWigner:
    """The reference's pair sum, and the package's cat_wigner, against
    parity in the number basis and displaced parity."""

    def test_vacuum_peak(self):
        assert abs(wigner_point(vacuum(), 0.0) - 2.0 / math.pi) < 1e-14

    def test_displacement_covariance(self):
        assert abs(wigner_point(coherent(1.0), 1.0) - 2.0 / math.pi) < 1e-14

    def test_even_cat_origin(self):
        assert abs(cat_point(1.5, 0.0) - wigner_parity_fock(even_cat(1.5))) < 1e-12
        # by parity, W(0) = 2/pi for every even cat, at any amplitude
        for beta in (0.3, 1.5, 30.0, 1e3, 1e8):
            assert abs(cat_point(beta, 0.0) - 2.0 / math.pi) < 1e-12

    def test_matches_displaced_parity(self):
        rng = np.random.default_rng(9)
        states = [vacuum(), even_cat(1.2), coherent(0.5 - 0.7j)]
        for s in states:
            for _ in range(10):
                g = complex(*rng.uniform(-2, 2, 2))
                assert abs(wigner_point(s, g)
                           - wigner_displaced_overlap(s, g)) < 1e-12
        # the cat on both sides of cat_wigner's branch switch at s^2 = 1
        for beta in (0.6, 1.0, 1.2):
            for _ in range(10):
                g = complex(*rng.uniform(-2, 2, 2))
                assert abs(cat_point(beta, g) - wigner_displaced_overlap(
                    even_cat(beta), g)) < 1e-12

    def test_imaginary_residue_small(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = normalize(coalesce([(complex(*rng.standard_normal(2)),
                                     complex(*rng.uniform(-1.5, 1.5, 2)))
                                    for _ in range(3)]))
            g = complex(*rng.uniform(-2, 2, 2))
            # re-sum the kernel keeping the imaginary part
            acc = 0j
            for wi, ai in s:
                for wj, aj in s:
                    acc += (wi.conjugate() * wj * coherent_overlap(ai, aj)
                            * cmath.exp(-2.0 * (g.conjugate() - ai.conjugate())
                                        * (g - aj)))
            assert abs(acc.imag) < 1e-12
            assert abs((2.0 / math.pi) * acc.real - wigner_point(s, g)) < 1e-14

    def test_grid_matches_pointwise(self):
        re = [-0.5, 0.0, 1.3]
        im = [-1.0, 0.2]
        for beta in (0.7, 1.5):
            w = cat_wigner(beta, re, im)
            assert w.shape == (3, 2)
            for i, x in enumerate(re):
                for j, y in enumerate(im):
                    assert abs(w[i, j] - cat_point(beta, x + 1j * y)) < 1e-13

    def test_unit_mass(self):
        from catforge.quadrature import gauss_legendre
        xs, ws, _ = gauss_legendre((((-6.0, 6.0),),))
        for beta in (0.7, 1.0, 1.5):
            total = float(ws @ cat_wigner(beta, xs, xs) @ ws)
            assert abs(total - 1.0) < 1e-6


class TestHomodyneWindow:
    def test_bounds(self):
        w = HomodyneWindow(0.5, 0.2)
        assert (w.lo, w.hi) == (0.3, 0.7)

    def test_rejects_bad_widths(self):
        # the one check of a half-width: window_tradeoff and the CLI leave
        # it here
        for width in (0.0, -0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="^window half-width must be "
                               f"finite and positive, got {width}$"):
                HomodyneWindow(0.0, width)
        with pytest.raises(DomainError, match="^window centre must be finite"):
            HomodyneWindow(math.nan, 1.0)


class TestGaussLegendre:
    INTERVALS = (
        (-8.0, 8.0), (0.0, math.pi), (-1e-4, 1e-4), (0.0, 1e-300),
        (-1e-300, 0.0), (2.5e-7, 0.30000000000000004), (-37.2, 61.9),
        (1e3, 1e3 + 7.3), (-0.15, 0.05))

    @staticmethod
    def linspace_rule(a, b):
        """Nodes and weights on the panels of np.linspace(a, b, panels + 1)."""
        from catforge.quadrature import _NODES, _WEIGHTS, MAX_PANEL_WIDTH
        edges = np.linspace(a, b, math.ceil((b - a) / MAX_PANEL_WIDTH) + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halves = 0.5 * (edges[1:] - edges[:-1])
        return ((mids[:, None] + halves[:, None] * _NODES[None, :]).ravel(),
                (halves[:, None] * _WEIGHTS[None, :]).ravel())

    @pytest.mark.parametrize("a, b", INTERVALS)
    def test_panels_are_linspace_edges(self, a, b):
        # the edges are np.linspace(a, b, panels + 1) bit for bit, so every
        # node and weight is as well
        from catforge.quadrature import gauss_legendre
        want_x, want_w = self.linspace_rule(a, b)
        xs, ws, spans = gauss_legendre((((a, b),),))
        assert np.array_equal(xs, want_x) and np.array_equal(ws, want_w)
        assert spans == (slice(0, xs.size),)

    def test_table_panels_are_linspace_edges(self):
        # a table of many intervals in groups: each interval's slice of the
        # one pass is its own linspace rule, and each group spans its
        # intervals
        from catforge.quadrature import gauss_legendre
        groups = (self.INTERVALS[:1], self.INTERVALS[1:5], self.INTERVALS[5:])
        xs, ws, spans = gauss_legendre(groups)
        rules = [self.linspace_rule(a, b) for a, b in self.INTERVALS]
        assert np.array_equal(xs, np.concatenate([x for x, _ in rules]))
        assert np.array_equal(ws, np.concatenate([w for _, w in rules]))
        sizes = [x.size for x, _ in rules]
        first, fifth, last = sum(sizes[:1]), sum(sizes[:5]), sum(sizes)
        assert spans == (slice(0, first), slice(first, fifth),
                         slice(fifth, last))

    # the memo: one rule per interval table, shared and read-only
    TABLE = (((-1e-4, 1e-4),), ((-0.01, 0.01),), ((-0.1, 0.1),), ((-1.0, 1.0),))

    def test_equal_table_returns_the_same_arrays(self):
        from catforge.quadrature import gauss_legendre
        first = gauss_legendre(self.TABLE)
        again = gauss_legendre(tuple(tuple(g) for g in self.TABLE))
        assert all(a is b for a, b in zip(first, again))

    def test_results_are_read_only(self):
        from catforge.quadrature import gauss_legendre
        xs, ws, spans = gauss_legendre(self.TABLE)
        assert isinstance(spans, tuple)
        with pytest.raises(ValueError):
            xs[0] = 0.0
        with pytest.raises(ValueError):
            ws *= 2.0

    def test_list_table_is_refused(self):
        from catforge.quadrature import gauss_legendre
        with pytest.raises(TypeError, match="unhashable"):
            gauss_legendre([[(-1.0, 1.0)]])

    def test_rebuild_after_clear_is_bit_identical(self):
        from catforge.quadrature import gauss_legendre
        xs, ws, spans = gauss_legendre(self.TABLE)
        xs, ws = xs.copy(), ws.copy()
        gauss_legendre.cache_clear()
        again = gauss_legendre(self.TABLE)
        assert again[0].tobytes() == xs.tobytes()
        assert again[1].tobytes() == ws.tobytes()
        assert again[2] == spans

    def test_negative_zero_endpoint_gives_the_same_rule(self):
        # -0.0 == 0.0 and both hash alike, so the two tables share one
        # entry; built apart, their rules agree bit for bit as well
        from catforge.quadrature import gauss_legendre
        rules = []
        for zero in (-0.0, 0.0):
            gauss_legendre.cache_clear()
            xs, ws, _ = gauss_legendre((((zero, 0.35),), ((-0.35, zero),)))
            rules.append((xs.tobytes(), ws.tobytes()))
        assert rules[0] == rules[1]
        xs, ws, _ = gauss_legendre((((-0.0, 0.35),), ((-0.35, -0.0),)))
        assert gauss_legendre.cache_info().hits == 1
        assert (xs.tobytes(), ws.tobytes()) == rules[0]

    def test_empty_range_raises_every_call(self):
        # exceptions are not cached
        from catforge.quadrature import gauss_legendre
        gauss_legendre.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError, match="empty integration range"):
                gauss_legendre((((1.0, 1.0),),))
        info = gauss_legendre.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_memo_bound_is_documented(self):
        from catforge import quadrature
        info = quadrature.gauss_legendre.cache_info()
        assert info.maxsize == quadrature.RULE_TABLES == 8
        assert "RULE_TABLES" in quadrature.__doc__

    def test_validate_grid_builds_one_rule(self):
        # both routes at each of the 12 default points integrate the same
        # window, so one miss builds the rule and 23 calls reuse it
        from catforge import crosscheck
        from catforge.quadrature import gauss_legendre
        gauss_legendre.cache_clear()
        crosscheck.crosscheck_grid()
        info = gauss_legendre.cache_info()
        assert (info.hits, info.misses) == (23, 1)


class TestBaseRule:
    """The fixed rule is a literal table of its positive half, checked here
    against the exact rule; _NODES and _WEIGHTS mirror it."""

    def test_table_has_gl_order_points(self):
        # the order leggauss(16) gave, as the rule derives it from the table
        assert GL_ORDER == 16
        assert 2 * len(quadrature._HALF_NODES) == GL_ORDER
        assert 2 * len(quadrature._HALF_WEIGHTS) == GL_ORDER
        assert all(v.shape == (GL_ORDER,)
                   for v in (quadrature._NODES, quadrature._WEIGHTS))

    def test_mirror_symmetry_is_exact(self):
        nodes, weights = quadrature._NODES, quadrature._WEIGHTS
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        assert list(nodes[GL_ORDER // 2:]) == list(quadrature._HALF_NODES)
        assert list(weights[GL_ORDER // 2:]) == list(quadrature._HALF_WEIGHTS)

    def test_nodes_within_half_an_ulp(self):
        exact, _ = mp_reference.legendre_rule(GL_ORDER)
        with mpmath.workdps(mp_reference.REFERENCE_DPS):
            for node, want in zip(quadrature._HALF_NODES, exact):
                assert abs(mpmath.mpf(node) - want) <= mpmath.mpf(math.ulp(node)) / 2

    def test_weights_within_64_ulps(self):
        # leggauss's error, kept bit for bit: it forms the weights from the
        # eigensolver's roots before its Newton step (63 ulps at most)
        _, exact = mp_reference.legendre_rule(GL_ORDER)
        with mpmath.workdps(mp_reference.REFERENCE_DPS):
            for weight, want in zip(quadrature._HALF_WEIGHTS, exact):
                assert abs(mpmath.mpf(weight) - want) <= 64 * math.ulp(weight)

    def test_weights_sum_to_two(self):
        assert abs(math.fsum(quadrature._WEIGHTS) - 2.0) <= 2 * math.ulp(2.0)

    def test_runs_call_no_eigenvalue_solve(self):
        # a window table and a crosscheck point integrate with the table:
        # leggauss raises if called, and on numpy 2, whose submodules load
        # lazily, numpy.polynomial is never imported (numpy 1 imports it
        # with numpy itself)
        code = ("import sys, numpy\n"
                "def refused(*args): raise AssertionError('leggauss called')\n"
                "numpy.polynomial.legendre.leggauss = refused\n"
                "if int(numpy.__version__.split('.')[0]) >= 2:\n"
                "    for name in [m for m in sys.modules\n"
                "                 if m.startswith('numpy.polynomial')]:\n"
                "        del sys.modules[name]\n"
                "from catforge import crosscheck, protocol\n"
                "from catforge.optimize_sweep import window_tradeoff\n"
                "p = protocol.ProtocolParams(1.0, 0.5)\n"
                "window_tradeoff(p, [1e-4, 1e-2, 0.1, 1.0])\n"
                "crosscheck.crosscheck_point(p)\n"
                "if int(numpy.__version__.split('.')[0]) >= 2:\n"
                "    assert 'numpy.polynomial' not in sys.modules\n"
                "print('done')\n")
        src = pathlib.Path(quadrature.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              check=False)
        assert (done.returncode, done.stdout, done.stderr) == (0, "done\n", "")

def test_exports_resolve_and_leave_out_the_coherent_term_algebra():
    # the algebra is the tests' reference (coherent_terms), not the package's
    import catforge
    from catforge import config, protocol
    assert all(hasattr(catforge, name) for name in catforge.__all__)
    gone = {"CoherentSuperposition", "coherent", "even_cat", "gram",
            "ideal_cat", "source_state", "superposition_inner",
            "superposition_norm", "vacuum", "wigner_grid", "wigner_point",
            "_coalesce", "_finite", "COALESCE_TOL", "NORM_TOL",
            "DEGENERATE_NORM", "CAT_SEPARATION_FLOOR", "GL_ORDER"}
    for module in (catforge, cv_core, protocol, config):
        assert not gone & set(vars(module)), module.__name__
    # the overlaps stay in cv_core for the window reference, unexported
    overlaps = {"coherent_overlap", "quadrature_overlap"}
    assert not overlaps & (set(vars(catforge)) | set(catforge.__all__))


def test_exports_leave_out_what_no_caller_uses():
    # report's fields replace the coefficient functions; the null listing had
    # no caller; the Fock cap stays in config, unexported
    import catforge
    from catforge import optimize_sweep, protocol
    removed = {"vacuum_coefficient", "cat_coefficient", "_null_alpha",
               "zero_count", "zero_alphas"}
    for module in (catforge, protocol, optimize_sweep):
        assert not removed & set(vars(module)), module.__name__
    assert not removed & set(catforge.__all__)
    assert "fock_cap" not in set(vars(catforge)) | set(catforge.__all__)


def test_domain_error_is_a_value_error():
    # library callers that catch ValueError for a refused input keep working
    assert issubclass(DomainError, CatforgeError)
    assert issubclass(DomainError, ValueError)


@pytest.mark.parametrize("refused, error", [
    (lambda: GridSpec(alpha0_steps=5000), GridTooLarge),
    (lambda: fock_oracle.apply_beam_splitter(np.ones(2049),
                                             fock_oracle.bs_head(1)),
     TruncationTooLarge),
    (lambda: fock_oracle.choose_truncation(41.0), TruncationTooLarge),
], ids=["GridSpec", "apply_beam_splitter", "choose_truncation"])
def test_cap_refusals_are_value_errors(refused, error):
    # a cap refuses an input as DomainError does, so ValueError catches it
    with pytest.raises(ValueError) as info:
        refused()
    assert type(info.value) is error
