"""High-precision reference of the conditioning, test-only.

Everything is formed from the definitions in mpmath at REFERENCE_DPS digits,
from the exact binary values of the float inputs: the source amplitudes
a+- = i alpha0 e^{+-i phi/2}, coherent overlaps, quadrature amplitudes
<x|A> = pi^(-1/4) exp(-x^2/2 + sqrt2 x A - A^2/2 - |A|^2/2), and Gram sums
over the kept-mode terms (c1 |0> + c2 (|k> + |-k>)) / S2, and their Wigner
pair sum, which also gives the ideal cat's; the branch ratio at X = x is
|c1| / |c2| of those amplitudes, and at x = 0 it and its second-order form
are also taken from their closed forms.  Near an odd source
S2 is about d0^2 and the Gram sum of the kept mode cancels to about
4 log10(1/d0) digits; at d0 = 1e-8 and alpha0 ~ 1e9 the textbook exponents
lose another 18, which REFERENCE_DPS leaves ample room for.  Window integrals
take Gauss-Legendre quadrature at QUAD_DPS digits of an integrand evaluated
at REFERENCE_DPS; legendre_rule gives the package's fixed rule's exact nodes
and weights to check its table against.
"""

import sys

import mpmath

REFERENCE_DPS = 80
QUAD_DPS = 30


def _overlap(a, b):
    return mpmath.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + mpmath.conj(a) * b)


def _inner(u, v):
    return mpmath.fsum(mpmath.conj(wi) * wj * _overlap(ai, aj)
                       for wi, ai in u for wj, aj in v)


def _quadrature(x, a):
    return (mpmath.pi ** mpmath.mpf(-0.25)
            * mpmath.exp(-x * x / 2 + mpmath.sqrt(2) * x * a - a * a / 2
                         - abs(a) ** 2 / 2))


def _pair_wigner(terms, cells):
    """W at each cell (q, y) of the state sum_i w_i |a_i> over its norm^2:
    the pair sum (2/pi) sum_ij conj(w_i) w_j <a_i|a_j>
    e^{-2 (conj(g) - conj(a_i)) (g - a_j)} at g = q + i y, over the Gram sum."""
    pairs = [(mpmath.conj(wi) * wj * _overlap(ai, aj), ai, aj)
             for wi, ai in terms for wj, aj in terms]
    scale = 2 / mpmath.pi / mpmath.fsum(c for c, _, _ in pairs).real
    return [scale * mpmath.fsum(
        c * mpmath.exp(-2 * (mpmath.conj(g) - mpmath.conj(ai)) * (g - aj))
        for c, ai, aj in pairs).real
        for g in (mpmath.mpc(q, y) for q, y in cells)]


def cat_wigner(s, q_vals, y_vals):
    """W(q + i y) of the cat |s> + |-s>, normalized, as rows over q_vals."""
    with mpmath.workdps(REFERENCE_DPS):
        s = mpmath.mpf(s)
        w = iter(_pair_wigner([(1, s), (1, -s)],
                              [(q, y) for q in q_vals for y in y_vals]))
        return [[float(next(w)) for _ in y_vals] for _ in q_vals]


def coefficient_ratio(alpha0, phi):
    """2 exp(-2 alpha0^2 sin^2(phi/2)) |cos(alpha0^2 sin phi)|."""
    with mpmath.workdps(REFERENCE_DPS):
        a, f = mpmath.mpf(alpha0), mpmath.mpf(phi)
        return float(2 * mpmath.exp(-2 * a * a * mpmath.sin(f / 2) ** 2)
                     * abs(mpmath.cos(a * a * mpmath.sin(f))))


def coefficient_ratio_second_order(alpha0, phi):
    """exp(-alpha0^2 phi^2 / 2) 2 |cos(alpha0^2 phi)|."""
    with mpmath.workdps(REFERENCE_DPS):
        a, f = mpmath.mpf(alpha0), mpmath.mpf(phi)
        return float(mpmath.exp(-a * a * f * f / 2) * 2 * abs(mpmath.cos(a * a * f)))


def vacuum_null_alpha(phi, k):
    """(alpha0, alpha0^2 / the largest double - 1) at the k-th vacuum null,
    alpha0^2 = (k + 1/2) pi / sin(phi): the second is positive where alpha0^2
    leaves the float range (alpha0 may then be inf)."""
    with mpmath.workdps(REFERENCE_DPS):
        a2 = (k + mpmath.mpf(0.5)) * mpmath.pi / mpmath.sin(mpmath.mpf(phi))
        return (float(mpmath.sqrt(a2)),
                float(a2 / mpmath.mpf(sys.float_info.max) - 1))


def legendre_rule(n):
    """The positive half of the n-point Gauss-Legendre rule on [-1, 1] (n
    even), ascending: (nodes, weights) as mpf at REFERENCE_DPS digits.  Each
    node is Newton's root of P_n, taken with P_n' from the three-term
    recurrence, from the guess cos(pi (i - 1/4) / (n + 1/2)); its weight is
    2 / ((1 - x^2) P_n'(x)^2).  Compare with them inside
    mpmath.workdps(REFERENCE_DPS)."""
    def legendre(x):
        prev, cur = mpmath.mpf(1), x
        for k in range(2, n + 1):
            prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
        return cur, n * (x * cur - prev) / (x * x - 1)

    nodes, weights = [], []
    with mpmath.workdps(REFERENCE_DPS):
        quarter = mpmath.mpf(0.25)
        for i in range(n // 2, 0, -1):
            x = mpmath.cos(mpmath.pi * (i - quarter) / (n + 2 * quarter))
            for _ in range(50):
                value, slope = legendre(x)
                x -= value / slope
                if abs(value / slope) < mpmath.mpf(10) ** (5 - REFERENCE_DPS):
                    break
            slope = legendre(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


class Conditioning:
    """The kept mode at (alpha0, phi) as coherent terms; results are floats."""

    def __init__(self, alpha0, phi):
        with mpmath.workdps(REFERENCE_DPS):
            alpha0, phi = mpmath.mpf(alpha0), mpmath.mpf(phi)
            self.alpha0, self.phi = alpha0, phi
            r2 = mpmath.sqrt(2)
            a_plus = 1j * alpha0 * mpmath.expj(phi / 2)
            a_minus = 1j * alpha0 * mpmath.expj(-phi / 2)
            self.norm2 = 2 + 2 * mpmath.re(_overlap(a_plus, a_minus))
            self.k = (a_plus - a_minus) / r2  # kept amplitude of the cat terms
            self.measured = (r2 * a_plus, r2 * a_minus, (a_plus + a_minus) / r2)
            cat = [(1, self.k), (1, -self.k)]
            self.cat = [(w / mpmath.sqrt(_inner(cat, cat).real), a)
                        for w, a in cat]

    def _coefficients(self, x):
        q_plus, q_minus, q_cat = (_quadrature(x, a) for a in self.measured)
        return q_plus + q_minus, q_cat

    def _kept(self, x):
        c1, c2 = self._coefficients(x)
        return [(c1 / self.norm2, mpmath.mpf(0)),
                (c2 / self.norm2, self.k), (c2 / self.norm2, -self.k)]

    def coefficients(self, x):
        """(c1, c2): the vacuum and cat projection coefficients at X = x,
        <x|A+> + <x|A-> and <x|A0> over the measured amplitudes, not divided
        by the source norm^2."""
        with mpmath.workdps(REFERENCE_DPS):
            return tuple(complex(c) for c in self._coefficients(mpmath.mpf(x)))

    def ratio(self, x):
        """|c1| / |c2| at X = x, the branch ratio of report."""
        with mpmath.workdps(REFERENCE_DPS):
            c1, c2 = self._coefficients(mpmath.mpf(x))
            return float(abs(c1) / abs(c2))

    def _density(self, x):
        with mpmath.workdps(REFERENCE_DPS):
            kept = self._kept(mpmath.mpf(x))
            return +_inner(kept, kept).real

    def _overlap2(self, x):
        with mpmath.workdps(REFERENCE_DPS):
            return +abs(_inner(self.cat, self._kept(mpmath.mpf(x)))) ** 2

    def density(self, x):
        return float(self._density(x))

    def fidelity(self, x):
        with mpmath.workdps(REFERENCE_DPS):
            return float(self._overlap2(x) / self._density(x))

    def _wigner(self, x, cells):
        with mpmath.workdps(REFERENCE_DPS):
            return _pair_wigner(self._kept(mpmath.mpf(x)), cells)

    def wigner(self, x, q_vals, y_vals):
        """W(q + i y) of the kept mode conditioned on X = x, as rows over
        q_vals: the pair sum (2/pi) sum_ij conj(w_i) w_j <k_i|k_j>
        e^{-2 (conj(g) - conj(k_i)) (g - k_j)} over the kept terms at
        g = q + i y, divided by their density."""
        w = iter(self._wigner(x, [(q, y) for q in q_vals for y in y_vals]))
        return [[float(next(w)) for _ in y_vals] for _ in q_vals]

    def wigner_theta_slope(self, x, q, y):
        """theta dW/dtheta, theta = alpha0^2 sin(phi), with the separation
        d0 = 2 alpha0 sin(phi/2) held: a central difference over
        alpha0 (1 -+ 1e-30), each side's phi set to keep d0."""
        with mpmath.workdps(REFERENCE_DPS):
            d0 = 2 * self.alpha0 * mpmath.sin(self.phi / 2)
            sides = []
            for a in (self.alpha0 * (1 - mpmath.mpf(10) ** -30),
                      self.alpha0 * (1 + mpmath.mpf(10) ** -30)):
                phi = 2 * mpmath.asin(d0 / (2 * a))
                sides.append((a * a * mpmath.sin(phi),
                              Conditioning(a, phi)._wigner(x, [(q, y)])[0]))
            (t0, w0), (t1, w1) = sides
            theta = self.alpha0 ** 2 * mpmath.sin(self.phi)
            return float(theta * (w1 - w0) / (t1 - t0))

    def window(self, lo, hi):
        """(probability, fidelity) of accepting X in [lo, hi]."""
        with mpmath.workdps(QUAD_DPS):
            span = [mpmath.mpf(lo), mpmath.mpf(hi)]
            prob = mpmath.quad(self._density, span, method="gauss-legendre")
            numer = mpmath.quad(self._overlap2, span, method="gauss-legendre")
            return float(prob), float(numer / prob)
