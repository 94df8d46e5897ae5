"""Exact algebra of finite weighted superpositions of coherent states.

Every state handled here is a finite list of (weight, amplitude) pairs over
coherent states |alpha>.  Overlaps, norms, quadrature projections and Wigner
values then reduce to small Gram-matrix sums, so all protocol quantities stay
in closed form with no truncation.

Conventions
-----------
Quadrature operator X = (a + a^dag)/sqrt(2).  The coherent-state position
amplitude in this convention is

    <x|alpha> = pi^(-1/4) exp(-x^2/2 + sqrt(2) x alpha - alpha^2/2 - |alpha|^2/2)

(note alpha^2, not |alpha|^2, in the third term: the phase of alpha matters).
The Wigner function carries unit mass, integral W d^2 gamma = 1, so the vacuum
peaks at W(0) = 2/pi.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import COALESCE_TOL, DEGENERATE_NORM, NORM_TOL
from .errors import DegenerateState

SQRT2 = math.sqrt(2.0)
PI_QUARTER_INV = math.pi ** -0.25
# exp of any real part below this is exactly 0.0 in double precision
EXP_UNDERFLOW = -745.2


def _finite(z, what):
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite, got {z!r}")
    return z


def coherent_overlap(alpha, beta):
    """Overlap <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + conj(alpha)*beta).

    The exponent is formed from its exact real and imaginary parts,
    -|alpha - beta|^2/2 + i Im(conj(alpha) (beta - alpha)), both in terms of
    the difference: the three magnitudes of the textbook form cancel
    catastrophically once |alpha|, |beta| are large.  Below EXP_UNDERFLOW the
    overlap is 0 and the phase, which can overflow near |alpha| ~ 1e154, is
    not formed.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    dr = alpha.real - beta.real
    di = alpha.imag - beta.imag
    re = -0.5 * (dr * dr + di * di)
    if re < EXP_UNDERFLOW:
        return 0j
    return cmath.exp(complex(re, alpha.imag * dr - alpha.real * di))


def quadrature_overlap(x, alpha):
    """Position amplitude <x|alpha> for X = (a + a^dag)/sqrt(2).

    Purely imaginary alpha gives pi^(-1/4) at x = 0 exactly: the alpha^2/2 and
    |alpha|^2/2 terms cancel, which is what makes the cat branch coefficient of
    the conditioning protocol parameter-independent.  The exponent is formed
    as its exact real and imaginary parts,
        -(x - sqrt2 Re(alpha))^2/2 + i Im(alpha) (sqrt2 x - Re(alpha)),
    so that cancellation holds in floating point too, with no rounding
    residue, and the real part does not cancel near x = sqrt2 Re(alpha) at
    large amplitudes.  Below EXP_UNDERFLOW the amplitude is 0 and the phase
    is not formed, as in coherent_overlap.
    """
    alpha = complex(alpha)
    dx = x - SQRT2 * alpha.real
    re = -0.5 * dx * dx
    if re < EXP_UNDERFLOW:
        return 0j
    return PI_QUARTER_INV * cmath.exp(
        complex(re, alpha.imag * (SQRT2 * x - alpha.real)))


def _coalesce(terms, what):
    """Merge terms whose amplitudes agree within COALESCE_TOL; drop cancelled ones."""
    reps = []
    for w, a in terms:
        w = _finite(w, f"{what} weight")
        a = _finite(a, f"{what} amplitude")
        for entry in reps:
            if abs(entry[1] - a) <= COALESCE_TOL:
                entry[0] += w
                break
        else:
            reps.append([w, a])
    kept = tuple((w, a) for w, a in reps if w != 0)
    if not kept:
        raise DegenerateState(f"{what}: every term cancelled under coalescing")
    return kept


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite superposition sum_i w_i |alpha_i> of one mode; terms are (w, alpha).

    from_terms coalesces terms whose amplitudes agree within the coalescing
    tolerance.
    """

    terms: tuple

    @classmethod
    def from_terms(cls, terms):
        return cls(_coalesce(terms, cls.__name__))

    def normalize(self):
        n = norm_from_square(superposition_inner(self, self).real)
        return type(self)(tuple((w / n, a) for w, a in self.terms))


@dataclass(frozen=True)
class HomodyneWindow:
    """Acceptance window [center - half_width, center + half_width] on X."""

    center: float
    half_width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise ValueError("window parameters must be finite")
        if self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def lo(self):
        return self.center - self.half_width

    @property
    def hi(self):
        return self.center + self.half_width


def gram(a, b):
    """Gram matrix [[conj(w_i) w_j <a_i|b_j>]] over the terms of a and b, as lists."""
    return [[wi.conjugate() * wj * coherent_overlap(ai, bj)
             for wj, bj in b.terms] for wi, ai in a.terms]


def superposition_inner(a, b):
    """Hermitian inner product <a|b> of two superpositions: the sum of gram(a, b)."""
    return sum(g for row in gram(a, b) for g in row)


def norm_from_square(n2):
    """sqrt(n2) for a Gram norm^2; raises DegenerateState below DEGENERATE_NORM^2."""
    if n2 < DEGENERATE_NORM ** 2:
        raise DegenerateState(f"superposition norm^2 = {n2:.3e} below floor")
    return math.sqrt(n2)


def superposition_norm(s):
    """Gram norm sqrt(<s|s>); raises DegenerateState when fully cancelled."""
    return norm_from_square(superposition_inner(s, s).real)


def vacuum():
    return CoherentSuperposition.from_terms([(1.0, 0.0)]).normalize()


def coherent(alpha):
    return CoherentSuperposition.from_terms([(1.0, alpha)]).normalize()


def even_cat(beta):
    """Normalized symmetric superposition of |beta> and |-beta>."""
    return CoherentSuperposition.from_terms([(1.0, beta), (1.0, -beta)]).normalize()


def wigner_point(s, gamma):
    """Wigner function of a normalized superposition at phase-space point gamma."""
    g = complex(gamma)
    return float(wigner_grid(s, [g.real], [g.imag])[0, 0])


def _pair_factor(u, centre, freq):
    """exp(-2 (u - centre)^2 + i freq u) per pair (rows) and grid value (columns).

    Exactly 0 once |u - centre| > 28, where exp(-1568) underflows; the square
    and the phase, which overflow at amplitudes near 1e154, are not formed there.
    """
    du = u - centre
    near = np.abs(du) <= 28.0
    arg = -2.0 * np.where(near, du, 0.0) ** 2 + 1j * (freq * np.where(near, u, 0.0))
    return np.where(near, np.exp(arg), 0.0)


def wigner_grid(s, re_vals, im_vals):
    """Wigner function of a normalized superposition on a rectangular grid.

    Uses the cross-term kernel of |alpha><beta| projectors,

        W(gamma) = (2/pi) sum_ij conj(w_i) w_j <a_i|a_j>
                   exp(-2 (conj(gamma) - conj(a_i)) (gamma - a_j)),

    whose imaginary parts cancel pairwise; the real part is returned.  Each
    pair's overlap and exponential form one exponent, m = (a_i + a_j)/2,
        -2 |gamma - m|^2 + i (2 Im(conj(gamma) (a_j - a_i)) + Im(a_i conj(a_j))),
    whose real part is never positive, so its exponential never overflows
    (_pair_factor).  It splits into a Re(gamma) factor times an Im(gamma) factor:
    the grid is one contraction of (pairs x re) with (pairs x im).

    Returns W with shape (len(re_vals), len(im_vals)), W[i, j] evaluated at
    gamma = re_vals[i] + 1j * im_vals[j].
    """
    n2 = superposition_inner(s, s).real
    if not abs(n2 - 1.0) <= NORM_TOL:
        raise ValueError(f"the Wigner function needs norm^2 = 1, got {n2!r}")
    re = np.asarray(re_vals, dtype=float)
    im = np.asarray(im_vals, dtype=float)
    pairs = [(wi.conjugate() * wj, ai, aj)
             for wi, ai in s.terms for wj, aj in s.terms]
    c = np.array([w * cmath.exp(1j * (ai * aj.conjugate()).imag)
                  for w, ai, aj in pairs])
    m = np.array([0.5 * (ai + aj) for _, ai, aj in pairs])[:, None]
    d = np.array([aj - ai for _, ai, aj in pairs])[:, None]
    fx = _pair_factor(re, m.real, 2.0 * d.imag)
    fy = _pair_factor(im, m.imag, -2.0 * d.real)
    # einsum, not @: after a first BLAS product the pure-Python sweep ran 30-50%
    # slower in the same process (one BLAS thread, 2-core Xeon under KVM)
    return (2.0 / math.pi) * np.einsum("pi,pj->ij", c[:, None] * fx, fy).real
