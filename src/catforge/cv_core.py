"""Closed-form overlaps of coherent states, and the homodyne window.

A coherent state |alpha> is fixed by its complex amplitude, and the
protocol's states are short fixed sums of them.  protocol draws their Wigner
functions with the pair factor here; the overlaps serve only crosscheck's
coherent-term window reference, window_metrics_analytic.

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

from .errors import DomainError

SQRT2 = math.sqrt(2.0)
PI_QUARTER_INV = math.pi ** -0.25
# exp of any real part below this is exactly 0.0 in double precision
EXP_UNDERFLOW = -745.2


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

    The exponent is formed as its exact real and imaginary parts,
        -(x - sqrt2 Re(alpha))^2/2 + i Im(alpha) (sqrt2 x - Re(alpha)),
    so a purely imaginary alpha gives pi^(-1/4) at x = 0 with no rounding
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


@dataclass(frozen=True)
class HomodyneWindow:
    """Acceptance window [center - half_width, center + half_width] on X."""

    center: float
    half_width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise DomainError(
                f"window centre must be finite, got {self.center}")
        if not 0.0 < self.half_width < math.inf:
            raise DomainError("window half-width must be finite and positive, "
                              f"got {self.half_width}")

    @property
    def lo(self):
        return self.center - self.half_width

    @property
    def hi(self):
        return self.center + self.half_width


def _pair_factor(u, centre, freq):
    """exp(-2 (u - centre)^2 + i freq u) per pair (rows) and grid value (columns).

    Exactly 0 once |u - centre| > 28, where exp(-1568) underflows; the square
    and the phase, which overflow at amplitudes near 1e154, are not formed there.
    """
    du = u - centre
    near = np.abs(du) <= 28.0
    arg = -2.0 * np.where(near, du, 0.0) ** 2 + 1j * (freq * np.where(near, u, 0.0))
    return np.where(near, np.exp(arg), 0.0)

