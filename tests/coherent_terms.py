"""Coherent-term reference of the protocol's states, test-only.

A state here is a tuple of (weight, amplitude) terms over coherent states
|a>.  Inner products are Gram sums of coherent overlaps and the Wigner
function is the pair sum of the |a_i><a_j| projectors: the general algebra
that the package's two-coordinate forms replace.  The tests check those forms
against it at ordinary points; mp_reference holds the same sums in 80-digit
arithmetic for the points where they cancel.
"""

import cmath
import math

import numpy as np

from catforge.cv_core import coherent_overlap
from catforge.errors import DegenerateState
from catforge.protocol import separations

# terms whose amplitudes agree this closely merge
COALESCE_TOL = 1e-12

# a state whose Gram norm is below this is treated as fully cancelled
DEGENERATE_NORM = 1e-14


def coalesce(terms):
    """Merge terms whose amplitudes agree within COALESCE_TOL; drop cancelled ones."""
    reps = []
    for w, a in terms:
        w, a = complex(w), complex(a)
        for entry in reps:
            if abs(entry[1] - a) <= COALESCE_TOL:
                entry[0] += w
                break
        else:
            reps.append([w, a])
    kept = tuple((w, a) for w, a in reps if w != 0)
    if not kept:
        raise DegenerateState("every term cancelled under coalescing")
    return kept


def gram(a, b):
    """Gram matrix [[conj(w_i) w_j <a_i|b_j>]] over the terms of a and b, as lists."""
    return [[wi.conjugate() * wj * coherent_overlap(ai, bj)
             for wj, bj in b] for wi, ai in a]


def inner(a, b):
    """Hermitian inner product <a|b>: the sum of gram(a, b)."""
    return sum(g for row in gram(a, b) for g in row)


def norm(s):
    """Gram norm sqrt(<s|s>); raises DegenerateState below DEGENERATE_NORM,
    where the Gram sum has cancelled past trust."""
    n2 = inner(s, s).real
    if n2 < DEGENERATE_NORM ** 2:
        raise DegenerateState(f"superposition norm^2 = {n2:.3e} below floor")
    return math.sqrt(n2)


def normalize(s):
    n = norm(s)
    return tuple((w / n, a) for w, a in s)


def vacuum():
    return normalize(coalesce([(1.0, 0.0)]))


def coherent(alpha):
    return normalize(coalesce([(1.0, alpha)]))


def even_cat(beta):
    """Normalized symmetric superposition of |beta> and |-beta>."""
    return normalize(coalesce([(1.0, beta), (1.0, -beta)]))


def source_amplitudes(p):
    """The components i alpha0 e^{+-i phi/2} of each source: magnitude alpha0,
    phases pi/2 +- phi/2, both on the imaginary axis as phi -> 0."""
    return (1j * p.alpha0 * cmath.exp(0.5j * p.phi),
            1j * p.alpha0 * cmath.exp(-0.5j * p.phi))


def source_state(p):
    """Normalized symmetric superposition emitted by each source."""
    return normalize(coalesce([(1.0, a) for a in source_amplitudes(p)]))


def ideal_cat(p):
    """The cat of |s> and |-s>, s = d0 / sqrt2; the vacuum once s
    coalesces with 0."""
    return even_cat(separations(p).d0 / math.sqrt(2.0))


def wigner_grid(s, re_vals, im_vals):
    """Wigner function of a normalized superposition on a rectangular grid,
    W[i, j] at re_vals[i] + 1j im_vals[j]: the real part of

        (2/pi) sum_ij conj(w_i) w_j <a_i|a_j> exp(-2 (conj(g) - conj(a_i)) (g - a_j)),

    each pair's overlap and exponential folded into one exponent whose real
    part is never positive, m = (a_i + a_j)/2, d = a_j - a_i:
        -2 |g - m|^2 + i (2 Im(conj(g) d) + Im(a_i conj(a_j))).
    """
    g = np.add.outer(np.asarray(re_vals, dtype=float),
                     1j * np.asarray(im_vals, dtype=float))
    acc = np.zeros(g.shape, dtype=complex)
    for wi, ai in s:
        for wj, aj in s:
            m, d = 0.5 * (ai + aj), aj - ai
            phase = 2.0 * (g.conjugate() * d).imag + (ai * aj.conjugate()).imag
            acc += wi.conjugate() * wj * np.exp(-2.0 * abs(g - m) ** 2 + 1j * phase)
    return (2.0 / math.pi) * acc.real


def wigner_point(s, gamma):
    g = complex(gamma)
    return float(wigner_grid(s, [g.real], [g.imag])[0, 0])
