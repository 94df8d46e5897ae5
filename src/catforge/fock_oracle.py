"""Truncated photon-number-basis oracle for the coherent-superposition algebra.

This module deliberately shares no formulas with cv_core beyond the state
definitions: coherent states are expanded into Fock amplitudes, the balanced
beam splitter is built one total-photon block at a time in floats by Risbo's
Wigner-d recursion at beta = pi/2 (see _bs_blocks), and quadrature
projections use the normalized Hermite function recurrence.  Agreement
between the two routes is what validates the closed forms.

A single-mode pure state is a 1D complex ndarray of Fock amplitudes; a
two-mode pure state is a 2D array amps[n, m] with n indexing the measured
mode and m the output mode; a mixed state is a square density matrix.
"""

import functools
import math

import numpy as np

from .config import (EIG_FLOOR, FOCK_CAP_ENV, FOCK_SECONDS_PER_DIM3, GL_ORDER,
                     MAX_PANEL_WIDTH, ZERO_DENSITY, fock_cap)
from .errors import (DensityValidationError, DimensionMismatch,
                     TruncationTooLarge, ZeroProbability)

_SQRT2 = math.sqrt(2.0)
_PI_QUARTER_INV = math.pi ** -0.25


def choose_truncation(max_amp, cap=None):
    """Fock dimension guaranteeing coherent tails <= 1e-12 up to |alpha| = max_amp.

    The margin ceil(max_amp^2 + 10*max_amp + 20) is far past the Poisson bulk
    at every scale of interest; dimensions above the cap (default
    DEFAULT_FOCK_CAP, or the CATFORGE_MAX_FOCK environment variable) raise
    TruncationTooLarge, with the predicted time of a cold crosscheck there.
    """
    if max_amp < 0 or not math.isfinite(max_amp):
        raise ValueError(f"max_amp must be finite and >= 0, got {max_amp}")
    n = math.ceil(max_amp * max_amp + 10.0 * max_amp + 20.0)
    limit = fock_cap(cap)
    if n > limit:
        raise TruncationTooLarge(
            f"requested Fock dimension {n} exceeds cap {limit}: a cold "
            f"crosscheck there is predicted to take about "
            f"{FOCK_SECONDS_PER_DIM3 * n ** 3:.3g} s; raise the cap with "
            f"--max-fock or {FOCK_CAP_ENV}")
    return n


def coherent_fock(alpha, dim):
    """Fock amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    out = np.empty(dim, dtype=complex)
    out[0] = math.exp(-0.5 * (alpha.real ** 2 + alpha.imag ** 2))
    for n in range(1, dim):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def superposition_fock(s, dim):
    """Fock carrier of a cv_core superposition: sum of weighted coherent vectors."""
    out = np.zeros(dim, dtype=complex)
    for w, a in s.terms:
        out += complex(w) * coherent_fock(a, dim)
    return out


def quadrature_eigvec(x, dim):
    """Values h_n(x) of the normalized Hermite functions, n = 0 .. dim-1.

    Stable three-term recurrence
        h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1},
    seeded by h_0 = pi^(-1/4) exp(-x^2/2).  x may be an array of nodes; the
    recurrence then runs over n for all nodes at once, and the result has
    shape x.shape + (dim,).  Dotting with coherent_fock reproduces the
    closed-form <x|alpha> of cv_core.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((dim,) + x.shape, dtype=float)
    if x.ndim == 0:
        x = float(x)  # a float steps through the recurrence faster than a 0-d array
    out[0] = _PI_QUARTER_INV * np.exp(-0.5 * x * x)
    if dim > 1:
        out[1] = _SQRT2 * x * out[0]
    for n in range(1, dim - 1):
        out[n + 1] = (x * math.sqrt(2.0 / (n + 1)) * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return np.moveaxis(out, 0, -1)


def product_state(va, vb):
    """Two-mode product state amps[n, m] = va[n] * vb[m]."""
    return np.outer(np.asarray(va, dtype=complex), np.asarray(vb, dtype=complex))


# ---------------------------------------------------------------------------
# balanced beam splitter
# ---------------------------------------------------------------------------

def _bs_blocks(dim):
    """Photon-number blocks of the balanced beam splitter, one per total S.

    Yields (lo, U_S) for S = 0 .. 2 dim - 2, where U_S[i, k] is
    <lo+i, S-lo-i| U |lo+k, S-lo-k> on the occupations lo .. hi of the
    first mode, lo = max(0, S - dim + 1), hi = min(S, dim - 1); blocks with
    S >= dim are the truncated square submatrix with both occupations below
    dim.  Each block is built from the previous one and dropped when the
    next is yielded, so working memory is O(dim^2) and nothing is kept
    across calls.

    The creation operators map a^dag -> (c^dag + d^dag)/sqrt2 and
    b^dag -> (c^dag - d^dag)/sqrt2.  Writing |m, S-m> as
    (sqrt(m) a^dag |m-1, S-m> + sqrt(S-m) b^dag |m, S-m-1>) / S gives

        U_S[p, m] = (sqrt(m) A[p, m-1] + sqrt(S-m) B[p, m]) / (S sqrt2),
        A[p, k] = sqrt(p) U_{S-1}[p-1, k] + sqrt(S-p) U_{S-1}[p, k],
        B[p, k] = sqrt(p) U_{S-1}[p-1, k] - sqrt(S-p) U_{S-1}[p, k],

    starting from U_0 = [[1]]: four scaled, shifted outer-product updates
    per step.  This is Risbo's half-step recursion for the Wigner matrix
    d^{S/2}(beta) at beta = pi/2, where its cos(beta/2) and sin(beta/2) are
    both 1/sqrt2 (Risbo, J. Geodesy 70, 383 (1996)), with the sign of the
    reflection folded in:
    U_S[p, m] = d^{S/2}[p, m] (-1)^(S-m), p and m counting first-mode
    photons.  Each entry combines four entries of the previous block with
    weights below one, with no alternating sum of large terms (the binomial
    expansion of the same blocks cancels catastrophically in floats): the
    blocks agree with exact integer arithmetic to 2e-15 at dim 81 and are
    unitary to 7e-14 at dim 512.  Entry p of U_S needs only entries p-1 and
    p of U_{S-1}, so the truncated blocks follow from the truncated blocks
    alone.
    """
    root = np.sqrt(np.arange(2 * dim, dtype=float))
    lo, mat = 0, np.ones((1, 1))
    yield lo, mat
    for s in range(1, 2 * dim - 1):
        # extend rows and columns lo .. lo+n-1 of U_{S-1} to lo .. lo+n of U_S
        n = mat.shape[0]
        up = root[lo + 1:lo + n + 1]                  # sqrt(p), p = lo+1 .. lo+n
        down = root[s - lo - n + 1:s - lo + 1][::-1]  # sqrt(S-p), p = lo .. lo+n-1
        raised = up[:, None] * mat
        kept = down[:, None] * mat
        a_img = np.zeros((n + 1, n))
        a_img[1:] = raised
        b_img = a_img.copy()
        a_img[:-1] += kept
        b_img[:-1] -= kept
        new = np.zeros((n + 1, n + 1))
        new[:, 1:] = a_img * up
        new[:, :-1] += b_img * down
        new *= 1.0 / (s * _SQRT2)
        if s >= dim:
            # occupations lo and lo+n leave the truncated square
            new = new[1:-1, 1:-1]
            lo += 1
        mat = new
        yield lo, mat


def apply_beam_splitter(amps):
    """Apply the balanced beam splitter to a two-mode Fock state.

    Exactly unitary on every total-photon block below the truncation; blocks
    reaching the truncation edge are projected, which is the usual (and here
    negligible, by choose_truncation) source of norm loss.
    """
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[0] != amps.shape[1]:
        raise DimensionMismatch(
            f"two-mode state must be square, got shape {amps.shape}")
    out = np.zeros_like(amps)
    for s, (lo, mat) in enumerate(_bs_blocks(amps.shape[0])):
        occ = np.arange(lo, lo + mat.shape[0])
        out[occ, s - occ] = mat @ amps[occ, s - occ]
    return out


# ---------------------------------------------------------------------------
# homodyne projection
# ---------------------------------------------------------------------------

def _project(amps, x):
    v = quadrature_eigvec(x, amps.shape[0]) @ amps
    return v, float(np.vdot(v, v).real)


def project_quadrature(amps, x):
    """Project the measured mode on <x|; returns (mode-4 vector, density).

    The vector v[m] = sum_n h_n(x) amps[n, m] is left unnormalized; density
    is |v|^2, the quadrature marginal when amps is normalized.
    """
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2:
        raise DimensionMismatch(f"expected a two-mode state, got ndim={amps.ndim}")
    v, dens = _project(amps, x)
    if dens < ZERO_DENSITY:
        raise ZeroProbability(f"quadrature density {dens:.3e} at x={x} below floor")
    return v, dens


@functools.cache
def _gl_rule():
    """GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use and kept: leggauss takes about 0.4 ms a call, a
    large share of a closed-form window_metrics call, and it loads enough of
    numpy's linear algebra to cost 1.7 MiB of peak memory in runs that never
    integrate over a window.
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(a, b, panels):
    """Composite GL_ORDER-point Gauss-Legendre nodes/weights on [a, b] with
    equal panels."""
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    if not b > a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    base_x, base_w = _gl_rule()
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + halves[:, None] * base_x[None, :]).ravel()
    ws = (halves[:, None] * base_w[None, :]).ravel()
    return xs, ws


def default_panels(window):
    """Panel count keeping the composite-rule panel width at or below 0.1."""
    return max(1, math.ceil(2.0 * window.half_width / MAX_PANEL_WIDTH))


def window_state(amps, window, panels):
    """Conditional output density for acceptance of X in a finite window.

    Integrates |v(x)><v(x)| over the window with the composite Gauss-Legendre
    rule: with V[j] = v(x_j) = sum_n h_n(x_j) amps[n, :] projected at every
    node at once, the integral is V^T diag(w) conj(V).  Returns (density
    matrix normalized to unit trace, probability), where probability is the
    trace before normalization, i.e. the acceptance probability of the
    window.  Eigenvalues above the roundoff floor are
    clipped to zero; anything below it is treated as a genuine failure.
    """
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2:
        raise DimensionMismatch(f"expected a two-mode state, got ndim={amps.ndim}")
    xs, ws = gauss_legendre(window.lo, window.hi, panels)
    v = quadrature_eigvec(xs, amps.shape[0]) @ amps
    rho = (v.T * ws) @ v.conjugate()
    prob = float(np.trace(rho).real)
    if prob < ZERO_DENSITY:
        raise ZeroProbability(f"window probability {prob:.3e} below floor")
    rho = (rho + rho.conjugate().T) / (2.0 * prob)
    evals, evecs = np.linalg.eigh(rho)
    if evals.min() < EIG_FLOOR:
        raise DensityValidationError(
            f"density eigenvalue {evals.min():.3e} below roundoff floor")
    evals = np.clip(evals, 0.0, None)
    evals /= evals.sum()
    rho = (evecs * evals) @ evecs.conjugate().T
    return rho, float(prob)


def fidelity(state, target):
    """Fidelity of a pure or mixed state against a normalized pure target.

    |<target|state>|^2 for vectors, <target|rho|target> for densities.
    """
    state = np.asarray(state, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if target.ndim != 1:
        raise DimensionMismatch("target must be a pure-state vector")
    if state.ndim == 1:
        if state.shape != target.shape:
            raise DimensionMismatch(
                f"dimension mismatch: {state.shape} vs {target.shape}")
        val = abs(np.vdot(target, state)) ** 2
    elif state.ndim == 2:
        if state.shape != (target.size, target.size):
            raise DimensionMismatch(
                f"dimension mismatch: {state.shape} vs {target.shape}")
        val = np.vdot(target, state @ target).real
    else:
        raise DimensionMismatch(f"unsupported state ndim={state.ndim}")
    return float(min(max(val, 0.0), 1.0))
