"""Truncated photon-number-basis oracle for the conditioning closed forms.

This module deliberately shares no formulas with protocol beyond the state
definitions: coherent states are expanded into Fock amplitudes, the balanced
beam splitter is built one total-photon block at a time in floats by Risbo's
Wigner-d recursion at beta = pi/2, rescaled so that each step is four
contiguous adds of unit weight into a reused buffer (see _bs_blocks; the
blocks match exact integer arithmetic to 3.4e-16), and quadrature
projections use the normalized Hermite function recurrence.  Window
integrals take their nodes from the shared quadrature rule, the one piece of
numerics both routes use.  Agreement between the two routes is what
validates the closed forms.

A single-mode pure state is a 1D complex ndarray of Fock amplitudes; a
two-mode pure state is a 2D array amps[n, m] with n indexing the measured
mode and m the output mode.  Two-mode states are truncated by total photon
number, a rule kept here alone: the beam splitter acts on the triangle
n + m < dim of a square state, where it is exactly unitary, never uses an
entry on n + m >= dim and leaves it zero.  project_quadrature conditions on
a whole array of x at once.  A windowed, mixed output is reduced to its
probability and fidelity without forming its density matrix.
"""

import math

import numpy as np

from .config import (FOCK_CAP_ENV, FOCK_SECONDS_PER_DIM3, ZERO_DENSITY,
                     fock_cap)
from .errors import (DimensionMismatch, DomainError, TruncationTooLarge,
                     ZeroProbability)
from .quadrature import gauss_legendre

_SQRT2 = math.sqrt(2.0)
_PI_QUARTER_INV = math.pi ** -0.25
MAX_TOTAL_PHOTONS = 2047  # largest block S kept in range (see _bs_blocks)


def choose_truncation(max_amp, cap=None):
    """Fock dimension guaranteeing coherent tails <= 1e-12 up to |alpha| = max_amp.

    The margin ceil(max_amp^2 + 10*max_amp + 20) is far past the Poisson bulk
    at every scale of interest.  The bound covers a coherent pair |a>|b>
    truncated to total photon number n + m < dim as well, for
    sqrt(|a|^2 + |b|^2) <= max_amp: the pair's total photon number is
    Poisson distributed like that of one coherent state of that amplitude.
    Dimensions above the cap (default
    DEFAULT_FOCK_CAP, or the CATFORGE_MAX_FOCK environment variable) raise
    TruncationTooLarge, with the predicted time of a cold crosscheck there.
    Both are formed in floats before any ceil, so a dimension or a time
    past the float range is refused the same way, as inf.
    """
    if max_amp < 0 or not math.isfinite(max_amp):
        raise DomainError(f"max_amp must be finite and >= 0, got {max_amp}")
    dim = max_amp * max_amp + 10.0 * max_amp + 20.0
    limit = fock_cap(cap)
    if not dim <= limit:
        shown = math.ceil(dim) if dim < 2.0 ** 53 else f"{dim:.3g}"
        raise TruncationTooLarge(
            f"requested Fock dimension {shown} exceeds cap {limit}: a cold "
            f"crosscheck there is predicted to take about "
            f"{FOCK_SECONDS_PER_DIM3 * dim * dim * dim:.3g} s; raise the cap "
            f"with --max-fock or {FOCK_CAP_ENV}")
    return math.ceil(dim)


def coherent_fock(alpha, dim):
    """Fock amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    out = np.empty(dim, dtype=complex)
    out[0] = math.exp(-0.5 * (alpha.real ** 2 + alpha.imag ** 2))
    for n in range(1, dim):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def quadrature_eigvec(x, dim):
    """Values h_n(x) of the normalized Hermite functions, n = 0 .. dim-1.

    Stable three-term recurrence
        h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1},
    seeded by h_0 = pi^(-1/4) exp(-x^2/2).  x is an array of nodes; the
    recurrence runs over n for all nodes at once, and the result has shape
    x.shape + (dim,).  A row dotted with coherent_fock(alpha, dim) is the
    wavefunction <x|alpha> of a coherent state.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((dim,) + x.shape, dtype=float)
    out[0] = _PI_QUARTER_INV * np.exp(-0.5 * x * x)
    if dim > 1:
        out[1] = _SQRT2 * x * out[0]
    k = np.arange(1.0, dim - 1)
    up = np.multiply.outer(np.sqrt(2.0 / (k + 1)), x.ravel())  # x sqrt(2/(n+1))
    h = list(out.reshape(dim, x.size))  # views of the rows of out
    # three ufunc calls a step on row views: at a few nodes, call overhead is the cost
    for n, u, d in zip(range(1, dim - 1), up, np.sqrt(k / (k + 1)).tolist()):
        np.multiply(u, h[n], out=h[n + 1])
        h[n + 1] -= d * h[n - 1]
    return np.moveaxis(out, 0, -1)


# ---------------------------------------------------------------------------
# balanced beam splitter
# ---------------------------------------------------------------------------

def _bs_scales(dim):
    """Block scales w[n, m] = 2^((n+m)/4) / sqrt(C(n+m, n)); w_S is the
    anti-diagonal n + m = S.  One cumulative product down each parity of
    rows, by w[n, m] / w[n-2, m] = sqrt(2 n (n-1) / ((n+m) (n+m-1))), read
    from the nearer end of each anti-diagonal: w[min(n, m), max(n, m)]."""
    n = np.arange(dim, dtype=float)[:, None]
    m = n.T
    w = np.empty((dim, dim))
    w[:2] = np.exp2((n[:2] + m) / 4) / np.sqrt(1 + n[:2] * m)  # C(n+m, n)
    w[2:] = np.sqrt(2 * n[2:] * (n[2:] - 1) / ((n[2:] + m) * (n[2:] + m - 1)))
    for rows in (w[0::2], w[1::2]):
        np.cumprod(rows, axis=0, out=rows)
    return np.where(np.tri(dim, dtype=bool), w.T, w)


def _bs_blocks(dim):
    """Photon-number blocks of the balanced beam splitter, one per total S.

    Yields T_S for S = 0 .. dim - 1, the blocks of the triangle n + m < dim:
    U_S = diag(w_S) T_S diag(w_S), w_S[p] = _bs_scales(dim)[p, S-p], where
    U_S[p, m] is <p, S-p| U |m, S-m>.  T_S is a view that the step after
    next overwrites; nothing is kept across calls.

    The creation operators map a^dag -> (c^dag + d^dag)/sqrt2 and
    b^dag -> (c^dag - d^dag)/sqrt2.  Writing |m, S-m> as
    (sqrt(m) a^dag |m-1, S-m> + sqrt(S-m) b^dag |m, S-m-1>) / S gives

        U_S[p, m] = (sqrt(m) A[p, m-1] + sqrt(S-m) B[p, m]) / (S sqrt2),
        A[p, k] = sqrt(p) U_{S-1}[p-1, k] + sqrt(S-p) U_{S-1}[p, k],
        B[p, k] = sqrt(p) U_{S-1}[p-1, k] - sqrt(S-p) U_{S-1}[p, k],

    starting from U_0 = [[1]].  This is Risbo's half-step recursion for the
    Wigner matrix d^{S/2}(beta) at beta = pi/2, where its cos(beta/2) and
    sin(beta/2) are both 1/sqrt2 (Risbo, J. Geodesy 70, 383 (1996)), with
    the sign of the reflection folded in:
    U_S[p, m] = d^{S/2}[p, m] (-1)^(S-m), p and m counting first-mode
    photons.  With w_S[p]^2 = 2^(S/2) / C(S, p) every weight becomes one:

        T_S[p, m] = (T[p-1, m-1] + T[p, m-1] + T[p-1, m] - T[p, m]) / 2

    with T = T_{S-1}.  Two buffers in turn hold T at row stride dim + 1,
    below a zero row; each row's pad entry is its column -1 and column dim
    of the row before.  So a step is four contiguous adds and a halving over
    the flat span from (0, 0) to (S, S), off-block entries and the pad
    staying zero.  The blocks match exact integers to 3.4e-16 at dims 25 to
    81 and are unitary to 5e-15 at dims 262 and 512.  T_S peaks near
    2^(S/2) / S, overflowing at S = 2069, and its subnormal entries lose at
    most 2^(S/2 - 1075) once scaled.
    """
    r = dim + 1
    bufs = np.zeros((2, r * r))
    grids = bufs.reshape(2, r, r)  # T_S[p, m] at grids[S % 2, p + 1, m + 1]
    bufs[0, r + 1] = 1.0
    yield grids[0, 1:2, 1:2]
    for s in range(1, dim):
        old, new = bufs[1 - s % 2], bufs[s % 2]
        b = (s + 1) * (r + 1) + 1  # past flat (s, s)
        t = new[r + 1:b]
        np.add(old[:b - r - 1], old[r:b - 1], out=t)
        t += old[1:b - r]
        t -= old[r + 1:b]
        t *= 0.5
        yield grids[s % 2, 1:s + 2, 1:s + 2]


def _check_square(amps):
    if amps.ndim != 2 or not 0 < amps.shape[0] == amps.shape[1]:
        raise DimensionMismatch("two-mode state must be square and non-empty, "
                                f"got shape {amps.shape}")


def apply_beam_splitter(amps):
    """Apply the balanced beam splitter to the triangle n + m < dim of a
    square two-mode Fock state, which it maps onto itself exactly unitarily.

    Entries on n + m >= dim are never used and are zero in the output.  A
    state wider than MAX_TOTAL_PHOTONS + 1 raises TruncationTooLarge before
    any block is built.

    The blocks' scales are diagonal, so they multiply the whole state once
    before the blocks and once after.  Block T_S acts on the anti-diagonal
    n + m = S, a basic slice of step dim - 1 of the flattened C-ordered
    state from (0, S) to (S, 0); viewed as (re, im) float pairs, it is one
    real matrix product.
    """
    amps = np.ascontiguousarray(amps, dtype=complex)
    _check_square(amps)
    dim = amps.shape[0]
    if dim > MAX_TOTAL_PHOTONS + 1:
        raise TruncationTooLarge(
            f"state of dimension {dim} reaches total photon number {dim - 1}, "
            f"above the limit {MAX_TOTAL_PHOTONS}")
    scale = _bs_scales(dim)
    out = np.zeros_like(amps)
    src = (amps * scale).view(float).reshape(-1, 2)
    dst = out.view(float).reshape(-1, 2)
    step = max(dim - 1, 1)  # at dim 1 the one block is one entry
    for s, t in enumerate(_bs_blocks(dim)):
        diag = slice(s, s * dim + 1, step)  # flat (0, s) .. (s, 0)
        dst[diag] = t @ src[diag]
    out *= scale
    return out


# ---------------------------------------------------------------------------
# homodyne projection
# ---------------------------------------------------------------------------

def project_quadrature(amps, xs):
    """Project the measured mode on <x| at each x of xs, in one pass.

    Returns v[j, m] = sum_n h_n(x_j) amps[n, m]: row j is the unnormalized
    output-mode vector conditioned on x_j, and |v[j]|^2 the quadrature
    marginal there when amps is normalized.
    """
    amps = np.asarray(amps, dtype=complex)
    _check_square(amps)
    return quadrature_eigvec(xs, amps.shape[0]) @ amps


def window_metrics(amps, windows, target):
    """Per window on X, the acceptance probability and the fidelity of the
    accepted state to a normalized pure target: [(probability, fidelity), ...].

    With v_j the projection at node x_j of the windows' rule (all nodes in
    one pass) and w_j > 0 its weight:
        probability = sum_j w_j |v_j|^2,
        fidelity = sum_j w_j |<target|v_j>|^2 / probability, clamped at 1,
    the trace and <target|rho|target> of the windowed density, never formed.
    """
    xs, ws, spans = gauss_legendre(tuple(((w.lo, w.hi),) for w in windows))
    v = project_quadrature(amps, xs)
    if np.shape(target) != v.shape[1:]:
        raise DimensionMismatch(
            f"target shape {np.shape(target)} is not {v.shape[1:]}")
    dens = np.sum(np.abs(v) ** 2, axis=1)
    overlap2 = np.abs(v @ np.conj(target)) ** 2
    metrics = []
    for span in spans:
        w = ws[span]
        prob = float(w.dot(dens[span]))
        if prob < ZERO_DENSITY:
            raise ZeroProbability(f"window probability {prob:.3e} below floor")
        metrics.append((prob, min(float(w.dot(overlap2[span])) / prob, 1.0)))
    return metrics
