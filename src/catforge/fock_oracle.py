"""Truncated photon-number-basis oracle for the conditioning closed forms.

This module deliberately shares no formulas with protocol beyond the state
definitions: coherent states are expanded into Fock amplitudes, the balanced
beam splitter is built one total-photon block at a time in floats by Risbo's
Wigner-d recursion at beta = pi/2, rescaled so that each step is three
contiguous adds of unit weight (see _bs_blocks; the blocks match exact
integer arithmetic to 3.9e-16), and quadrature projections use the
normalized Hermite function recurrence.  It knows no quadrature rule and
no tolerance and keeps no state: its callers choose the x values, hold
their Hermite rows and the head of the blocks (bs_head), and reduce the
projected rows.  Agreement between the two routes is what validates the
closed forms.

A single-mode pure state is a 1D complex ndarray of Fock amplitudes; a
two-mode pure state is a 2D array amps[n, m] with n indexing the measured
mode and m the output mode.  The beam splitter's contract is the source
pair: apply_beam_splitter(src, head) is U (src (x) src) on the triangle
n + m < dim, the truncation by total photon number, a rule kept here alone.
There U is exactly unitary; past it the output is zero, and so is every odd
kept count m, since the pair is symmetric under the swap of its modes.  The
blocks are built as their rows p <= S/2 with the stencil's halvings
deferred to every 8th step, so a stored block carries up to 2^7, kept in
the float range up to S = MAX_TOTAL_PHOTONS (see _bs_blocks).
project_quadrature conditions a square two-mode state on the Hermite rows
of a whole array of x at once.
"""

import cmath
import math

import numpy as np

from .errors import DimensionMismatch, DomainError, TruncationTooLarge

_SQRT2 = math.sqrt(2.0)
_PI_QUARTER_INV = math.pi ** -0.25
MAX_TOTAL_PHOTONS = 2047  # largest block S kept in range (see _bs_blocks)
_HALVINGS = 8  # steps per deferred halving of the blocks (see _bs_blocks)
_RING_BYTES = 1 << 22  # memory for the blocks kept at once (see _bs_blocks)


def choose_truncation(max_amp):
    """Fock dimension guaranteeing coherent tails <= 1e-12 up to |alpha| = max_amp.

    The margin ceil(max_amp^2 + 10*max_amp + 20) is far past the Poisson bulk
    at every scale of interest.  The bound covers a coherent pair |a>|b>
    truncated to total photon number n + m < dim as well, for
    sqrt(|a|^2 + |b|^2) <= max_amp: the pair's total photon number is
    Poisson distributed like that of one coherent state of that amplitude.
    Dimensions above MAX_TOTAL_PHOTONS + 1, the beam splitter's limit, raise
    TruncationTooLarge.  The dimension is formed in floats before any ceil,
    so one past the float range is refused the same way, and said so.
    """
    if max_amp < 0 or not math.isfinite(max_amp):
        raise DomainError(f"max_amp must be finite and >= 0, got {max_amp}")
    dim = max_amp * max_amp + 10.0 * max_amp + 20.0
    if dim <= MAX_TOTAL_PHOTONS + 1:
        return math.ceil(dim)
    shown = (math.ceil(dim) if dim < 2.0 ** 53 else
             "past the float range" if dim == math.inf else f"{dim:.3g}")
    raise TruncationTooLarge(
        f"requested Fock dimension {shown} exceeds the beam splitter's limit "
        f"{MAX_TOTAL_PHOTONS + 1} (total photon number {MAX_TOTAL_PHOTONS})")


def coherent_fock(alpha, dim):
    """Fock amplitudes c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!): the moduli
    as one cumulative product of |alpha| / sqrt(n), the phases as
    exp(i n arg(alpha))."""
    alpha = complex(alpha)
    r = abs(alpha)
    mag = np.arange(float(dim))  # n, then the moduli
    phase = np.exp(mag * complex(0.0, cmath.phase(alpha)))
    mag[0] = math.exp(-0.5 * r * r)
    np.divide(r, np.sqrt(mag[1:]), out=mag[1:])
    return np.multiply.accumulate(mag, out=mag) * phase


def quadrature_eigvec(x, dim):
    """Values h_n(x) of the normalized Hermite functions, n = 0 .. dim-1.

    Stable three-term recurrence
        h_{n+1} = x sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1},
    seeded by h_0 = pi^(-1/4) exp(-x^2/2), run on g_n = h_n / c_n with
    c_0 = c_1 = 1 and c_{n+1} = sqrt(n/(n+1)) c_{n-1}, which makes the
    h_{n-1} weight one: g_{n+1} = x a_n g_n - g_{n-1}, a_n = sqrt(2/(n+1))
    c_n / c_{n+1}.  So a step is two ufunc calls on row views (at a few
    nodes, call overhead is the cost), and one multiply by c ends it.  x is
    an array of nodes; the recurrence runs over n for all nodes at once,
    and the result has shape x.shape + (dim,).  A row dotted with
    coherent_fock(alpha, dim) is the wavefunction <x|alpha> of a coherent
    state.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((dim,) + x.shape, dtype=float)
    g = out.reshape(dim, x.size)  # rows of out
    nodes = x.ravel()
    g[0] = _PI_QUARTER_INV * np.exp(-0.5 * nodes * nodes)
    if dim > 1:
        np.multiply(_SQRT2 * nodes, g[0], out=g[1])
    # c_n^2, one product down both parities: c_n^2 / c_{n-2}^2 = (n-1) / n
    k = np.arange(1.0, dim)
    c2 = np.ones(dim + dim % 2)
    np.divide(k[:dim - 2], k[1:dim - 1], out=c2[2:dim])
    np.multiply.accumulate(c2.reshape(-1, 2), axis=0, out=c2.reshape(-1, 2))
    c2 = c2[:dim]
    # a_n = sqrt(2/(n+1)) c_n / c_{n+1}, n = 1 .. dim - 2
    a = np.sqrt(2.0 * c2[1:-1] / (k[1:dim - 1] * c2[2:]))
    rows = list(g)
    for n, u in enumerate(np.multiply.outer(a, nodes), 1):
        np.multiply(u, rows[n], out=rows[n + 1])
        rows[n + 1] -= rows[n - 1]
    g *= np.sqrt(c2)[:, None]
    return out.transpose(tuple(range(1, out.ndim)) + (0,))


# ---------------------------------------------------------------------------
# balanced beam splitter
# ---------------------------------------------------------------------------

def _hankel(a, rows, cols, start=0):
    """The (rows, cols) view v[i, j] = a[start + i + j] of a 1-D array."""
    step = a.strides[0]
    return np.ndarray((rows, cols), a.dtype, a, start * step, (step, step))


def _bs_scales(dim):
    """Block scales for apply_beam_splitter: (w_in, w_out).

    w[n, m] = 2^((n+m)/4) / sqrt(C(n+m, n)), so that w_S[p] = w[p, S-p] on
    the anti-diagonal n + m = S.  It is one cumulative product down both
    parities of rows at once, of the ratios w[n, m] / w[n-2, m] =
    sqrt(2 q(n) / q(n+m)), q(j) = j (j-1), read as a Hankel view.
    w_out[n, m] = w[min(n, m), max(n, m)], from the nearer end of each
    anti-diagonal.  w_in is w 2^(1 - (n+m) mod 8) above the diagonal and
    half that on it, zero below: the halvings _bs_blocks defers, times the
    2 of the source pair's swap fold where two entries fold into one.
    """
    k = np.arange(2.0 * dim)
    rows = dim + dim % 2  # an even count, for one product over row pairs
    w = np.empty((rows, dim))
    e = np.exp2(0.25 * k[:dim + 1])
    w[0] = e[:dim]
    np.divide(e[1:], np.sqrt(k[1:dim + 1]), out=w[1])  # C(m+1, 1) = m + 1
    q = k * (k - 1)
    np.divide((2.0 * q[2:rows])[:, None], _hankel(q, rows - 2, dim, 2),
              out=w[2:])
    np.sqrt(w[2:], out=w[2:])
    pairs = w.reshape(-1, 2 * dim)
    np.multiply.accumulate(pairs, axis=0, out=pairs)
    w = w[:dim]
    total = np.arange(2 * dim - 1)  # n + m
    halvings = _hankel(np.ldexp(2.0, -(total % _HALVINGS)), dim, dim)
    # m >= n, as a Toeplitz view
    upper = np.ndarray((dim, dim), bool, total >= dim - 1, dim - 1, (-1, 1))
    w_in = np.where(upper, w * halvings, 0.0)
    w_in.ravel()[::dim + 1] *= 0.5
    return w_in, np.where(upper, w, w.T)


def _bs_blocks(dim, head):
    """Photon-number blocks of the balanced beam splitter, one per total S,
    as their rows p <= S/2 with the halvings deferred.

    Builds R_S = 2^(S mod 8) T_S[:S//2 + 1] for S = 0 .. dim - 1, the
    blocks of the triangle n + m < dim: U_S = diag(w_S) T_S diag(w_S),
    w_S[p] = w[p, S-p] of _bs_scales, where U_S[p, m] is
    <p, S-p| U |m, S-m>.  A block depends on S alone, not on dim, so the
    first ones come from head, bs_head(k)'s R_S for S < k, and the
    recursion resumes from a copy of its last block.  The groups are
    yielded as (s0, s1, slots), R_S at slots[S - s0, p + 1, m + 1] for
    s0 <= S < s1, each valid until the next yield: first [0, min(k, dim))
    with head itself as the slots, then ring steps each in a ring of
    slots, a (ring, rows, dim + 1) array: ring is the number of slots that
    fit in _RING_BYTES, at least 2 and at most 16.  Nothing is kept across
    calls.

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

    with T = T_{S-1}.  Rows p <= S/2 of T_S need rows p <= S/2 of T_{S-1},
    one row past its half when S is even.  The Wigner-d symmetries give it:
    T_S is symmetric, and T_S[S-p, S-m] = (-1)^(S+p+m) T_S[p, m], so row
    S/2 of T_{S-1} is row S/2 - 1 reversed with alternating signs.  A slot
    holds the rows at stride dim + 1, below a zero row; each row's pad
    entry is its column -1 and column dim of the row before.  So a step is
    three contiguous adds from the slot of S - 1 into the next over the
    flat span from (0, 0) to (S/2, S), off-block entries and the pad
    staying zero, and the rows past S/2 + 1 zero.  The stencil's
    1/2 is deferred to an exact 2^-8 every 8th step, so R_S carries
    2^(S mod 8); apart from subnormal entries, which lose their low bits
    either way, R_S is bit for bit 2^(S mod 8) times the build that halves
    every step.  The blocks match exact integers to 3.9e-16 at dims 25 to
    81 and are unitary to 5e-15 at dims 262 and 512.  T_S peaks near
    2^(S/2) / S, so R_S, at most 2^7 times that, peaks at 2^1018.9 at
    S = MAX_TOTAL_PHOTONS = 2047; a partial sum of the stencil, three terms
    of the step before, stays 2^3 below the float range.  Subnormal entries
    of T_S lose at most 2^(S/2 - 1075) once scaled.
    """
    top = min(len(head), dim)
    yield 0, top, head
    if top == dim:
        return
    r = dim + 1
    rows = (dim + 1) // 2 + 1  # a zero row and rows 0 .. (dim - 1) // 2
    ring = min(max(_RING_BYTES // (8 * rows * r), 2), 16)
    slots = np.zeros((ring, rows * r))
    alt = np.ones((2, dim))  # (-1)^(h+1+m) at alt[h % 2, m]
    alt[0, ::2] = alt[1, 1::2] = -1.0
    old = slots[-1]
    last = head[top - 1]
    old.reshape(rows, r)[:last.shape[0], :last.shape[1]] = last
    for s0 in range(top, dim, ring):
        s1 = min(s0 + ring, dim)
        for s, new in zip(range(s0, s1), slots):
            h = s // 2
            if not s % 2:  # row h of R_{s-1} = (-1)^(h+1+m) R_{s-1}[h-1, s-1-m]
                np.multiply(old[h * r + s:h * r:-1], alt[h % 2, :s],
                            out=old[(h + 1) * r + 1:(h + 1) * r + s + 1])
            b = (h + 1) * r + s + 2  # past flat (h, s)
            t = new[r + 1:b]
            np.add(old[:b - r - 1], old[r:b - 1], out=t)
            t += old[1:b - r]
            t -= old[r + 1:b]
            if not s % _HALVINGS:
                t *= 2.0 ** -_HALVINGS
            old = new
        yield s0, s1, slots.reshape(ring, rows, r)


def bs_head(k):
    """The first k blocks of _bs_blocks, R_S for S < k, as one read-only
    (k, (k + 1) // 2 + 1, k + 1) array in its slot layout at dim k.

    R_S[p, m] for p <= S/2 is at head[S, p + 1, m + 1], and every entry
    past row (S + 1) // 2 is zero (an odd S may hold its row (S + 1) / 2,
    which the next step mirrors in).  bs_head(1) holds R_0 = [[1]], the
    recursion's start; a longer head is that recursion run to S = k - 1.
    A block depends on S alone, so one head serves apply_beam_splitter at
    every dimension.  Each call builds a new head; the caller keeps it.
    """
    if not 1 <= k <= MAX_TOTAL_PHOTONS + 1:
        raise DomainError(f"a head holds R_S for S < k, 1 <= k <= "
                          f"{MAX_TOTAL_PHOTONS + 1}, got k = {k}")
    head = np.zeros((k, (k + 1) // 2 + 1, k + 1))
    head[0, 1, 1] = 1.0
    for s0, s1, slots in _bs_blocks(k, head[:1]):
        head[s0:s1] = slots[:s1 - s0]
    head.flags.writeable = False
    return head


def apply_beam_splitter(src, head):
    """U (src (x) src): the beam splitter on the pair of a single-mode
    source of dim Fock amplitudes, kept on the triangle n + m < dim, which
    it maps onto itself exactly unitarily.

    Returns out[n, m], n the measured mode, zero on n + m >= dim.  The pair
    is symmetric under the swap of its modes and U_S[p, S-k] =
    (-1)^(S-p) U_S[p, k], so only even kept counts m leave (two-photon
    interference; Campos, Saleh & Teich, Phys. Rev. A 40, 1371 (1989)):
    out[:, odd m] is exactly zero.  So a block needs only the entries
    k <= S/2 of the pair's anti-diagonal, those below S/2 doubled, and its
    rows p <= S/2 from _bs_blocks, read as columns since T_S is symmetric.
    A source wider than MAX_TOTAL_PHOTONS + 1 raises TruncationTooLarge
    before any block is built.

    head is a bs_head(k), as the caller keeps it: the products for
    S < min(k, dim) read it, and the recursion resumes from its last block
    for S >= k, so the output is the same bits for every k.  bs_head(1)
    builds every block afresh; bs_head(49), which crosscheck keeps (0.5 MB
    beside its 2.8 MB of Hermite tables), spares every point its first 48
    steps.

    The scales of _bs_scales multiply the pair once before the blocks and
    the output once after.  An anti-diagonal n + m = S is a view of step
    dim - 1 of the flattened state, as (re, im) float pairs; the blocks of
    one parity of S in a group of _bs_blocks make one stacked real matrix
    product, each padded to the group's largest.  The padding reads pair
    entries below the diagonal, where w_in is zero, and past S, against
    zero rows of the block, and writes zeros past p = S, which land on
    n + m >= dim.
    """
    src = np.ascontiguousarray(src, dtype=complex)
    if src.ndim != 1 or not src.size:
        raise DimensionMismatch("source must be a non-empty vector of Fock "
                                f"amplitudes, got shape {src.shape}")
    dim = src.size
    if dim > MAX_TOTAL_PHOTONS + 1:
        raise TruncationTooLarge(
            f"source of dimension {dim} reaches total photon number "
            f"{dim - 1}, above the limit {MAX_TOTAL_PHOTONS}")
    head = np.ascontiguousarray(head, dtype=float)
    if (head.ndim != 3 or not len(head)
            or head.shape[1:] != ((len(head) + 1) // 2 + 1, len(head) + 1)):
        raise DimensionMismatch("head must have shape (k, (k + 1) // 2 + 1, "
                                f"k + 1), k >= 1, got shape {head.shape}")
    w_in, w_out = _bs_scales(dim)
    pair = np.multiply.outer(src, src)
    pair *= w_in
    out = np.zeros((dim, dim), dtype=complex)
    step = 16 * (dim - 1)  # bytes between the entries of an anti-diagonal
    for s0, s1, slots in _bs_blocks(dim, head):
        _, rows, r = slots.shape
        for first in range(s0, min(s0 + 2, s1)):
            odd = first % 2
            # S = first, first + 2, ... < s1, padded to h + 1 of the last
            count = (s1 - first + 1) // 2
            size = (first + 2 * count - 2) // 2 + 1
            shape = (count, size, 2)
            # blocks[i, j, k] = R_S[k, p], p = odd + 2 j, S - p even
            blocks = np.ndarray(
                (count, size, size), float, slots,
                8 * (((first - s0) * rows + 1) * r + 1 + odd),
                (16 * rows * r, 16, 8 * r))
            np.matmul(blocks, np.ndarray(shape, float, pair, 16 * first,
                                         (32, step, 8)),
                      out=np.ndarray(shape, float, out,
                                     16 * first + odd * step,
                                     (32, 2 * step, 8)))
    out[:, ::2] *= w_out[:, ::2]
    return out


# ---------------------------------------------------------------------------
# homodyne projection
# ---------------------------------------------------------------------------

def project_quadrature(amps, h):
    """Project the measured mode on <x| at each node of h, in one pass.

    h holds Hermite rows h[j, n] = h_n(x_j), as quadrature_eigvec(xs, size)
    gives them, with size >= dim columns; the first dim are read, so one
    table serves every dimension up to its size.  Returns v[j, m] =
    sum_n h_n(x_j) amps[n, m]: row j is the unnormalized output-mode vector
    conditioned on x_j, and |v[j]|^2 the quadrature marginal there when
    amps is normalized.  The Hermite values are real, so the product is
    taken on the (re, im) float view of amps.
    """
    amps = np.ascontiguousarray(amps, dtype=complex)
    if amps.ndim != 2 or not 0 < amps.shape[0] == amps.shape[1]:
        raise DimensionMismatch("two-mode state must be square and non-empty, "
                                f"got shape {amps.shape}")
    dim = amps.shape[0]
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[1] < dim:
        raise DimensionMismatch(f"Hermite rows must have shape (nodes, >= {dim}), "
                                f"got shape {h.shape}")
    return (h[:, :dim] @ amps.view(float).reshape(dim, 2 * dim)).view(complex)
