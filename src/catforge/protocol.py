"""Conditional cat-state preparation by interference and homodyne selection.

Two identical sources each emit a symmetric superposition of two coherent
states of magnitude alpha0 whose phases differ by phi, centred on the
imaginary axis.  The copies interfere on a balanced beam splitter; measuring
the X quadrature of one output near x = 0 leaves the other output in

    c1 |0> + c2 (|s> + |-s>),        s = sqrt(2) alpha0 sin(phi/2),

so the separation of the surviving superposition grows by sqrt(2) while the
vacuum branch can be switched off entirely: |c1|/|c2| has zeros on
alpha0^2 sin(phi) = pi/2 + k pi.  One kernel, _kept_mode, writes that state
as two closed-form coordinates in the plane of |0> and |s> + |-s>, accurate
near an odd source (alpha0^2 sin(phi) near (2k+1) pi, where the source norm^2
is about d0^2); c1, c2, the density, the window quadratures and the Wigner
grids are read off it.  crosscheck holds the Fock route that checks them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MARGINAL_HALF_RANGE, MAX_LOBE_ULP, ZERO_DENSITY
from .cv_core import PI_QUARTER_INV, SQRT2, HomodyneWindow, _pair_factor
from .errors import DomainError, ZeroProbability
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class ProtocolParams:
    """Source magnitude alpha0 >= 0 and phase separation phi.

    phi is canonicalized into [0, pi]: every derived quantity is even and
    2 pi periodic in phi, so the sign and winding carry no information.
    """

    alpha0: float
    phi: float

    def __post_init__(self):
        a = float(self.alpha0)
        p = float(self.phi)
        if not (math.isfinite(a) and math.isfinite(p)):
            raise DomainError("parameters must be finite")
        if a < 0:
            raise DomainError(f"alpha0 must be >= 0, got {a}")
        if not math.isfinite(a * a):
            raise DomainError(f"alpha0 = {a:g} is too large: alpha0^2 overflows")
        object.__setattr__(self, "alpha0", a)
        object.__setattr__(self, "phi", canonical_phi(p))


def canonical_phi(phi):
    """The phase separation folded into [0, pi] (even and 2 pi periodic)."""
    p = math.fmod(abs(phi), 2.0 * math.pi)
    return 2.0 * math.pi - p if p > math.pi else p


class Separations(NamedTuple):
    """Input separation d0 of each source and output separation d of the cat."""

    d0: float
    d: float


class PreparedStateReport(NamedTuple):
    """Everything the conditioning at one quadrature value produces."""

    alpha0: float
    phi: float
    x: float
    vacuum_coeff: complex
    cat_coeff: complex
    ratio: float
    fidelity: float
    density_at_x: float
    separations: Separations


def _d0(p):
    return 2.0 * p.alpha0 * math.sin(0.5 * p.phi)


def separations(p):
    """Separations d0 = 2 alpha0 sin(phi/2) of each source and d = sqrt2 d0."""
    d0 = _d0(p)
    return Separations(d0, SQRT2 * d0)


# The ratio formulas take exp and cos as arguments, as _kept_mode takes its
# ops: the point functions pass math's on floats, and optimize_sweep libm's
# looped over arrays, so a swept cell equals the point value bit for bit.
def _ratio_exact(a2, half, sin_phi, exp, cos):
    # a2 * half * half first: -2 a2 alone overflows past alpha0 ~ 9.5e153
    return 2.0 * exp(-2.0 * (a2 * half * half)) * abs(cos(a2 * sin_phi))


def _ratio_small_angle(u, cos):
    return 2.0 * abs(cos(u))


def _ratio_second_order(a2, phi, small_angle, exp):
    return exp(-0.5 * a2 * phi * phi) * small_angle


def coefficient_ratio(p):
    """|c_vac| / |c_cat| of report at x = 0, in closed form:

        2 exp(-2 alpha0^2 sin^2(phi/2)) |cos(alpha0^2 sin phi)|,

    the exponent alpha0^2 (1 - cos phi) in a form that does not cancel.
    """
    return _ratio_exact(p.alpha0 * p.alpha0, math.sin(0.5 * p.phi),
                        math.sin(p.phi), math.exp, math.cos)


def coefficient_ratio_small_angle(p):
    """First order in phi: 2 |cos(alpha0^2 phi)|."""
    u = p.alpha0 * p.alpha0 * p.phi
    if not math.isfinite(u):
        raise DomainError(
            f"alpha0 = {p.alpha0:g} is too large: alpha0^2 phi overflows")
    return _ratio_small_angle(u, math.cos)


def coefficient_ratio_second_order(p):
    """Second order in phi: exp(-alpha0^2 phi^2 / 2) * 2 |cos(alpha0^2 phi)|.

    In terms of the output separation d = sqrt2 alpha0 phi the damping factor
    is exp(-d^2/4) and the oscillation argument is alpha0 d / sqrt2, so for
    d >= 4 the ratio is bounded by 2 e^-4 regardless of phase.
    """
    return _ratio_second_order(p.alpha0 * p.alpha0, p.phi,
                               coefficient_ratio_small_angle(p), math.exp)


def check_null_phi(phi):
    """Raise DomainError unless 0 < phi < pi, where vacuum nulls exist."""
    if not 0.0 < phi < math.pi:
        raise DomainError(f"phi must lie in (0, pi), got {phi}")


def vacuum_null_alpha_approx(phi):
    """Small-angle location of the first vacuum null: sqrt(pi / (2 phi))."""
    check_null_phi(phi)
    alpha0 = math.sqrt(math.pi / (2.0 * phi))
    if not math.isfinite(alpha0 * alpha0):
        raise DomainError(f"phi = {phi:g} is too small: the small-angle null's "
                          "alpha0^2 = pi / (2 phi) overflows")
    return alpha0


def vacuum_null_alpha(phi, k=0):
    """Exact k-th vacuum null: alpha0 = sqrt((pi/2 + k pi) / sin phi)."""
    check_null_phi(phi)
    try:
        top = 0.5 * math.pi + k * math.pi
    except OverflowError:  # an integer k past the float range
        top = math.inf
    # int(k) last: it raises on an infinite or nan k
    if not (k >= 0 and math.isfinite(top) and k == int(k)):
        raise DomainError("k must be a non-negative integer whose (k + 1/2) pi "
                          f"is finite, got k = {k}")
    alpha0 = math.sqrt(top / math.sin(phi))
    if not math.isfinite(alpha0 * alpha0):
        raise DomainError(f"phi = {phi:g} is too small: the k = {k} vacuum "
                          "null's alpha0^2 = (k + 1/2) pi / sin(phi) overflows")
    return alpha0


# pi times 10^59, rounded: theta less an odd multiple of pi, in integers
_PI_E59 = 314159265358979323846264338327950288419716939937510582097494


def _phase(p):
    """(1 + cos theta, cos theta, sin theta) for theta = alpha0^2 sin phi.

    Near an odd source 1 + cos theta is of order d0^2 ~ theta phi, small
    enough that the rounding of theta shows (at k = 2, d0 = 1e-8 it moved
    the fidelity by 1.4e-13).  Only at phi < 2^-20 can d0 be that small;
    there r = theta - m pi (m the nearest odd integer) is formed in integers
    from the exact product of alpha0^2 and sin phi, rounded once, and gives
    2 sin^2(r/2), -cos r and -sin r.
    """
    sin_phi = math.sin(p.phi)
    theta = p.alpha0 * p.alpha0 * sin_phi
    if not (p.phi < 2.0 ** -20 and theta < 2.0 ** 53):
        return 2.0 * math.cos(0.5 * theta) ** 2, math.cos(theta), math.sin(theta)
    m = 2 * round(0.5 * (theta / math.pi - 1.0)) + 1
    (na, da), (ns, ds) = p.alpha0.as_integer_ratio(), sin_phi.as_integer_ratio()
    den = da * da * ds * 10 ** 59
    r = (na * na * ns * 10 ** 59 - m * _PI_E59 * da * da * ds) / den
    return 2.0 * math.sin(0.5 * r) ** 2, -math.cos(r), -math.sin(r)


_ARRAY_OPS = (np.exp, np.sinh, np.minimum, np.copysign)
_FLOAT_OPS = (lambda v: float(np.exp(v)), lambda v: float(np.sinh(v)),
              min, math.copysign)


def _kept_mode(p, x):
    """Density, squared ideal-cat overlap and (Re alpha, Im alpha, g(x), S2,
    d0, vac).

    The kept mode (c1 |0> + c2 (|s> + |-s>)) / S2 (S2 the source norm^2) is
    (alpha, beta) on e0 = |0>, e1 = F / |F|, F = |s> + |-s> - 2 h |0>,
    h = e^{-s^2/2}.  Up to the phase e^{ikx} of c1 = e^{ikx} vac and c2, with
    u = x d0, c = cos theta and t = g(x) / S2: beta = sqrt2 |expm1(-s^2)| t,
    and alpha = 2 h t (R + i I) with R = 1 + c + c (2 h sinh^2(u/2) +
    expm1(-s^2/2)), I = -h sinh(u) sin theta, S2 = 2 (1 + c + c expm1(-s^2)):
    no cancellation near an odd source.  For s > 1, where nothing cancels,
    alpha S2 = vac + 2 h g(x), vac = g(x + d0) e^{i theta} + g(x - d0)
    e^{-i theta}, with no sinh to overflow; for s <= 1 (float x only) vac =
    2 h^2 g(x) (cosh(u) c - i sinh(u) sin theta).  The cat is (2 h, |F|) /
    sqrt(2 + 2 h^4).  x is a float, in Python floats, or an array whose
    elements come out bit for bit as for floats (numpy's exp and sinh both).
    """
    array = isinstance(x, np.ndarray)
    x, (exp, sinh, minimum, copysign) = (
        (x, _ARRAY_OPS) if array else (float(x), _FLOAT_OPS))
    d0 = _d0(p)
    s2 = 0.5 * d0 * d0
    cos2, cos, sin = _phase(p)
    h = math.exp(-0.5 * s2)
    em1 = -math.expm1(-s2)  # |F| / sqrt2
    g = PI_QUARTER_INV * exp(-0.5 * x * x)
    if s2 > 1.0:
        norm2 = 2.0 * (1.0 + math.exp(-s2) * cos)
        below, above = x - d0, x + d0
        g_plus = PI_QUARTER_INV * exp(-0.5 * below * below)
        g_minus = PI_QUARTER_INV * exp(-0.5 * above * above)
        vac = ((g_plus + g_minus) * cos, (g_minus - g_plus) * sin)
        re = (vac[0] + 2.0 * h * g) / norm2
        im = vac[1] / norm2
    else:
        norm2 = 2.0 * (cos2 - cos * em1)
        # past |x| = 38.6 g is 0, and the bound keeps sinh finite there
        u = d0 * minimum(abs(x), 40.0)
        sh = sinh(0.5 * u)
        sh_u = copysign(sinh(u), x)
        f = 2.0 * h * g / norm2
        re = f * (cos2 + cos * (2.0 * h * sh * sh + math.expm1(-0.5 * s2)))
        im = -f * h * sh_u * sin
        vac = None
        if not array:
            t = 2.0 * h * h * g
            vac = (t * (1.0 + 2.0 * sh * sh) * cos, -t * sh_u * sin)
    b = SQRT2 * em1 * g / norm2
    n = math.sqrt(2.0 + 2.0 * math.exp(-2.0 * s2))
    o_re = 2.0 * h / n * re + SQRT2 * em1 / n * b
    o_im = 2.0 * h / n * im
    return (re * re + im * im + b * b, o_re * o_re + o_im * o_im,
            (re, im, g, norm2, d0, vac))


def _branches(p, x):
    """_kept_mode at a float x: density, overlap^2, d0, c_vac and c_cat."""
    dens, overlap2, (_, _, g, _, d0, vac) = _kept_mode(p, x)
    kx = 2.0 * p.alpha0 * math.cos(0.5 * p.phi) * x
    # e^{ikx}; k x = +-inf lies past every lobe, short of theta ~ 1e308
    e = complex(math.cos(kx), math.sin(kx)) if abs(kx) < math.inf else 0j
    return dens, overlap2, d0, complex(*vac) * e, g * e


def _check_density(dens, x):
    """ZeroProbability below ZERO_DENSITY (or nan), the one floor: the density
    is a sum of squares of _kept_mode's coordinates, so nothing cancels."""
    if not dens >= ZERO_DENSITY:
        raise ZeroProbability(
            f"conditioning density {dens:.3e} at x={x} below floor")


def homodyne_density(p, x):
    """Probability density of measuring X = x on the monitored output.

    |alpha|^2 + |beta|^2 of _kept_mode; even in x, of unit total mass, with
    Gaussian lobes at 0 and +-d0.
    """
    return float(_kept_mode(p, x)[0])


def _plane_wigner(alpha, t, s, s2, dens, re_vals, im_vals):
    """Wigner function of alpha |0> + t F over its norm^2 dens, W[i, j] at
    re_vals[i] + 1j im_vals[j].

    F = |s> + |-s> - 2 h |0>, h = e^{-s^2/2}: the state is (alpha - 2 h t) |0>
    + t (|s> + |-s>), in the plane of _kept_mode, and s2 is s^2 as the caller
    rounds it (inf near s = 1e154).  For s^2 <= 1, with gamma = q + i y and
    b = sqrt2 em1 t,
        W dens = (2/pi) e^{-2 |gamma|^2} [|alpha|^2 - b^2
                 + 8 h t Re(alpha sinh^2(s gamma)) + 4 t^2 X^2],
        X = 2 sinh^2(s q) + 2 sin^2(s y) - em1 cosh(2 s q),  em1 = -expm1(-s^2):
    nothing cancels as s -> 0 or near an odd source.  Expanding sinh(s gamma)
    makes five products of a q factor and a y factor.  For s^2 > 1, where
    cosh(2 s q) would overflow and nothing cancels, W is the sum over the 9
    pairs of centres a_i, a_j in (0, s, -s), with weights w_i,
        W = (2/pi) sum_ij conj(w_i) w_j exp(-2 |gamma - m|^2 - 2 i y d),
    m = (a_i + a_j)/2, d = a_j - a_i: each pair's overlap <a_i|a_j> folded
    into one exponent whose real part is never positive, a q factor times a
    y factor (_pair_factor).
    """
    h = math.exp(-0.5 * s2)
    if s2 > 1.0:
        n = math.sqrt(dens)
        w = (complex(alpha.real - 2.0 * h * t, alpha.imag) / n,
             complex(t / n), complex(t / n))
        a = (0.0, s, -s)
        c = np.array([wi.conjugate() * wj for wi in w for wj in w])
        m = np.array([0.5 * (ai + aj) for ai in a for aj in a])[:, None]
        d = np.array([aj - ai for ai in a for aj in a])[:, None]
        fx = _pair_factor(np.asarray(re_vals, dtype=float), m, 0.0)
        fy = _pair_factor(np.asarray(im_vals, dtype=float), 0.0, -2.0 * d)
        # einsum, not @: @ sums in another order and moves output bytes.
        # (A first BLAS product once slowed the process's later pure-Python
        # math: a per-cell Python sweep ran 1.2-2.5x slower after it.  No
        # caller today shows that: sweep_ratio, report and the window
        # reference read 0.92-1.02x, medians of 4 fresh processes, one BLAS
        # thread, 2-core Xeon under KVM.)
        return (2.0 / math.pi) * np.einsum("pi,pj->ij", c[:, None] * fx, fy).real
    re, im, em1 = alpha.real, alpha.imag, -math.expm1(-s2)
    # past |q| = 40 the Gaussian is 0, and the bound keeps cosh(2 s q) finite
    q = np.clip(np.asarray(re_vals, dtype=float), -40.0, 40.0)
    y = np.asarray(im_vals, dtype=float)
    with np.errstate(over="ignore"):  # y * y past |y| ~ 1e154
        eq, ey = np.exp(-2.0 * q * q), np.exp(-2.0 * y * y)
    sh, ch, c, sn = np.sinh(s * q), np.cosh(s * q), np.cos(s * y), np.sin(s * y)
    x_q = 2.0 * sh * sh - em1 * np.cosh(2.0 * s * q)  # X less 2 sin^2(s y)
    ht, tt = 8.0 * h * t, 4.0 * t * t
    fq = eq * np.array([re * re + im * im - 2.0 * (em1 * t) ** 2 + tt * x_q * x_q,
                        ht * re * sh * sh, 4.0 * tt * x_q - ht * re * ch * ch,
                        -2.0 * ht * im * sh * ch, np.full_like(q, 4.0 * tt)])
    fy = ey * np.array([np.ones_like(y), c * c, sn * sn, c * sn, sn ** 4])
    return (2.0 / math.pi / dens) * np.einsum("ki,kj->ij", fq, fy)


def kept_wigner(p, x, re_vals, im_vals):
    """Kept-mode Wigner function at X = x, W[i, j] at re_vals[i] + 1j im_vals[j]:
    _plane_wigner of _kept_mode's coordinates."""
    dens, _, (re, im, g, norm2, d0, _) = _kept_mode(p, x)
    _check_density(dens, x)
    return _plane_wigner(complex(re, im), g / norm2, d0 / SQRT2, 0.5 * d0 * d0,
                         dens, re_vals, im_vals)


def cat_wigner(s, re_vals, im_vals):
    """Wigner function of the cat (|s> + |-s>) / sqrt(2 + 2 e^{-2 s^2}), s >= 0,
    W[i, j] at re_vals[i] + 1j im_vals[j]: _plane_wigner at alpha = 2 h t.

    The prepared cat has s = d0 / sqrt2 < 2e154.  Every s in [0, 1e306] is
    drawn, the vacuum at s = 0; past 1e306 the pair phases (up to 112 s)
    overflow, so a larger, negative or nan s raises DomainError.
    """
    if not 0.0 <= s <= 1e306:
        raise DomainError(f"cat half-separation must lie in [0, 1e306], got {s}")
    s2 = s * s
    t = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * s2))
    return _plane_wigner(complex(2.0 * math.exp(-0.5 * s2) * t), t, s, s2, 1.0,
                         re_vals, im_vals)


def report(p, x=0.0):
    """Bundle of coefficients, their ratio, fidelity (clamped to [0, 1]) to
    the ideal cat, and separations, all read off one _kept_mode.  The ratio
    2 e^{-s^2} sqrt(c^2 + sinh^2 u), c = cos theta, u = x d0, is taken as
    2 e^{|u| - s^2} sqrt(w c^2 + m^2), w = e^{-2|u|}, m = (1 - w) / 2: no sinh
    to overflow, and at u = 0 (w = 1, m = 0, sqrt(c c) = |c|) _ratio_exact's
    factors, coefficient_ratio bit for bit.  DomainError past the float range.
    """
    dens, overlap2, d0, c_vac, c_cat = _branches(p, x)
    _check_density(dens, x)
    a2, half, a = p.alpha0 * p.alpha0, math.sin(0.5 * p.phi), abs(x * d0)
    c = math.cos(a2 * math.sin(p.phi))
    w, m = math.exp(-2.0 * a), -0.5 * math.expm1(-2.0 * a)
    try:
        ratio = (2.0 * math.exp(a - 2.0 * (a2 * half * half))
                 * math.sqrt(w * c * c + m * m))
    except OverflowError:
        ratio = math.inf
    if not ratio < math.inf:
        raise DomainError(f"branch ratio |c_vac| / |c_cat| overflows at x={x}")
    return PreparedStateReport(p.alpha0, p.phi, x, c_vac, c_cat, ratio,
                               min(overlap2 / dens, 1.0), dens,
                               Separations(d0, SQRT2 * d0))


def _lobe_ranges(d0):
    """Where the marginal's lobes at -d0, 0 and d0 (d0 >= 0) lie, once per
    table: their ranges c -+ MARGINAL_HALF_RANGE, sorted, overlapping ones
    merged, as (lo, hi, coarse) with coarse the centre whose float spacing
    exceeds MAX_LOBE_ULP, else None.  Such a centre is at least 2^51, so
    its range is never merged."""
    ranges = []
    for c in (-d0, 0.0, d0):
        lo, hi = c - MARGINAL_HALF_RANGE, c + MARGINAL_HALF_RANGE
        if ranges and lo <= ranges[-1][1]:
            ranges[-1] = (ranges[-1][0], hi, None)
        else:
            ranges.append((lo, hi, c if math.ulp(c) > MAX_LOBE_ULP else None))
    return tuple(ranges)


def _window_pieces(window, ranges):
    """Parts of the window within the lobe ranges of _lobe_ranges, as a
    tuple of (lo, hi) pairs.

    Every lobe is below exp(-100) beyond MARGINAL_HALF_RANGE, so the
    integrals lose nothing and the node count stays bounded however wide
    the window.  A window reaching a coarse lobe, too coarse for the
    quadrature nodes, raises DomainError.
    """
    w_lo, w_hi = window.lo, window.hi
    pieces = []
    for r_lo, r_hi, coarse in ranges:
        lo = max(w_lo, r_lo)
        hi = min(w_hi, r_hi)
        if lo <= hi and coarse is not None:
            raise DomainError(
                f"window reaches the marginal lobe at {coarse:.6g}, "
                f"where doubles lie {math.ulp(coarse):g} apart")
        if lo < hi:
            pieces.append((lo, hi))
    if not pieces:
        raise ZeroProbability(
            f"window [{w_lo:g}, {w_hi:g}] misses the homodyne marginal")
    return tuple(pieces)


def window_metrics(p, windows):
    """Acceptance probability and cat fidelity for each finite homodyne window.

    The kept mode is mixed: sum_j w_j v_j v_j^H over Gauss-Legendre nodes x_j,
    v_j = (alpha, beta) of _kept_mode.  The probability is its trace and the
    fidelity cat^T rho cat over it, clamped to [0, 1].  One rule pass places
    every window's nodes, which go through _kept_mode as one array.
    Returns one (probability, fidelity) pair of floats per window.
    """
    ranges = _lobe_ranges(_d0(p))  # d0 >= 0, as phi is in [0, pi]
    xs, ws, spans = gauss_legendre(
        tuple(_window_pieces(window, ranges) for window in windows))
    # past alpha0 ~ 1e153 the squares overflow to inf as silently as in
    # floats, where the lobe's exp is 0
    with np.errstate(over="ignore"):
        dens, overlap2, _ = _kept_mode(p, xs)
    metrics = []
    for span in spans:
        # ddot on contiguous slices, as @ sums them, with less dispatch
        w = ws[span]
        prob = float(w.dot(dens[span]))
        if prob < ZERO_DENSITY:
            raise ZeroProbability(f"window probability {prob:.3e} below floor")
        metrics.append((prob, min(float(w.dot(overlap2[span])) / prob, 1.0)))
    return metrics
