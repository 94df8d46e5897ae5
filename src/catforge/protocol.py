"""Conditional cat-state preparation by interference and homodyne selection.

Two identical sources each emit a symmetric superposition of two coherent
states of magnitude alpha0 whose phases differ by phi, centred on the
imaginary axis.  The copies interfere on a balanced beam splitter; measuring
the X quadrature of one output near x = 0 leaves the other output in

    c1 |0> + c2 (|s> + |-s>),        s = sqrt(2) alpha0 sin(phi/2),

so the separation of the surviving superposition grows by sqrt(2) while the
vacuum branch can be switched off entirely: |c1|/|c2| has zeros on
alpha0^2 sin(phi) = pi/2 + k pi.  Everything here is closed-form, finite
acceptance windows included (1D quadratures of Gram sums); crosscheck holds
the Fock route that checks it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import MARGINAL_HALF_RANGE, ZERO_DENSITY
from .cv_core import (EXP_UNDERFLOW, PI_QUARTER_INV, SQRT2,
                      CoherentSuperposition, HomodyneWindow, TwoModeSuperposition,
                      beam_splitter_50_50, gram, quadrature_overlap,
                      superposition_inner)
from .errors import DegenerateState, DomainError, ZeroProbability
from .quadrature import gauss_legendre

__all__ = [
    "ProtocolParams", "Separations", "PreparedStateReport", "HomodyneWindow",
    "source_state", "separations", "interfere", "ideal_cat",
    "vacuum_coefficient", "cat_coefficient", "coefficient_ratio",
    "coefficient_ratio_small_angle", "coefficient_ratio_second_order",
    "vacuum_null_alpha", "vacuum_null_alpha_approx",
    "conditional_state", "homodyne_density", "report", "window_metrics",
]


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
            raise ValueError("parameters must be finite")
        if a < 0:
            raise ValueError(f"alpha0 must be >= 0, got {a}")
        if not math.isfinite(a * a):
            raise ValueError(f"alpha0 = {a:g} is too large: alpha0^2 overflows")
        object.__setattr__(self, "alpha0", a)
        object.__setattr__(self, "phi", canonical_phi(p))


def canonical_phi(phi):
    """The phase separation folded into [0, pi] (even and 2 pi periodic)."""
    p = math.fmod(abs(phi), 2.0 * math.pi)
    return 2.0 * math.pi - p if p > math.pi else p


@dataclass(frozen=True)
class Separations:
    """Input separation d0 of each source and output separation d of the cat."""

    d0: float
    d: float


@dataclass(frozen=True)
class PreparedStateReport:
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


def _source_amplitudes(p):
    # magnitude alpha0, phases pi/2 +- phi/2: both components sit on the
    # imaginary axis for phi -> 0
    return (1j * p.alpha0 * cmath.exp(0.5j * p.phi),
            1j * p.alpha0 * cmath.exp(-0.5j * p.phi))


def source_state(p):
    """Normalized symmetric superposition emitted by each source."""
    a_plus, a_minus = _source_amplitudes(p)
    return CoherentSuperposition.from_terms(
        [(1.0, a_plus), (1.0, a_minus)]).normalize()


def separations(p):
    """Separations d0 = 2 alpha0 sin(phi/2) of each source and d = sqrt2 d0."""
    d0 = 2.0 * p.alpha0 * math.sin(0.5 * p.phi)
    return Separations(d0, SQRT2 * d0)


def interfere(p):
    """Normalized two-mode state after the balanced beam splitter.

    Built from the raw product expansion of two copies of the normalized
    source, with no further Gram sum: the product's Gram matrix is the
    Kronecker square of the source's, so its norm is the square of the
    source's, 1.  Nor is it coalesced: two product terms share both
    amplitudes only if they pair the same source terms, and the coalesced
    source amplitudes lie more than COALESCE_TOL apart.  The beam splitter
    preserves the Gram norm term by term and carries the normalized flag.
    """
    src = source_state(p)
    product = TwoModeSuperposition(
        tuple((wi * wj, ai, aj) for wi, ai in src.terms for wj, aj in src.terms),
        True)
    return beam_splitter_50_50(product)


def ideal_cat(p, require_cat=False):
    """Normalized target superposition of |s> and |-s>, s = sqrt2 alpha0 sin(phi/2).

    Degenerate parameters (s coalescing with 0) give the vacuum; with
    require_cat=True that case raises DegenerateState instead.
    """
    s = separations(p).d / 2
    cat = CoherentSuperposition.from_terms([(1.0, s), (1.0, -s)]).normalize()
    if require_cat and len(cat.terms) < 2:
        raise DegenerateState(
            f"separation {2 * s:.3e} too small to form a cat")
    return cat


def vacuum_coefficient(p, x=0.0):
    """Projection coefficient of the vacuum branch, <x|a+> + <x|a->.

    The branch amplitudes sqrt2 i alpha0 e^{+-i phi/2} are the beam-splitter
    images of the aligned source pairs.
    """
    a_plus, a_minus = _source_amplitudes(p)
    return (quadrature_overlap(x, SQRT2 * a_plus)
            + quadrature_overlap(x, SQRT2 * a_minus))


def cat_coefficient(p, x=0.0):
    """Projection coefficient shared by both cat branches.

    The measured-mode amplitude sqrt2 i alpha0 cos(phi/2) is purely imaginary,
    so at x = 0 this is pi^(-1/4) for every (alpha0, phi).
    """
    c = SQRT2 * 1j * p.alpha0 * math.cos(0.5 * p.phi)
    return quadrature_overlap(x, c)


def coefficient_ratio(p):
    """|vacuum_coefficient| / |cat_coefficient| at x = 0, in closed form:

        2 exp(-2 alpha0^2 sin^2(phi/2)) |cos(alpha0^2 sin phi)|,

    the exponent alpha0^2 (1 - cos phi) in a form that does not cancel.
    """
    a2 = p.alpha0 * p.alpha0
    half = math.sin(0.5 * p.phi)
    # a2 * half * half first: -2 a2 alone overflows past alpha0 ~ 9.5e153
    return (2.0 * math.exp(-2.0 * (a2 * half * half))
            * abs(math.cos(a2 * math.sin(p.phi))))


def _small_angle_argument(p):
    """alpha0^2 phi, the cosine argument of both small-angle forms."""
    u = p.alpha0 * p.alpha0 * p.phi
    if not math.isfinite(u):
        raise DomainError(
            f"alpha0 = {p.alpha0:g} is too large: alpha0^2 phi overflows")
    return u


def coefficient_ratio_small_angle(p):
    """First order in phi: 2 |cos(alpha0^2 phi)|."""
    return 2.0 * abs(math.cos(_small_angle_argument(p)))


def coefficient_ratio_second_order(p):
    """Second order in phi: exp(-alpha0^2 phi^2 / 2) * 2 |cos(alpha0^2 phi)|.

    In terms of the output separation d = sqrt2 alpha0 phi the damping factor
    is exp(-d^2/4) and the oscillation argument is alpha0 d / sqrt2, so for
    d >= 4 the ratio is bounded by 2 e^-4 regardless of phase.
    """
    a2 = p.alpha0 * p.alpha0
    return (math.exp(-0.5 * a2 * p.phi * p.phi)
            * 2.0 * abs(math.cos(_small_angle_argument(p))))


def check_null_phi(phi):
    """Raise DomainError unless 0 < phi < pi, where vacuum nulls exist."""
    if not 0.0 < phi < math.pi:
        raise DomainError(f"phi must lie in (0, pi), got {phi}")


def vacuum_null_alpha_approx(phi):
    """Small-angle location of the first vacuum null: sqrt(pi / (2 phi))."""
    check_null_phi(phi)
    return math.sqrt(math.pi / (2.0 * phi))


def vacuum_null_alpha(phi, k=0):
    """Exact k-th vacuum null: alpha0 = sqrt((pi/2 + k pi) / sin phi)."""
    check_null_phi(phi)
    if k < 0 or k != int(k):
        raise DomainError(f"k must be a non-negative integer, got {k}")
    return math.sqrt((0.5 * math.pi + k * math.pi) / math.sin(phi))


def _conditioned_terms(p, x):
    # kept-mode terms projected on <x|, coalesced (the aligned pairs both keep
    # amplitude 0) and unnormalized; their norm^2 is the density
    projected = [(w * quadrature_overlap(x, a), b)
                 for w, a, b in interfere(p).terms]
    if not any(w for w, _ in projected):
        return None, 0.0  # x so far in the tail that every projection is 0
    kept = CoherentSuperposition.from_terms(projected)
    return kept, superposition_inner(kept, kept).real


def _normalized(kept, dens, x):
    if dens < ZERO_DENSITY:
        raise ZeroProbability(
            f"conditioning density {dens:.3e} at x={x} below floor")
    return kept.normalized_by(dens)


def homodyne_density(p, x):
    """Probability density of measuring X = x on the monitored output.

    Closed form through the Gram matrix of quadrature overlaps; even in x, of
    unit total mass, with Gaussian lobes at sqrt2 Re(a) for the measured-mode
    amplitudes a: at 0 for the crossed source pairs and at +-d0 for the aligned.
    """
    return max(_conditioned_terms(p, x)[1], 0.0)


def conditional_state(p, x=0.0):
    """Normalized state of the kept mode after conditioning on X = x."""
    return _normalized(*_conditioned_terms(p, x), x)


def report(p, x=0.0):
    """Bundle of coefficients, fidelity to the ideal cat, and separations."""
    c_vac = vacuum_coefficient(p, x)
    c_cat = cat_coefficient(p, x)
    kept, dens = _conditioned_terms(p, x)
    cond = _normalized(kept, dens, x)
    fid = abs(superposition_inner(ideal_cat(p), cond)) ** 2
    return PreparedStateReport(
        alpha0=p.alpha0, phi=p.phi, x=x,
        vacuum_coeff=c_vac, cat_coeff=c_cat,
        ratio=abs(c_vac) / abs(c_cat),
        fidelity=fid,
        density_at_x=max(dens, 0.0),
        separations=separations(p))


def _window_pieces(window, centres):
    """Parts of the window within MARGINAL_HALF_RANGE of a marginal lobe centre.

    Every lobe is below exp(-100) beyond that range, so the integrals lose
    nothing and the node count stays bounded however wide the window.
    """
    pieces = []
    for c in sorted(centres):
        lo = max(window.lo, c - MARGINAL_HALF_RANGE)
        hi = min(window.hi, c + MARGINAL_HALF_RANGE)
        if pieces and lo <= pieces[-1][1]:
            pieces[-1][1] = max(pieces[-1][1], hi)
        elif lo < hi:
            pieces.append([lo, hi])
    if not pieces:
        raise ZeroProbability(
            f"window [{window.lo:g}, {window.hi:g}] misses the homodyne marginal")
    return pieces


def window_metrics(p, windows):
    """Acceptance probability and cat fidelity for each finite homodyne window.

    The kept mode is mixed, but both are Gram sums.  With Q_ij the integral of
    conj(q_i) q_j, q_j(x) = <x|a_j> over the measured-mode amplitudes, on
    Gauss-Legendre panels of width <= MAX_PANEL_WIDTH, and kept the two-mode
    weights on the kept-mode amplitudes:
        probability = sum_ij K_ij Q_ij with K = gram(kept, kept),
        fidelity = u^H Q u / probability, u = column sums of gram(cat, kept).
    The state, K and u are formed once per call; per window, q is one array
    over nodes and terms, built with quadrature_overlap's operations in its
    order (numpy's complex exp is libm's cexp), so every entry equals
    quadrature_overlap(x, a) bit for bit.  Returns one (probability,
    fidelity) pair of floats per window; each fidelity is clamped to [0, 1].
    """
    two = interfere(p)
    kept = CoherentSuperposition(tuple((w, b) for w, _, b in two.terms))
    centres = {SQRT2 * a.real for _, a, _ in two.terms}
    a = np.array([a for _, a, _ in two.terms])
    gram_kept = np.array(gram(kept, kept))
    u = np.array(gram(ideal_cat(p), kept)).sum(axis=0)
    metrics = []
    for window in windows:
        rules = [gauss_legendre(lo, hi)
                 for lo, hi in _window_pieces(window, centres)]
        ws = np.concatenate([w for _, w in rules])
        x = np.concatenate([x for x, _ in rules])[:, None]
        # past alpha0 ~ 1e153 the products overflow to inf as silently as in
        # floats; far from its lobe a term's exp is then exactly 0
        with np.errstate(over="ignore"):
            dx = x - SQRT2 * a.real
            re = -0.5 * dx * dx
            arg = re.astype(complex)
            arg.imag = a.imag * (SQRT2 * x - a.real)
        # quadrature_overlap's guard: 0 below EXP_UNDERFLOW, whatever the phase
        arg[re < EXP_UNDERFLOW] = -np.inf
        q = PI_QUARTER_INV * np.exp(arg)
        quad = (q.conj().T * ws) @ q
        prob = float(np.sum(gram_kept * quad).real)
        if prob < ZERO_DENSITY:
            raise ZeroProbability(f"window probability {prob:.3e} below floor")
        numer = float((u.conj() @ quad @ u).real)
        metrics.append((prob, min(max(numer / prob, 0.0), 1.0)))
    return metrics
