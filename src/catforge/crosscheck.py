"""Cross-representation validation: closed forms against the Fock oracle.

The analytic route (protocol's closed forms) and the truncated-Fock route
(fock_oracle) compute every conditioning quantity independently; this module
runs both over a parameter grid and reports the worst absolute deviation.
The extraction of the branch coefficients from the oracle state uses only
Fock-side data: the x = 0 row of the density samples is resolved against the
Fock carriers of |0> and |s> + |-s>.  The Fock route of finite-window metrics,
fock_oracle.window_metrics, serves here only, as the oracle of
protocol.window_metrics; each takes a table of windows in one rule pass.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock_oracle, protocol
from .cv_core import (SQRT2, HomodyneWindow, coherent_overlap,
                      quadrature_overlap)
from .config import CROSSCHECK_TOL, ZERO_DENSITY
from .errors import DegenerateState, ZeroProbability
from .quadrature import gauss_legendre

GRID_ALPHA0 = (0.5, 1.0, 2.0, 3.0)
GRID_PHI = (0.05, 0.1, 0.5)
# x = 0 first: oracle_conditioning resolves the branches from its row
DENSITY_SAMPLES = (0.0, 0.3, 0.9, 1.7)
# split rounding per unit of the cat carrier's tail: 14 ulps at most seen
SPLIT_ROUNDING = 16 * np.finfo(float).eps
WINDOW_EPSILONS = (0.05, 0.2)


@dataclass(frozen=True)
class Deviation:
    quantity: str
    alpha0: float
    phi: float
    value: float


def oracle_pipeline(p, cap=None):
    """Pure-Fock sources through the beam splitter: (out, dim, raw_norm2).

    The source pair is truncated by total photon number: src (x) src is kept
    on the triangle n + m < dim and zeroed elsewhere.  It is a sum of
    coherent pairs |a>|b> with |a| = |b| = alpha0, and the total photon
    number of each is distributed as that of one coherent state of
    amplitude sqrt(|a|^2 + |b|^2) = sqrt2 alpha0, the amplitude the
    truncation is chosen for, so the dropped weight is the tail that
    choose_truncation bounds.  The beam splitter conserves total photon
    number and is exactly unitary on the triangle, so out, the two-mode
    output, is the exact image of the kept source: zero on n + m >= dim,
    with the squared norm of the kept part of the normalized source pair.
    raw_norm2 is the squared norm of the unnormalized single-mode source
    vector.
    """
    dim = fock_oracle.choose_truncation(SQRT2 * p.alpha0, cap)
    half = complex(math.cos(0.5 * p.phi), math.sin(0.5 * p.phi))
    raw = (fock_oracle.coherent_fock(1j * p.alpha0 * half, dim)
           + fock_oracle.coherent_fock(1j * p.alpha0 * half.conjugate(), dim))
    raw_norm2 = float(np.vdot(raw, raw).real)
    src = raw / math.sqrt(raw_norm2)
    pair = np.outer(src, src)
    for n in range(1, dim):
        pair[n, dim - n:] = 0.0  # m >= dim - n
    out = fock_oracle.apply_beam_splitter(pair)
    return out, dim, raw_norm2


def oracle_conditioning(p, cap=None):
    """Run the full pipeline in Fock space and resolve the branch coefficients.

    Returns (vac_coeff, cat_coeff, samples, out, cat): samples[j] is out
    projected on <x| at DENSITY_SAMPLES[j], and samples[0] the conditioned
    vector; the coefficients are rescaled by the raw (unnormalized) source
    norm so they are directly comparable to the analytic projection
    coefficients; out is the oracle_pipeline output and cat the normalized
    Fock carrier of the cat, the oracle's fidelity target.
    """
    out, dim, raw_norm2 = oracle_pipeline(p, cap)
    samples = fock_oracle.project_quadrature(out, DENSITY_SAMPLES)
    v = samples[0]
    dens = float(np.vdot(v, v).real)
    if dens < ZERO_DENSITY:
        raise ZeroProbability(f"quadrature density {dens:.3e} at x=0 below floor")

    s = SQRT2 * p.alpha0 * math.sin(0.5 * p.phi)
    u_cat = fock_oracle.coherent_fock(s, dim) + fock_oracle.coherent_fock(-s, dim)
    tail = u_cat[1:]
    tail_norm2 = float(np.vdot(tail, tail).real)
    tail_norm = math.sqrt(tail_norm2)
    # c_cat divides v's rounding by the tail, whose norm shrinks as s^2; at
    # s = 0 the branches coalesce at the vacuum and v fixes only their sum
    if SPLIT_ROUNDING > CROSSCHECK_TOL * tail_norm:
        raise DegenerateState(
            f"cannot resolve branch coefficients at separation {2 * s:.3e}: "
            f"the cat's Fock carrier leaves the vacuum by {tail_norm:.3e}, "
            f"too little to split within {CROSSCHECK_TOL:g}")
    c_cat = complex(np.vdot(tail, v[1:])) / tail_norm2
    c_vac = complex(v[0]) - c_cat * u_cat[0].real
    return (c_vac * raw_norm2, c_cat * raw_norm2, samples, out,
            u_cat / np.linalg.norm(u_cat))


def window_metrics_analytic(p, window):
    """All-analytic window probability and fidelity via 1D quadrature.

    The coherent-term loop reference of protocol.window_metrics.  Each pair
    of the normalized source terms u (|a+> + |a->) leaves the beam splitter
    as (weight, measured, kept) amplitudes; the windowed density matrix never
    materializes: probability integrates the Gram sum of the conditioned
    (unnormalized) superposition, and the fidelity numerator the squared
    overlap of the ideal cat c (|s> + |-s>), s = d0 / sqrt2, with it.
    """
    xs, ws, _ = gauss_legendre([[(window.lo, window.hi)]])
    a_plus, a_minus = (1j * p.alpha0 * cmath.exp(t * p.phi) for t in (0.5j, -0.5j))
    u = 1.0 / math.sqrt(2.0 + 2.0 * coherent_overlap(a_plus, a_minus).real)
    src = [(u, a_plus), (u, a_minus)]
    two = [(wi * wj, (ai + aj) / SQRT2, (ai - aj) / SQRT2)
           for wi, ai in src for wj, aj in src]
    s = protocol.separations(p).d0 / SQRT2
    c = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * s * s))
    cat = [(c, s), (c, -s)]
    prob = 0.0
    numer = 0.0
    for x, w in zip(xs, ws):
        terms = [(wt * quadrature_overlap(x, a), b) for wt, a, b in two]
        dens = 0.0
        for wi, bi in terms:
            for wj, bj in terms:
                dens += (wi.conjugate() * wj * coherent_overlap(bi, bj)).real
        overlap = 0j
        for wc, ac in cat:
            for wj, bj in terms:
                overlap += wc * wj * coherent_overlap(ac, bj)
        prob += w * dens
        numer += w * abs(overlap) ** 2
    return prob, numer / prob


def crosscheck_point(p, cap=None):
    """All analytic-vs-oracle deviations at one parameter point."""
    devs = []

    def add(name, value):
        devs.append(Deviation(name, p.alpha0, p.phi, float(value)))

    c_vac_o, c_cat_o, samples, out, cat = oracle_conditioning(p, cap)
    r = protocol.report(p)
    add("vacuum_coeff", abs(r.vacuum_coeff - c_vac_o))
    add("cat_coeff", abs(r.cat_coeff - c_cat_o))
    add("ratio", abs(r.ratio - abs(c_vac_o) / abs(c_cat_o)))

    dens_o = np.sum(np.abs(samples) ** 2, axis=1)
    for x, dens in zip(DENSITY_SAMPLES, dens_o):
        add(f"density@x={x:g}", abs(protocol.homodyne_density(p, x) - dens))

    fid_o = min(abs(np.vdot(cat, samples[0])) ** 2 / dens_o[0], 1.0)
    add("fidelity", abs(r.fidelity - fid_o))

    windows = [HomodyneWindow(0.0, eps) for eps in WINDOW_EPSILONS]
    windows_o = fock_oracle.window_metrics(out, windows, cat)
    for w, (prob_a, fid_a), (prob_o, fid_o) in zip(
            windows, protocol.window_metrics(p, windows), windows_o):
        add(f"window_prob@eps={w.half_width:g}", abs(prob_o - prob_a))
        add(f"window_fid@eps={w.half_width:g}", abs(fid_o - fid_a))
    return devs


def crosscheck_grid(alpha0s=GRID_ALPHA0, phis=GRID_PHI, cap=None):
    """Run crosscheck_point over the grid; returns (max_dev, worst, all_devs)."""
    all_devs = []
    for phi in phis:
        for alpha0 in alpha0s:
            p = protocol.ProtocolParams(alpha0, phi)
            all_devs.extend(crosscheck_point(p, cap))
    worst = max(all_devs, key=lambda d: d.value)
    return worst.value, worst, all_devs
