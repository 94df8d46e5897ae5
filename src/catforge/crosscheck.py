"""Cross-representation validation: closed forms against the Fock oracle.

The analytic route (cv_core + protocol) and the truncated-Fock route
(fock_oracle) compute every conditioning quantity independently; this module
runs both over a parameter grid and reports the worst absolute deviation.
The extraction of the branch coefficients from the oracle state uses only
Fock-side data: the conditioned vector is resolved against the Fock carriers
of |0> and |s> + |-s>.  The Fock route of finite-window metrics,
fock_oracle.window_metrics, serves here only, as the oracle of
protocol.window_metrics; both take their nodes from the one quadrature rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock_oracle, protocol
from .cv_core import (SQRT2, HomodyneWindow, coherent_overlap,
                      quadrature_overlap)
from .errors import DegenerateState
from .quadrature import gauss_legendre

GRID_ALPHA0 = (0.5, 1.0, 2.0, 3.0)
GRID_PHI = (0.05, 0.1, 0.5)
DENSITY_SAMPLES = (0.0, 0.3, 0.9, 1.7)
WINDOW_EPSILONS = (0.05, 0.2)


@dataclass(frozen=True)
class Deviation:
    quantity: str
    alpha0: float
    phi: float
    value: float


def oracle_pipeline(p, cap=None):
    """Pure-Fock sources through the beam splitter: (out, dim, raw_norm2).

    out is the normalized two-mode output; raw_norm2 the squared norm of the
    unnormalized source vector.
    """
    dim = fock_oracle.choose_truncation(SQRT2 * p.alpha0, cap)
    half = complex(math.cos(0.5 * p.phi), math.sin(0.5 * p.phi))
    raw = (fock_oracle.coherent_fock(1j * p.alpha0 * half, dim)
           + fock_oracle.coherent_fock(1j * p.alpha0 * half.conjugate(), dim))
    raw_norm2 = float(np.vdot(raw, raw).real)
    src = raw / math.sqrt(raw_norm2)
    out = fock_oracle.apply_beam_splitter(fock_oracle.product_state(src, src))
    return out, dim, raw_norm2


def _cat_fock(p, dim):
    """Half-separation s and the unnormalized Fock carrier of |s> + |-s>."""
    s = SQRT2 * p.alpha0 * math.sin(0.5 * p.phi)
    return s, fock_oracle.coherent_fock(s, dim) + fock_oracle.coherent_fock(-s, dim)


def oracle_conditioning(p, cap=None):
    """Run the full pipeline in Fock space and resolve the branch coefficients.

    Returns (vac_coeff, cat_coeff, ratio, density_at_0, cond_vector, out, dim):
    the coefficients are rescaled by the raw (unnormalized) source norm so they
    are directly comparable to the analytic projection coefficients.
    """
    out, dim, raw_norm2 = oracle_pipeline(p, cap)
    v, dens = fock_oracle.project_quadrature(out, 0.0)

    s, u_cat = _cat_fock(p, dim)
    tail = u_cat[1:]
    tail_norm2 = float(np.vdot(tail, tail).real)
    if tail_norm2 == 0.0:
        # all branches coalesce at the vacuum, so v determines only the sum
        # of the coefficients and the split is not recoverable from Fock data
        raise DegenerateState(
            f"cannot resolve branch coefficients at separation {2 * s:.3e}")
    c_cat = complex(np.vdot(tail, v[1:])) / tail_norm2
    c_vac = complex(v[0]) - c_cat * u_cat[0].real
    ratio = abs(c_vac) / abs(c_cat)
    return (c_vac * raw_norm2, c_cat * raw_norm2, ratio, dens, v, out, dim)


def oracle_window(p, window, out, dim):
    """Oracle of protocol.window_metrics on the oracle_pipeline output (out, dim):
    the Fock-space window integrals, with the Fock carrier of the cat as
    target."""
    cat = _cat_fock(p, dim)[1]
    return fock_oracle.window_metrics(out, window, cat / np.linalg.norm(cat))


def window_metrics_analytic(p, window):
    """All-analytic window probability and fidelity via 1D quadrature.

    The loop reference of protocol.window_metrics.  The windowed density
    matrix never materializes: probability integrates the closed-form
    marginal, and the fidelity numerator integrates the squared overlap of the
    ideal cat with the conditioned (unnormalized) superposition.
    """
    xs, ws = gauss_legendre(window.lo, window.hi)
    two = protocol.interfere(p)
    cat = protocol.ideal_cat(p)
    prob = 0.0
    numer = 0.0
    for x, w in zip(xs, ws):
        terms = [(wt * quadrature_overlap(x, a), b) for wt, a, b in two.terms]
        dens = 0.0
        for wi, bi in terms:
            for wj, bj in terms:
                dens += (wi.conjugate() * wj * coherent_overlap(bi, bj)).real
        overlap = 0j
        for wc, ac in cat.terms:
            for wj, bj in terms:
                overlap += wc.conjugate() * wj * coherent_overlap(ac, bj)
        prob += w * dens
        numer += w * abs(overlap) ** 2
    return prob, numer / prob


def crosscheck_point(p, cap=None):
    """All analytic-vs-oracle deviations at one parameter point."""
    devs = []

    def add(name, value):
        devs.append(Deviation(name, p.alpha0, p.phi, float(value)))

    c_vac_o, c_cat_o, ratio_o, dens0_o, v, out, dim = oracle_conditioning(p, cap)
    add("vacuum_coeff", abs(protocol.vacuum_coefficient(p) - c_vac_o))
    add("cat_coeff", abs(protocol.cat_coefficient(p) - c_cat_o))
    add("ratio", abs(protocol.coefficient_ratio(p) - ratio_o))

    for x in DENSITY_SAMPLES:
        _, dens = fock_oracle.project_quadrature(out, x)
        add(f"density@x={x:g}", abs(protocol.homodyne_density(p, x) - dens))

    cond_fock = fock_oracle.superposition_fock(protocol.conditional_state(p), dim)
    cond_fock = cond_fock / math.sqrt(float(np.vdot(cond_fock, cond_fock).real))
    add("conditional", 1.0 - fock_oracle.fidelity(v / np.linalg.norm(v), cond_fock))

    for eps in WINDOW_EPSILONS:
        w = HomodyneWindow(0.0, eps)
        prob_o, fid_o = oracle_window(p, w, out, dim)
        prob_a, fid_a = protocol.window_metrics(p, w)
        add(f"window_prob@eps={eps:g}", abs(prob_o - prob_a))
        add(f"window_fid@eps={eps:g}", abs(fid_o - fid_a))
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
