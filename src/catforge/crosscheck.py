"""Cross-representation validation: closed forms against the Fock oracle.

The analytic route (protocol's closed forms) and the truncated-Fock route
(fock_oracle) compute every conditioning quantity independently; this module
runs both over a parameter grid and reports the worst absolute deviation.
The extraction of the branch coefficients from the oracle state uses only
Fock-side data: the x = 0 row of the density samples is resolved against the
Fock carriers of |0> and |s> + |-s>.  oracle_conditioning hands back numbers
only, each reduced once off one projection on the density samples and the
windows' rule nodes, and crosscheck_point only compares them.  The Fock
route of window metrics, the oracle of protocol.window_metrics, is that
reduction: the windowed density matrix is never formed.  The Hermite rows
at those fixed nodes are built once per process for each power-of-two
size and kept read-only (about 2.8 MB for every size up to the beam
splitter's limit); a point projects on the first dim columns of the
smallest table that has them.
"""

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fock_oracle, protocol
from .cv_core import (SQRT2, HomodyneWindow, coherent_overlap,
                      quadrature_overlap)
from .config import SPLIT_REFUSAL_TOL, ZERO_DENSITY
from .errors import DegenerateState, DomainError, ZeroProbability
from .quadrature import gauss_legendre

GRID_ALPHA0 = (0.5, 1.0, 2.0, 3.0)
GRID_PHI = (0.05, 0.1, 0.5)
# x = 0 first: oracle_conditioning resolves the branches from its row
DENSITY_SAMPLES = (0.0, 0.3, 0.9, 1.7)
_DENSITY_NAMES = tuple(f"density@x={x:g}" for x in DENSITY_SAMPLES)
# split rounding per unit of the cat carrier's tail: 14 ulps at most seen
SPLIT_ROUNDING = 16 * np.finfo(float).eps
WINDOW_EPSILONS = (0.05, 0.2)
WINDOWS = tuple(HomodyneWindow(0.0, eps) for eps in WINDOW_EPSILONS)
_WINDOW_NAMES = tuple((f"window_prob@eps={w.half_width:g}",
                       f"window_fid@eps={w.half_width:g}") for w in WINDOWS)
# the oracle's rule table: the windows as they are, not clipped
_WINDOW_TABLE = tuple(((w.lo, w.hi),) for w in WINDOWS)
# size -> read-only Hermite rows at the oracle's nodes (see _hermite_table)
_TABLES = {}


@dataclass(frozen=True)
class Deviation:
    quantity: str
    alpha0: float
    phi: float
    value: float


def oracle_pipeline(p):
    """Pure-Fock sources through the beam splitter: (out, dim, raw_norm2).

    The beam splitter maps the triangle n + m < dim of the source pair
    src (x) src exactly (fock_oracle's truncation) and leaves zero past it.
    The pair is a sum of coherent pairs |a>|b> with |a| = |b| = alpha0, and
    the total photon number of each is distributed as that of one coherent
    state of amplitude sqrt(|a|^2 + |b|^2) = sqrt2 alpha0, the amplitude the
    truncation is chosen for, so the dropped weight is the tail that
    choose_truncation bounds, and out keeps the rest of the pair's norm.
    raw_norm2 is the squared norm of the unnormalized single-mode source.
    """
    dim = fock_oracle.choose_truncation(SQRT2 * p.alpha0)
    half = complex(math.cos(0.5 * p.phi), math.sin(0.5 * p.phi))
    raw = (fock_oracle.coherent_fock(1j * p.alpha0 * half, dim)
           + fock_oracle.coherent_fock(1j * p.alpha0 * half.conjugate(), dim))
    raw_norm2 = float(np.vdot(raw, raw).real)
    out = fock_oracle.apply_beam_splitter(raw / math.sqrt(raw_norm2))
    return out, dim, raw_norm2


def _hermite_table(dim, xs):
    """Read-only Hermite rows h_n(x), n < size, at DENSITY_SAMPLES and then
    xs, the nodes of the rule of _WINDOW_TABLE: one table per power-of-two
    size >= dim, built on its first use and kept in _TABLES.

    Each step of quadrature_eigvec's recurrence is elementwise or
    sequential in n, so the first dim columns equal the table of dim itself
    bit for bit.  The nodes never change, so the size alone keys a table;
    they are taken from the rule on first use, not at import, so a process
    that never runs the oracle builds nothing.
    """
    size = 1 << (dim - 1).bit_length()
    h = _TABLES.get(size)
    if h is None:
        h = fock_oracle.quadrature_eigvec(
            np.concatenate((DENSITY_SAMPLES, xs)), size)
        h.flags.writeable = False
        _TABLES[size] = h
    return h


def oracle_conditioning(p):
    """Run the full pipeline in Fock space and resolve the branch coefficients.

    Returns (vac_coeff, cat_coeff, densities, fidelity, windows), read off
    one projection of out (of oracle_pipeline) on DENSITY_SAMPLES and the
    windows' rule nodes.  The coefficients are rescaled by the raw source
    norm to compare with the analytic projection coefficients; densities[j]
    is the squared norm of the row at DENSITY_SAMPLES[j]; fidelity is that
    of the x = 0 row, the conditioned vector, to the cat's normalized Fock
    carrier.  windows holds (probability, fidelity) per window of WINDOWS,
    sum_j w_j |v_j|^2 and sum_j w_j |<cat|v_j>|^2 / probability, clamped at
    1, over its rule nodes' rows v_j, with no density matrix formed.
    """
    out, dim, raw_norm2 = oracle_pipeline(p)
    xs, ws, spans = gauss_legendre(_WINDOW_TABLE)
    rows = fock_oracle.project_quadrature(out, _hermite_table(dim, xs))
    flat = rows.view(float)
    dens = np.add.reduce(flat * flat, axis=1)
    # the rule's spans index its nodes, which follow the density samples
    densities, node_dens = np.split(dens, [len(DENSITY_SAMPLES)])
    if densities[0] < ZERO_DENSITY:
        raise ZeroProbability(
            f"quadrature density {densities[0]:.3e} at x=0 below floor")
    v = rows[0]

    s = SQRT2 * p.alpha0 * math.sin(0.5 * p.phi)
    u_cat = fock_oracle.coherent_fock(s, dim) + fock_oracle.coherent_fock(-s, dim)
    tail = u_cat[1:]
    tail_norm2 = float(np.vdot(tail, tail).real)
    tail_norm = math.sqrt(tail_norm2)
    # c_cat divides v's rounding by the tail, whose norm shrinks as s^2; at
    # s = 0 the branches coalesce at the vacuum and v fixes only their sum
    if SPLIT_ROUNDING > SPLIT_REFUSAL_TOL * tail_norm:
        raise DegenerateState(
            f"cannot resolve branch coefficients at separation {2 * s:.3e}: "
            f"the cat's Fock carrier leaves the vacuum by {tail_norm:.3e}, "
            f"too little to split within SPLIT_REFUSAL_TOL = "
            f"{SPLIT_REFUSAL_TOL:g}")
    c_cat = complex(np.vdot(tail, v[1:])) / tail_norm2
    c_vac = complex(v[0]) - c_cat * u_cat[0].real
    cat = u_cat / math.sqrt(tail_norm2 + u_cat[0].real ** 2)
    overlap2 = np.abs(rows @ np.conj(cat)) ** 2
    fidelity = min(float(overlap2[0] / densities[0]), 1.0)
    node_overlap2 = overlap2[len(DENSITY_SAMPLES):]
    windows = []
    for span in spans:
        w = ws[span]
        prob = float(w.dot(node_dens[span]))
        if prob < ZERO_DENSITY:
            raise ZeroProbability(f"window probability {prob:.3e} below floor")
        windows.append((prob, min(float(w.dot(node_overlap2[span])) / prob, 1.0)))
    return c_vac * raw_norm2, c_cat * raw_norm2, densities, fidelity, windows


def window_metrics_analytic(p, window):
    """All-analytic window probability and fidelity via 1D quadrature.

    The coherent-term loop reference of protocol.window_metrics.  Each pair
    of the normalized source terms u (|a+> + |a->) leaves the beam splitter
    as (weight, measured, kept) amplitudes; the windowed density matrix never
    materializes: probability integrates the Gram sum of the conditioned
    (unnormalized) superposition, and the fidelity numerator the squared
    overlap of the ideal cat c (|s> + |-s>), s = d0 / sqrt2, with it.
    """
    xs, ws, _ = gauss_legendre((((window.lo, window.hi),),))
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


def crosscheck_point(p):
    """All analytic-vs-oracle deviations at one parameter point."""
    devs = []

    def add(name, value):
        devs.append(Deviation(name, p.alpha0, p.phi, float(value)))

    c_vac_o, c_cat_o, dens_o, fid_o, windows_o = oracle_conditioning(p)
    r = protocol.report(p)
    add("vacuum_coeff", abs(r.vacuum_coeff - c_vac_o))
    add("cat_coeff", abs(r.cat_coeff - c_cat_o))
    add("ratio", abs(r.ratio - abs(c_vac_o) / abs(c_cat_o)))
    for name, x, dens in zip(_DENSITY_NAMES, DENSITY_SAMPLES, dens_o):
        add(name, abs(protocol.homodyne_density(p, x) - dens))
    add("fidelity", abs(r.fidelity - fid_o))

    for (prob_name, fid_name), (prob_a, fid_a), (prob_o, fid_o) in zip(
            _WINDOW_NAMES, protocol.window_metrics(p, WINDOWS), windows_o):
        add(prob_name, abs(prob_o - prob_a))
        add(fid_name, abs(fid_o - fid_a))
    return devs


def crosscheck_grid(alpha0s=GRID_ALPHA0, phis=GRID_PHI):
    """Run crosscheck_point over the grid; returns (max_dev, worst, all_devs)."""
    all_devs = []
    for phi, alpha0 in itertools.product(phis, alpha0s):
        all_devs.extend(crosscheck_point(protocol.ProtocolParams(alpha0, phi)))
    if not all_devs:
        raise DomainError("the cross-check grid needs at least one alpha0 and one phi")
    worst = max(all_devs, key=lambda d: d.value)
    return worst.value, worst, all_devs
