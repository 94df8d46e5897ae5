"""Acceptance gate: one test per release criterion.

Run with `-s` to see the one-line verdict per criterion:

    python3 -m pytest tests/test_acceptance.py -v -s

Each test prints `criterion NN [PASS/FAIL] description (elapsed)` before
asserting, so the verdict line appears even for a failing criterion.

Criterion 05 measures the second-order ratio on the scale of the exact
ratio's envelope 2 exp(-alpha0^2 (1 - cos phi)), not against its value.  A
fixed-order phase expansion displaces each null by about alpha0^2 phi^3 / 6,
so next to a null the exact and approximate cosines cross zero at slightly
different places and the error relative to the value is unbounded however
small phi is; relative to the envelope the truncation error stays below
alpha0^2 (phi - sin phi) plus the damping term, under 0.5% on the grid.
See README, known limitations.
"""

import itertools
import math
import time

import numpy as np

from catforge.crosscheck import oracle_conditioning, oracle_pipeline
from catforge.cv_core import PI_QUARTER_INV
from catforge.fock_oracle import (apply_beam_splitter, bs_head,
                                  project_quadrature, quadrature_eigvec)
from catforge.optimize_sweep import GridSpec, sweep_ratio, window_tradeoff
from catforge.protocol import (ProtocolParams, cat_wigner,
                               coefficient_ratio, coefficient_ratio_second_order,
                               homodyne_density, report, separations,
                               vacuum_null_alpha, vacuum_null_alpha_approx)
from catforge.quadrature import gauss_legendre
from test_fock_oracle import bs_blocks, coherent_source

SQRT2 = math.sqrt(2.0)


def _verdict(num, ok, description, t0):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {description} ({elapsed:.2f}s)")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        p = ProtocolParams(rng.uniform(0.0, 5.0),
                           rng.uniform(0.0, math.pi / 2))
        worst = max(worst, abs(report(p).cat_coeff - PI_QUARTER_INV))
    ok = worst <= 1e-12 and time.perf_counter() - t0 < 1.0
    _verdict(1, ok, "cat-branch coefficient is pi^(-1/4) at x=0 everywhere", t0)


def test_criterion_02():
    t0 = time.perf_counter()
    worst = 0.0
    for phi in (0.05, 0.1, 0.5):
        for alpha0 in (0.5, 1.0, 2.0, 3.0):
            p = ProtocolParams(alpha0, phi)
            c_vac_o, c_cat_o, *_ = oracle_conditioning(p)
            ratio_o = abs(c_vac_o) / abs(c_cat_o)
            worst = max(worst, abs(coefficient_ratio(p) - ratio_o))
    ok = worst <= 1e-8 and time.perf_counter() - t0 < 30.0
    _verdict(2, ok, "closed-form ratio matches the number-basis oracle", t0)


def test_criterion_03():
    t0 = time.perf_counter()
    ok = True
    for k in (0, 1, 2):
        for phi in (0.05, 0.1, 0.3):
            p = ProtocolParams(vacuum_null_alpha(phi, k), phi)
            r = report(p)
            ok = ok and r.ratio <= 1e-12 and r.fidelity >= 1.0 - 1e-10
    _verdict(3, ok, "exact null condition kills the vacuum branch", t0)


def test_criterion_04():
    t0 = time.perf_counter()
    ok = True
    for phi in (0.02, 0.05, 0.1, 0.2):
        exact = vacuum_null_alpha(phi)
        gap = abs(vacuum_null_alpha_approx(phi) - exact) / exact
        ok = ok and gap <= phi * phi / 6.0
    _verdict(4, ok, "small-angle null location is accurate to phi^2/6", t0)


def test_criterion_05():
    t0 = time.perf_counter()
    # clause 1: the second-order form agrees with the exact ratio to 1% of
    # the exact ratio's envelope at every point of alpha0 <= 5, phi <= 0.1
    max_rel = 0.0
    for alpha0 in np.linspace(0.0, 5.0, 501):
        for phi in np.linspace(0.0, 0.1, 101):
            p = ProtocolParams(alpha0, phi)
            envelope = 2.0 * math.exp(-p.alpha0 ** 2 * (1.0 - math.cos(p.phi)))
            dev = abs(coefficient_ratio_second_order(p) - coefficient_ratio(p))
            max_rel = max(max_rel, dev / envelope)
    clause_pointwise = max_rel <= 1e-2
    # clause 2: guaranteed suppression once the nominal separation reaches 4
    rng = np.random.default_rng(105)
    clause_bound = True
    for _ in range(50):
        alpha0 = rng.uniform(3.0, 10.0)
        d = rng.uniform(4.0, 8.0)
        p = ProtocolParams(alpha0, d / (SQRT2 * alpha0))
        clause_bound = clause_bound and (
            coefficient_ratio_second_order(p) <= 2.0 * math.exp(-4.0))
    ok = clause_pointwise and clause_bound
    _verdict(5, ok, "second-order ratio within 1% of the exact envelope "
                    f"(max deviation {max_rel:.2%} of the envelope)", t0)


def test_criterion_06():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    ok = True
    for _ in range(1000):
        p = ProtocolParams(rng.uniform(0.0, 5.0), rng.uniform(0.0, math.pi))
        sep = separations(p)
        ok = ok and sep.d == SQRT2 * sep.d0
    _verdict(6, ok, "output separation is exactly sqrt(2) times the input", t0)


def test_criterion_07():
    t0 = time.perf_counter()
    grid = GridSpec()
    alphas = np.array(grid.alpha0_values())
    phis = grid.phi_values()
    ratios = np.concatenate([block[..., 0] for block in sweep_ratio(grid)])
    cell = alphas[1] - alphas[0]
    missed = 0
    worst_offset = 0.0
    valley_depth = {}
    for j, phi in enumerate(phis):
        if phi <= 0.0:
            continue
        # the exact nulls within the grid, k = 0, 1, ... in turn
        nulls = list(itertools.takewhile(
            lambda a: a <= grid.alpha0_max,
            (vacuum_null_alpha(phi, k) for k in itertools.count())))
        if not nulls:
            continue
        row = ratios[j]
        interior = np.flatnonzero(
            (row[1:-1] <= row[:-2]) & (row[1:-1] <= row[2:])) + 1
        minima = list(interior)
        if row[-1] <= row[-2]:
            minima.append(row.size - 1)
        for k, target in enumerate(nulls):
            if not minima:
                missed += 1
                continue
            i = min(minima, key=lambda m: abs(alphas[m] - target))
            offset = abs(alphas[i] - target) / cell
            worst_offset = max(worst_offset, offset)
            if offset > 1.0:
                missed += 1
            depth = valley_depth.get(k)
            valley_depth[k] = row[i] if depth is None else min(depth, row[i])
    elapsed_ok = time.perf_counter() - t0 < 10.0
    ok = (missed == 0 and worst_offset <= 1.0 and valley_depth
          and all(v <= 1e-3 for v in valley_depth.values()) and elapsed_ok)
    _verdict(7, ok, "sweep valleys trace the null curve within one grid cell", t0)


def test_criterion_08():
    t0 = time.perf_counter()
    p = ProtocolParams(math.sqrt(math.pi), math.pi / 6)
    rows = window_tradeoff(p, [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    by_eps = {e: (prob, fid) for e, prob, fid in rows}
    ok = by_eps[1e-4][1] >= 1.0 - 1e-6
    probs = [prob for _, prob, _ in rows]
    ok = ok and probs == sorted(probs) and len(set(probs)) == len(probs)
    narrow = 2.0 * 1e-3 * homodyne_density(p, 0.0)
    ok = ok and abs(by_eps[1e-3][0] - narrow) / narrow <= 1e-2
    ok = ok and time.perf_counter() - t0 < 60.0
    _verdict(8, ok, "finite window trades acceptance against cat fidelity", t0)


def test_criterion_09():
    t0 = time.perf_counter()
    dim = 60
    rng = np.random.default_rng(109)
    worst_map = 0.0
    for _ in range(5):
        x, y, u, v = rng.uniform(-1.2, 1.2, 4)
        src, want = coherent_source((complex(x, y), complex(u, v)), dim)
        out = apply_beam_splitter(src, bs_head(1))
        worst_map = max(worst_map, float(np.linalg.norm(out - want)))
    worst_unitary = 0.0
    for s, mat in enumerate(bs_blocks(dim)):
        dev = float(np.max(np.abs(mat.T @ mat - np.eye(s + 1))))
        worst_unitary = max(worst_unitary, dev)
    out, dim, _ = oracle_pipeline(ProtocolParams(1.0, 0.1))
    xs, ws, _ = gauss_legendre((((-8.0, 8.0),),))
    rows = project_quadrature(out, quadrature_eigvec(xs, dim))
    mass = float(ws @ np.sum(np.abs(rows) ** 2, axis=1))
    ok = (worst_map <= 1e-8 and worst_unitary <= 1e-10
          and abs(mass - 1.0) <= 1e-6 and time.perf_counter() - t0 < 30.0)
    _verdict(9, ok, "number-basis beam splitter is exact and norm preserving", t0)


def test_criterion_10():
    t0 = time.perf_counter()
    ok = True
    for beta in (0.5, 1.0, 2.0):
        w0 = cat_wigner(beta, [0.0], [0.0])[0, 0]
        ok = ok and abs(w0 - 2.0 / math.pi) <= 1e-10
        extent = beta + 5.0
        xs, ws, _ = gauss_legendre((((-extent, extent),),))
        w = cat_wigner(beta, xs, xs)
        mass = float(ws @ w @ ws)
        ok = ok and abs(mass - 1.0) <= 1e-6
    ok = ok and time.perf_counter() - t0 < 10.0
    _verdict(10, ok, "cat Wigner function peaks at 2/pi with unit mass", t0)
