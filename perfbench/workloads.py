"""Seeded workloads of the catforge benchmark: inputs, ops and output checks.

Every workload is closed-loop with one client: the next op starts only after
the previous one returned and was checked.  Inputs come in *cycles*, fixed
mixes of op kinds whose sizes are drawn from narrow seeded strata, so a run
of whole cycles costs about the same whatever the seed.  Ops call the
package through module attributes at call time, so the call-site wrappers of
the traced run see them.
"""

import math
import os

from catforge import (cli, config, crosscheck, cv_core, fock_oracle,
                      optimize_sweep, protocol)

SQRT2 = math.sqrt(2.0)
PI_QUARTER_INV = math.pi ** -0.25
WINDOW_EPSILONS = (1e-4, 1e-2, 1e-1, 1.0)  # the CLI default of `catforge window`


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class Op:
    """One timed call and the check of its output (run outside the timing).

    check raises CheckFailed, or returns None or a dict of the output's
    statistics ("bytes_written", "max_deviation") for the traced run.
    """

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _finite(*vals):
    return all(math.isfinite(v) for v in vals)


def alpha0_for_dim(rng, dim):
    """Seeded alpha0 whose oracle truncation (choose_truncation) is exactly dim.

    choose_truncation(m) = ceil(m^2 + 10 m + 20) with m = sqrt2 alpha0, so dim
    is reached for m in (m(dim - 1), m(dim)]; the draw keeps off both ends.
    """
    def m_of(d):
        return -5.0 + math.sqrt(5.0 + d)
    lo, hi = m_of(dim - 1), m_of(dim)
    return (lo + (hi - lo) * rng.uniform(0.05, 0.95)) / SQRT2


# ---------------------------------------------------------------------------
# points: analytic point queries
# ---------------------------------------------------------------------------

def _check_report(r):
    _require(_finite(r.alpha0, r.phi, r.x, r.vacuum_coeff.real,
                     r.vacuum_coeff.imag, r.cat_coeff.real, r.cat_coeff.imag,
                     r.ratio, r.fidelity, r.density_at_x,
                     r.separations.d0, r.separations.d),
             f"non-finite field in report at alpha0={r.alpha0!r}, phi={r.phi!r}")
    if r.x == 0.0:
        p = protocol.ProtocolParams(r.alpha0, r.phi)
        # criterion 01's tolerance: the exponent that cancels analytically
        # keeps a 1-ulp residue at about 0.06% of null points, so exact
        # equality does not hold everywhere
        _require(abs(r.cat_coeff - PI_QUARTER_INV) <= 1e-12,
                 f"cat_coeff {r.cat_coeff!r} != pi^-1/4 at x=0")
        ratio = protocol.coefficient_ratio(p)
        _require(math.isclose(r.ratio, ratio, rel_tol=1e-9, abs_tol=1e-12),
                 f"report ratio {r.ratio!r} != coefficient_ratio {ratio!r}")


def _report_op(rng):
    p = protocol.ProtocolParams(rng.uniform(0.2, 4.0), rng.uniform(1e-3, 3.1))
    x = rng.uniform(-2.0, 2.0)
    return Op("report", lambda: protocol.report(p, x), _check_report)


def _null_op(rng):
    phi = rng.uniform(0.05, 3.1)
    k = rng.randrange(3)

    def run():
        alpha = optimize_sweep.find_min_alpha(phi, k, validate_numeric=True)
        return protocol.report(protocol.ProtocolParams(alpha, phi), 0.0)

    def check(r):
        _check_report(r)
        _require(abs(r.fidelity - 1.0) <= 1e-9,
                 f"fidelity {r.fidelity!r} at the k={k} null of phi={phi!r}")
    return Op("null", run, check)


def _ratio_op(rng):
    p = protocol.ProtocolParams(rng.uniform(0.2, 4.0), rng.uniform(1e-3, 3.1))

    def check(ratio):
        _require(math.isfinite(ratio) and 0.0 <= ratio <= 2.0,
                 f"ratio {ratio!r} outside [0, 2]")
    return Op("ratio", lambda: protocol.coefficient_ratio(p), check)


def points_cycles(rng, out_dir):
    while True:
        cycle = ([_report_op(rng) for _ in range(7)]
                 + [_null_op(rng) for _ in range(2)] + [_ratio_op(rng)])
        rng.shuffle(cycle)
        yield cycle


def points_warm_up(rng, out_dir):
    for cycle, _ in zip(points_cycles(rng, out_dir), range(20)):
        for op in cycle:
            op.check(op.run())


# ---------------------------------------------------------------------------
# landscape: sweep and Wigner grids through the CLI
# ---------------------------------------------------------------------------

# grid sides as (low, high) strata, largest first.  Strata are narrow (cost
# goes as side^2 and the median op sits in the middle ones) and the order is
# fixed, so the peak heap (the largest sweep on a fresh process) and the cost
# of a cycle do not depend on the seed.  The top side is 300, not the CLI
# default 500: a 3 s op cannot be timed steadily on a host whose slow phases
# last seconds, and the per-cell costs are the same
SWEEP_SIDES = ((300, 300), (200, 204), (100, 102), (50, 51))
WIGNER_POINTS = ((301, 301), (201, 205), (101, 103), (51, 53))


def _read_csv(path, header, n_cols):
    with open(path, encoding="ascii", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    _require(lines[0] == header, f"bad CSV header {lines[0]!r}")
    _require(lines[-1] == "", "CSV does not end in a newline")
    rows = lines[1:-1]
    bad = next((r for r in rows if r.count(",") != n_cols - 1), None)
    _require(bad is None, f"bad CSV row {bad!r}")
    for _ in map(float, ",".join(rows).split(",")):
        pass  # float() raises ValueError on a malformed number
    return len(rows), len(text)


def _cli_op(kind, argv, path, header, n_cols, n_rows):
    def run():
        return cli.main(argv + ["--out", path])

    def check(code):
        try:
            _require(code == 0, f"catforge {' '.join(argv)} exited {code}")
            try:
                rows, size = _read_csv(path, header, n_cols)
            except ValueError as exc:
                raise CheckFailed(f"CSV does not parse: {exc}") from None
            _require(rows == n_rows, f"{rows} CSV rows, expected {n_rows}")
            return {"bytes_written": size}
        finally:
            if os.path.exists(path):
                os.remove(path)
    return Op(kind, run, check)


def _sweep_op(rng, side, path):
    argv = ["sweep", "--alpha0-steps", str(side), "--phi-steps", str(side),
            "--alpha0-max", format(rng.uniform(4.0, 6.0), ".6g"),
            "--phi-max", format(rng.uniform(0.15, 0.3), ".6g")]
    return _cli_op("sweep", argv, path,
                   "alpha0,phi,ratio_exact,ratio_o1,ratio_o2,d", 6, side * side)


def _wigner_op(rng, points, path):
    argv = ["wigner", "--alpha0", format(rng.uniform(0.5, 2.5), ".6g"),
            "--phi", format(rng.uniform(0.3, 2.5), ".6g"),
            "--points", str(points)]
    return _cli_op("wigner", argv, path, "x,y,w", 3, points * points)


def landscape_cycles(rng, out_dir):
    path = os.path.join(out_dir, f"landscape-{os.getpid()}.csv")
    while True:
        sweeps = [_sweep_op(rng, rng.randint(lo, hi), path)
                  for lo, hi in SWEEP_SIDES]
        wigners = [_wigner_op(rng, rng.randint(lo, hi), path)
                   for lo, hi in WIGNER_POINTS]
        yield [op for pair in zip(sweeps, wigners) for op in pair]


def landscape_warm_up(rng, out_dir):
    path = os.path.join(out_dir, f"landscape-{os.getpid()}.csv")
    for op in (_sweep_op(rng, 20, path), _wigner_op(rng, 21, path)):
        op.check(op.run())


# ---------------------------------------------------------------------------
# window: finite-window trade-off tables on warm beam-splitter blocks
# ---------------------------------------------------------------------------

WINDOW_DIMS = (37, 50, 68)  # alpha0 about 1.0, 1.7 and 2.5


def _window_op(rng, dim):
    p = protocol.ProtocolParams(alpha0_for_dim(rng, dim), rng.uniform(0.05, 3.1))

    def check(rows):
        _require([e for e, _, _ in rows] == list(WINDOW_EPSILONS),
                 "window table rows do not follow the epsilons")
        for eps, prob, fid in rows:
            _require(0.0 < prob <= 1.0 and 0.0 <= fid <= 1.0,
                     f"probability {prob!r} or fidelity {fid!r} out of range")
            prob_a, fid_a = crosscheck.window_metrics_analytic(
                p, cv_core.HomodyneWindow(0.0, eps))
            _require(abs(prob - prob_a) <= 1e-8 and abs(fid - fid_a) <= 1e-8,
                     f"eps={eps:g} at alpha0={p.alpha0!r}, phi={p.phi!r}: "
                     f"Fock ({prob!r}, {fid!r}) vs analytic ({prob_a!r}, {fid_a!r})")
    return Op(f"window-{dim}",
              lambda: optimize_sweep.window_tradeoff(p, WINDOW_EPSILONS), check)


def window_cycles(rng, out_dir):
    while True:
        cycle = [_window_op(rng, dim) for dim in WINDOW_DIMS]
        rng.shuffle(cycle)
        yield cycle


def window_warm_up(rng, out_dir):
    # builds the beam-splitter blocks of every dimension the ops use
    for op in next(window_cycles(rng, out_dir)):
        op.check(op.run())


# ---------------------------------------------------------------------------
# validate-cold: analytic-vs-oracle crosscheck, each op at a new dimension
# ---------------------------------------------------------------------------

# cycle c uses dimensions 25 + c, 35 + c, ..., 65 + c: the same dimensions for
# every seed (cold cost grows about as dim^4), none reused within a process
COLD_DIM_BASES = (25, 35, 45, 55, 65)
COLD_MAX_CYCLES = 10


def _crosscheck_op(rng, dim):
    p = protocol.ProtocolParams(alpha0_for_dim(rng, dim), rng.uniform(0.05, 3.1))

    def check(devs):
        worst = max(devs, key=lambda d: d.value)
        _require(worst.value <= config.CROSSCHECK_TOL,
                 f"{worst.quantity} deviates by {worst.value:.3e} "
                 f"at alpha0={p.alpha0!r}, phi={p.phi!r}")
        return {"max_deviation": worst.value}
    return Op(f"crosscheck-{dim}", lambda: crosscheck.crosscheck_point(p), check)


def validate_cold_cycles(rng, out_dir):
    for c in range(COLD_MAX_CYCLES):
        cycle = [_crosscheck_op(rng, base + c) for base in COLD_DIM_BASES]
        rng.shuffle(cycle)
        yield cycle


def validate_cold_warm_up(rng, out_dir):
    # alpha0 = 0.2 truncates at dimension 23, below every dimension the ops use
    p = protocol.ProtocolParams(0.2, rng.uniform(0.5, 3.0))
    assert fock_oracle.choose_truncation(SQRT2 * p.alpha0) < COLD_DIM_BASES[0]
    crosscheck.crosscheck_point(p)


class Workload:
    """cycles_per_s: whole cycles per second of op time on the reference
    machine (2-core Xeon, KVM) at the seed commit; the child turns its time
    budget into a fixed cycle count with it, so every commit times the same
    ops."""

    def __init__(self, name, cycles, warm_up, cycles_per_s):
        self.name = name
        self.cycles = cycles
        self.warm_up = warm_up
        self.cycles_per_s = cycles_per_s


WORKLOADS = {w.name: w for w in (
    Workload("points", points_cycles, points_warm_up, 550.0),
    Workload("landscape", landscape_cycles, landscape_warm_up, 0.4),
    Workload("window", window_cycles, window_warm_up, 14.0),
    Workload("validate-cold", validate_cold_cycles, validate_cold_warm_up, 1.4),
)}
