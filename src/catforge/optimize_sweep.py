"""Parameter exploration: ratio sweeps, optimum locations, window trade-offs.

The swept landscape is the closed-form coefficient ratio; its dark valleys
follow alpha0^2 sin(phi) = pi/2 + k pi exactly, so the sweep doubles as a
visual check of the optimum-condition formulas.  sweep_ratio streams it as
numpy rows, bit for bit equal to the point functions in protocol.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import protocol
from .cv_core import SQRT2
from .config import BISECTION_MAX_ITER, BISECTION_TOL, GRID_STEP_CAP
from .errors import DomainError, GridTooLarge


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linspace grid, alpha0 on one axis and phi on the other.

    Refuses any grid with a cell that ProtocolParams or a ratio would refuse.
    """

    alpha0_min: float = 0.0
    alpha0_max: float = 5.0
    alpha0_steps: int = 500
    phi_min: float = 0.0
    phi_max: float = 0.2
    phi_steps: int = 500

    def __post_init__(self):
        for steps, axis in ((self.alpha0_steps, "alpha0"), (self.phi_steps, "phi")):
            if steps > GRID_STEP_CAP:
                raise GridTooLarge(
                    f"{axis} axis has {steps} steps, cap is {GRID_STEP_CAP}")
            if steps < 2:
                raise ValueError(f"{axis} axis needs at least 2 steps")
        for name in ("alpha0_min", "alpha0_max", "phi_min", "phi_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.alpha0_min < self.alpha0_max:
            raise ValueError("empty alpha0 range")
        if not self.phi_min < self.phi_max:
            raise ValueError("empty phi range")
        if self.alpha0_min < 0:
            raise ValueError(f"alpha0_min must be >= 0, got {self.alpha0_min}")
        # axis values rise with the index, so the last is the largest
        phis = self.phi_values()
        if not math.isfinite(phis[-1]):
            raise ValueError(
                "phi_max - phi_min is too wide: the grid values overflow")
        top = self.alpha0_values()[-1]
        a2 = top * top
        if not math.isfinite(a2):
            raise ValueError(f"alpha0_max = {self.alpha0_max:g} is too large: "
                             "alpha0_max^2 overflows")
        if not math.isfinite(a2 * max(map(protocol.canonical_phi, phis))):
            raise ValueError(f"alpha0_max = {self.alpha0_max:g} is too large: "
                             "alpha0_max^2 phi overflows")

    def alpha0_values(self):
        lo, hi, n = self.alpha0_min, self.alpha0_max, self.alpha0_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    def phi_values(self):
        lo, hi, n = self.phi_min, self.phi_max, self.phi_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _libm(f, x):
    # math.exp and math.cos, as the point functions call them; numpy's own
    # differ from libm by an ulp on a few percent of inputs
    return np.fromiter(map(f, x.tolist()), float, x.size)


def sweep_ratio(grid):
    """Yield the ratio landscape one phi row at a time, phi-major.

    Each row is (ratio_exact, ratio_o1, ratio_o2, d): four float arrays over
    grid.alpha0_values() at one value of grid.phi_values().  Every element
    equals, bit for bit, coefficient_ratio, coefficient_ratio_small_angle,
    coefficient_ratio_second_order and separations(p).d at
    ProtocolParams(alpha0, phi): the arrays repeat those functions'
    operations in their order, with exp and cos taken from libm.  A row is
    computed only when asked for, so memory does not grow with phi_steps.
    """
    a = np.array(grid.alpha0_values())
    a2 = a * a
    for phi in map(protocol.canonical_phi, grid.phi_values()):
        half = math.sin(0.5 * phi)
        # the exponents overflow past alpha0 ~ 1e154 as silently as in floats
        with np.errstate(over="ignore", invalid="ignore"):
            exact = (2.0 * _libm(math.exp, -2.0 * (a2 * half * half))
                     * np.abs(_libm(math.cos, a2 * math.sin(phi))))
            o1 = 2.0 * np.abs(_libm(math.cos, a2 * phi))
            o2 = _libm(math.exp, -0.5 * a2 * phi * phi) * o1
        yield exact, o1, o2, SQRT2 * (2.0 * a * half)


def zero_count(phi, alpha_max):
    """Number of exact vacuum nulls with alpha0 <= alpha_max at this phi."""
    protocol.check_null_phi(phi)
    u_max = alpha_max * alpha_max * math.sin(phi)
    if u_max < 0.5 * math.pi:
        return 0
    return int(math.floor((u_max - 0.5 * math.pi) / math.pi)) + 1


def zero_alphas(phi, alpha_max):
    """All exact vacuum-null locations with alpha0 <= alpha_max at this phi."""
    return [protocol.vacuum_null_alpha(phi, k)
            for k in range(zero_count(phi, alpha_max))]


def find_min_alpha(phi, k=0, validate_numeric=False):
    """Closed-form k-th optimum alpha0, optionally cross-checked by bisection.

    The bisection brackets the sign change of cos(alpha0^2 sin phi) around
    pi/2 + k pi and must agree with the closed form within BISECTION_TOL
    relative to max(1, alpha0): at large k the optimum grows past the point
    where an absolute tolerance is below one ulp of alpha0.
    """
    exact = protocol.vacuum_null_alpha(phi, k)
    if not validate_numeric:
        return exact
    sin_phi = math.sin(phi)
    u_star = 0.5 * math.pi + k * math.pi

    def f(a):
        return math.cos(a * a * sin_phi)

    lo = math.sqrt((u_star - 1.0) / sin_phi)
    hi = math.sqrt((u_star + 1.0) / sin_phi)
    tol = BISECTION_TOL * max(1.0, exact)
    flo = f(lo)
    if flo * f(hi) > 0:
        raise DomainError(f"bisection bracket failed at phi={phi}, k={k}")
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            break
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(mid)
    numeric = 0.5 * (lo + hi)
    if abs(numeric - exact) > tol:
        raise DomainError(
            f"bisection {numeric!r} disagrees with closed form {exact!r}")
    return exact


def window_tradeoff(p, epsilons):
    """Probability/fidelity table over a sorted list of window half-widths.

    Returns rows (epsilon, probability, fidelity); epsilons must be positive
    and strictly increasing.
    """
    eps = list(epsilons)
    if not eps:
        raise ValueError("need at least one window half-width")
    if any(e <= 0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("epsilons must be positive and strictly increasing")
    windows = [protocol.HomodyneWindow(0.0, e) for e in eps]
    return [(e, prob, fid) for e, (prob, fid)
            in zip(eps, protocol.window_metrics(p, windows))]
