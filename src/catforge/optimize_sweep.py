"""Parameter exploration: ratio sweeps, optimum locations, window trade-offs.

The swept landscape is the closed-form coefficient ratio; its dark valleys
follow alpha0^2 sin(phi) = pi/2 + k pi exactly, so the sweep doubles as a
visual check of the optimum-condition formulas.
"""

import math
from dataclasses import dataclass

from . import protocol
from .config import BISECTION_MAX_ITER, BISECTION_TOL, GRID_STEP_CAP
from .errors import DomainError, GridTooLarge


@dataclass(frozen=True)
class GridSpec:
    """Inclusive linspace grid, alpha0 on one axis and phi on the other."""

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
        if not self.alpha0_min < self.alpha0_max:
            raise ValueError("empty alpha0 range")
        if not self.phi_min < self.phi_max:
            raise ValueError("empty phi range")

    def alpha0_values(self):
        lo, hi, n = self.alpha0_min, self.alpha0_max, self.alpha0_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    def phi_values(self):
        lo, hi, n = self.phi_min, self.phi_max, self.phi_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


@dataclass(frozen=True)
class SweepRow:
    alpha0: float
    phi: float
    ratio_exact: float
    ratio_o1: float
    ratio_o2: float
    d: float


def sweep_ratio(grid):
    """Evaluate the ratio formulas over the grid, phi-major row order.

    Purely arithmetic and evaluated in a fixed order, so a given GridSpec
    always produces the identical row list.
    """
    rows = []
    for phi in grid.phi_values():
        for alpha0 in grid.alpha0_values():
            p = protocol.ProtocolParams(alpha0, phi)
            rows.append(SweepRow(
                alpha0=alpha0, phi=phi,
                ratio_exact=protocol.coefficient_ratio(p),
                ratio_o1=protocol.coefficient_ratio_small_angle(p),
                ratio_o2=protocol.coefficient_ratio_second_order(p),
                d=protocol.separations(p).d))
    return rows


def zero_count(phi, alpha_max):
    """Number of exact vacuum nulls with alpha0 <= alpha_max at this phi."""
    if not 0.0 < phi < math.pi:
        raise DomainError(f"phi must lie in (0, pi), got {phi}")
    u_max = alpha_max * alpha_max * math.sin(phi)
    if u_max < 0.5 * math.pi:
        return 0
    return int(math.floor((u_max - 0.5 * math.pi) / math.pi)) + 1


def zero_alphas(phi, alpha_max):
    """All exact vacuum-null locations with alpha0 <= alpha_max at this phi."""
    return [protocol.vacuum_null_alpha(phi, k)
            for k in range(zero_count(phi, alpha_max))]


def find_min_alpha(phi, k=0, validate_numeric=False,
                   tol=BISECTION_TOL, max_iter=BISECTION_MAX_ITER):
    """Closed-form k-th optimum alpha0, optionally cross-checked by bisection.

    The bisection brackets the sign change of cos(alpha0^2 sin phi) around
    pi/2 + k pi and must agree with the closed form within tol relative to
    max(1, alpha0): at large k the optimum grows past the point where an
    absolute tol is below one ulp of alpha0.
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
    tol = max(tol, 1e-12) * max(1.0, exact)
    flo = f(lo)
    if flo * f(hi) > 0:
        raise DomainError(f"bisection bracket failed at phi={phi}, k={k}")
    for _ in range(max_iter):
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
    rows = []
    for e in eps:
        prob, fid = protocol.window_metrics(p, protocol.HomodyneWindow(0.0, e))
        rows.append((e, prob, fid))
    return rows
