"""Parameter exploration: ratio sweeps, optimum locations, window trade-offs.

The swept landscape is the closed-form coefficient ratio; its dark valleys
follow alpha0^2 sin(phi) = pi/2 + k pi exactly, so the sweep doubles as a
visual check of the optimum-condition formulas.  sweep_ratio streams it as
numpy blocks of phi rows, bit for bit equal to the point functions in
protocol: both go through protocol's ratio formulas, the blocks with libm's
exp and cos looped in C through numpy's complex exp.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import protocol
from ._format17 import CHUNK
from .cv_core import SQRT2
from .config import GRID_STEP_CAP, NULL_CHECK_TOL
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
            if not isinstance(steps, (int, np.integer)):
                raise DomainError(f"{axis} axis steps must be an integer, got {steps!r}")
            if steps > GRID_STEP_CAP:
                raise GridTooLarge(
                    f"{axis} axis has {steps} steps, cap is {GRID_STEP_CAP}")
            if steps < 2:
                raise DomainError(f"{axis} axis needs at least 2 steps")
        for name in ("alpha0_min", "alpha0_max", "phi_min", "phi_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not self.alpha0_min < self.alpha0_max:
            raise DomainError("empty alpha0 range")
        if not self.phi_min < self.phi_max:
            raise DomainError("empty phi range")
        if self.alpha0_min < 0:
            raise DomainError(f"alpha0_min must be >= 0, got {self.alpha0_min}")
        # axis values rise with the index, so the last is the largest
        phis = self.phi_values()
        if not math.isfinite(phis[-1]):
            raise DomainError(
                "phi_max - phi_min is too wide: the grid values overflow")
        top = self.alpha0_values()[-1]
        a2 = top * top
        if not math.isfinite(a2):
            raise DomainError(f"alpha0_max = {self.alpha0_max:g} is too large: "
                              "alpha0_max^2 overflows")
        if not math.isfinite(a2 * max(map(protocol.canonical_phi, phis))):
            raise DomainError(f"alpha0_max = {self.alpha0_max:g} is too large: "
                              "alpha0_max^2 phi overflows")

    def alpha0_values(self):
        lo, hi, n = self.alpha0_min, self.alpha0_max, self.alpha0_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

    def phi_values(self):
        lo, hi, n = self.phi_min, self.phi_max, self.phi_steps
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _exp(x):
    # glibc's cexp(x + 0i) has real part exp(x) * 1, libm's exp bit for bit,
    # for x <= 0 (past x = 709 it rescales); numpy loops it in C, while its
    # real np.exp differs from libm by an ulp on a few percent of inputs
    return np.exp(x.astype(complex)).real


def _cos(x):
    # cexp(0 + xi) has real part 1 * cos(x), libm's cos bit for bit
    z = np.zeros(x.shape, complex)
    z.imag = x
    return np.exp(z).real


def sweep_ratio(grid):
    """Yield the ratio landscape in blocks of phi rows, phi-major.

    A block has shape (rows, alpha0_steps, 4): at each of its values of
    grid.phi_values() and each of grid.alpha0_values(), (ratio_exact,
    ratio_o1, ratio_o2, d).  Every element equals, bit for bit,
    coefficient_ratio, coefficient_ratio_small_angle,
    coefficient_ratio_second_order and separations(p).d at
    ProtocolParams(alpha0, phi): the block goes through protocol's ratio
    formulas with libm's exp and cos looped in C.  A block holds at most
    CHUNK values (one pass of _format17.csv_lines) but at least one row,
    and is computed only when asked for: memory does not grow with phi_steps.
    """
    a = np.array(grid.alpha0_values())
    a2 = a * a
    phis = [protocol.canonical_phi(phi) for phi in grid.phi_values()]
    rows = max(1, CHUNK // (4 * a.size))
    for lo in range(0, len(phis), rows):
        chunk = phis[lo:lo + rows]
        phi = np.array(chunk)[:, None]
        half = np.array([math.sin(0.5 * v) for v in chunk])[:, None]
        sin_phi = np.array([math.sin(v) for v in chunk])[:, None]
        block = np.empty((len(phi), a.size, 4))
        # the exponents overflow past alpha0 ~ 1e154 as silently as in floats
        with np.errstate(over="ignore", invalid="ignore"):
            block[..., 0] = protocol._ratio_exact(a2, half, sin_phi, _exp, _cos)
            block[..., 1] = protocol._ratio_small_angle(a2 * phi, _cos)
            block[..., 2] = protocol._ratio_second_order(
                a2, phi, block[..., 1], _exp)
        block[..., 3] = SQRT2 * (2.0 * a * half)
        yield block


def find_min_alpha(phi, k=0, validate_numeric=False):
    """Closed-form k-th optimum alpha0, optionally certified by a sign change.

    cos(u), u = alpha0^2 sin phi, must change sign between alpha0 = exact -+
    tol, tol = NULL_CHECK_TOL max(1, alpha0) (relative at large k, where an
    absolute tol falls below an ulp of alpha0), with u clamped to the k-th
    bracket, within 1 of pi/2 + k pi, which holds no other null: a root lies
    within tol of the closed form.  Past k ~ 1e11 the bracket is the
    narrower interval.  From u = 2^53 on, doubles lie 2 or more apart, wider
    than the bracket's half-width, so a k with pi/2 + k pi >= 2^53 (k above
    about 2.87e15) is refused rather than decided by rounding.
    """
    exact = protocol.vacuum_null_alpha(phi, k)
    if not validate_numeric:
        return exact
    sin_phi, u_star = math.sin(phi), 0.5 * math.pi + k * math.pi
    if u_star >= 2.0 ** 53:
        raise DomainError(
            f"k = {k} is past the sign check's limit: (k + 1/2) pi = "
            f"{u_star:.17g} must lie below 2^53 (k up to about 2.87e15), "
            "past which doubles lie further apart than its bracket of +-1")
    tol = NULL_CHECK_TOL * max(1.0, exact)
    a, b = exact - tol, exact + tol
    # a * (a * sin_phi): b * b overflows for phi near 1e-308
    u_a = max(a * (a * sin_phi), u_star - 1.0)
    u_b = min(b * (b * sin_phi), u_star + 1.0)
    if not (u_a <= u_b and math.cos(u_a) * math.cos(u_b) <= 0.0):
        raise DomainError(f"cos(alpha0^2 sin phi) keeps its sign within {tol:.3g}"
                          f" of the closed form {exact!r} (phi={phi}, k={k})")
    return exact


def window_tradeoff(p, epsilons):
    """Probability/fidelity table over a sorted list of window half-widths.

    Returns rows (epsilon, probability, fidelity); epsilons must strictly
    increase.  HomodyneWindow refuses a half-width that is not finite and
    positive, and window_metrics an empty list.
    """
    eps = list(epsilons)
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise DomainError("window half-widths must be distinct and in "
                          f"increasing order, got {eps}")
    windows = [protocol.HomodyneWindow(0.0, e) for e in eps]
    return [(e, prob, fid) for e, (prob, fid)
            in zip(eps, protocol.window_metrics(p, windows))]
