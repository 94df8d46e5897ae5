"""Composite Gauss-Legendre rule for every 1D window and marginal integral,
shared by the closed forms (protocol) and the Fock oracle; it has no physics."""

import functools
import math

import numpy as np

from .config import GL_ORDER, MAX_PANEL_WIDTH


@functools.cache
def _gl_rule():
    """GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use and kept: leggauss takes about 0.44 ms a call,
    longer than a whole closed-form window_metrics table of four windows
    (about 0.12 ms, 0.18 ms with a rule per piece; 2-core Xeon, one BLAS
    thread), and it loads enough of numpy's linear algebra to cost 1.7 MiB
    of peak memory in runs that never integrate over a window.
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(groups):
    """Composite GL_ORDER-point nodes and weights over groups of intervals
    (a, b): each interval on the fewest equal panels of width at most
    MAX_PANEL_WIDTH, edged as np.linspace(a, b, panels + 1) bit for bit, and
    every panel mapped from the fixed rule in one pass.  Returns
    (xs, ws, spans), spans[k] the slice of xs and ws that group k covers."""
    lefts, rights, spans = [], [], []
    for group in groups:
        first = len(lefts)
        for a, b in group:
            if not b > a:
                raise ValueError(f"empty integration range [{a}, {b}]")
            panels = math.ceil((b - a) / MAX_PANEL_WIDTH)
            step = (b - a) / panels
            edges = [k * step + a for k in range(panels)]
            lefts += edges
            rights += edges[1:]
            rights.append(b)
        spans.append(slice(GL_ORDER * first, GL_ORDER * len(lefts)))
    left, right = np.array(lefts), np.array(rights)
    halves = 0.5 * (right - left)
    base_x, base_w = _gl_rule()
    xs = (0.5 * (right + left)[:, None] + halves[:, None] * base_x).ravel()
    ws = (halves[:, None] * base_w).ravel()
    return xs, ws, spans
