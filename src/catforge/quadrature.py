"""Composite Gauss-Legendre rule for every 1D window and marginal integral,
shared by the closed forms (protocol) and the Fock oracle; it has no physics."""

import functools
import math

import numpy as np

from .config import GL_ORDER, MAX_PANEL_WIDTH


@functools.cache
def _gl_rule():
    """GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use and kept: leggauss takes about 0.4 ms a call, a
    large share of a closed-form window_metrics call, and it loads enough of
    numpy's linear algebra to cost 1.7 MiB of peak memory in runs that never
    integrate over a window.
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(a, b):
    """Composite GL_ORDER-point nodes/weights on [a, b], on the fewest equal
    panels of width at most MAX_PANEL_WIDTH."""
    if not b > a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    panels = math.ceil((b - a) / MAX_PANEL_WIDTH)
    base_x, base_w = _gl_rule()
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + halves[:, None] * base_x[None, :]).ravel()
    ws = (halves[:, None] * base_w[None, :]).ravel()
    return xs, ws
