"""Composite Gauss-Legendre rule for every 1D window and marginal integral,
shared by the closed forms (protocol) and the Fock oracle; it has no physics.

gauss_legendre is memoized by its interval table, which callers pass as a
tuple of groups, each a tuple of (a, b) pairs: a parameter scan, or validate
with its two routes at every grid point, repeats the same window edges, so
one rule serves them all.  The cached xs and ws are read-only and the spans
a tuple, so no caller can change an entry.

Memory: an entry holds 16 bytes per node, GL_ORDER nodes per panel of width
at most MAX_PANEL_WIDTH, about 2.6 KB per unit of integrated width.  The
default four-window table of `catforge window` takes 6 KB, a 40-window one
at alpha0 = 6 at most 2.4 MB.  protocol.window_metrics clips each window to
three lobes of width 2 MARGINAL_HALF_RANGE, about 9,600 nodes (154 KB) per
window at most, so the RULE_TABLES entries kept hold at most about 1.2 MB
per window of the longest table among them.  The Fock oracle's and
crosscheck's tables are not clipped; they integrate the caller's windows.
"""

import functools
import math

import numpy as np

# DomainError as config passes it on: the rule imports from config alone
from .config import GL_ORDER, MAX_PANEL_WIDTH, DomainError

# interval tables gauss_legendre keeps; see the module docstring for memory
RULE_TABLES = 8


@functools.cache
def _gl_rule():
    """GL_ORDER-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use and kept: leggauss takes about 0.44 ms a call,
    longer than a whole closed-form window_metrics table of four windows
    (about 0.10 ms, 0.14 ms rebuilding its composite rule; 2-core Xeon, one
    BLAS thread), and it loads enough of numpy's linear algebra to cost
    1.7 MiB of peak memory in runs that never integrate over a window.  The
    composite rules mapped from it are memoized in turn by gauss_legendre,
    keyed by their interval table and read-only like this one, at most
    RULE_TABLES of them (memory bound in the module docstring).
    """
    nodes, weights = np.polynomial.legendre.leggauss(GL_ORDER)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=RULE_TABLES)
def gauss_legendre(groups):
    """Composite GL_ORDER-point nodes and weights over groups of intervals
    (a, b): each interval on the fewest equal panels of width at most
    MAX_PANEL_WIDTH, edged as np.linspace(a, b, panels + 1) bit for bit, and
    every panel mapped from the fixed rule in one pass.  groups is a tuple
    of tuples of pairs, the memo's key (a list raises TypeError).  Returns
    read-only (xs, ws) and a tuple spans, spans[k] the slice of xs and ws
    that group k covers.  An empty table or interval raises DomainError."""
    if not groups:
        raise DomainError("need at least one window, got an empty window list")
    lefts, rights, spans = [], [], []
    for group in groups:
        first = len(lefts)
        for a, b in group:
            if not b > a:
                raise DomainError(f"empty integration range [{a}, {b}]")
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
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws, tuple(spans)
