"""Composite Gauss-Legendre rule for every 1D window and marginal integral,
shared by the closed forms (protocol) and the Fock oracle; it has no physics.
It holds its own order and panel width, and imports only errors.

The base rule is a literal table of its positive half, whose size is
GL_ORDER: the nodes and weights of numpy 2.4.6's leggauss(16), bit for bit,
so no eigenvalue solve is run for it, and on numpy 2, where numpy's
submodules load lazily, no run imports numpy.polynomial.  The nodes lie
within 0.32 ulp of the exact rule.  leggauss forms the weights from the
eigensolver's roots before its Newton step, so they lie up to 63 ulps
(7e-15 relative) from the exact weights, an error both routes share.
Correctly rounded weights would move the last bits of every window output.

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
per window of the longest table among them.  crosscheck's tables, for
both its window routes, are not clipped; they integrate the windows given.
"""

import functools
import math

import numpy as np

from .errors import DomainError

# interval tables gauss_legendre keeps; see the module docstring for memory
RULE_TABLES = 8

# the positive half of the base rule, ascending (see the module docstring)
_HALF_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499)
_HALF_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176)

# the base rule on [-1, 1], the table mirrored: nodes ascending and odd,
# weights even, read-only
_NODES = np.concatenate((-np.array(_HALF_NODES[::-1]), _HALF_NODES))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False

# the composite rule: the table's order on panels at most this wide
GL_ORDER, MAX_PANEL_WIDTH = _NODES.size, 0.1


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
    xs = (0.5 * (right + left)[:, None] + halves[:, None] * _NODES).ravel()
    ws = (halves[:, None] * _WEIGHTS).ravel()
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws, tuple(spans)
