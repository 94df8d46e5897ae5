"""Tests for the sweep grid, optimum finder, and window trade-off table."""

import math
import sys
from collections import namedtuple

import pytest

import numpy as np

from catforge import protocol
from catforge._format17 import CHUNK
from catforge.config import NULL_CHECK_TOL, ZERO_DENSITY
from catforge.cv_core import HomodyneWindow
from catforge.errors import DomainError, GridTooLarge, ZeroProbability
from catforge.fock_oracle import choose_truncation
from catforge.optimize_sweep import (GridSpec, _cos, _exp, find_min_alpha,
                                     sweep_ratio, window_tradeoff)
from catforge.protocol import (ProtocolParams, coefficient_ratio,
                               coefficient_ratio_second_order,
                               coefficient_ratio_small_angle, separations,
                               vacuum_null_alpha)
from catforge.quadrature import gauss_legendre

SQRT2 = math.sqrt(2.0)

Cell = namedtuple("Cell", "alpha0 phi ratio_exact ratio_o1 ratio_o2 d")


def window_reference(p, window):
    """protocol.window_metrics for one window, node by node: the density and
    squared cat overlap of protocol._kept_mode at each node as a float."""
    d0 = separations(p).d0
    # each piece's rule on its own: the kernel builds the table's in one pass
    ranges = protocol._lobe_ranges(d0)
    rules = [gauss_legendre(((piece,),))[:2]
             for piece in protocol._window_pieces(window, ranges)]
    ws = np.concatenate([w for _, w in rules])
    # two contiguous arrays, as the kernel's: a strided one sums differently
    dens, overlap2 = map(np.array, zip(*[
        protocol._kept_mode(p, x)[:2]
        for x in np.concatenate([x for x, _ in rules]).tolist()]))
    prob = float(ws @ dens)
    if prob < ZERO_DENSITY:
        raise ZeroProbability(f"window probability {prob:.3e} below floor")
    return prob, min(float(ws @ overlap2) / prob, 1.0)


def alpha0_at_dim(dim):
    """An alpha0 whose oracle truncation is dim, inside its band."""
    m_lo, m_hi = (-5.0 + math.sqrt(5.0 + d) for d in (dim - 1, dim))
    alpha0 = 0.5 * (m_lo + m_hi) / SQRT2
    assert choose_truncation(SQRT2 * alpha0) == dim
    return alpha0


def sweep_cells(grid):
    """The blocks sweep_ratio yields, one Cell per grid point, phi-major."""
    rows = np.concatenate(list(sweep_ratio(grid))).tolist()
    return [Cell(alpha0, phi, *values)
            for phi, row in zip(grid.phi_values(), rows)
            for alpha0, values in zip(grid.alpha0_values(), row)]


def libm(f, x):
    """f (math.exp or math.cos) of each element of x, as int64 bit patterns."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).view(np.int64)


class TestGridSpec:
    def test_inclusive_endpoints(self):
        g = GridSpec(alpha0_steps=5, phi_steps=3)
        assert g.alpha0_values()[0] == 0.0
        assert g.alpha0_values()[-1] == 5.0
        assert g.phi_values() == [0.0, 0.1, 0.2]

    def test_rejects_degenerate_axes(self):
        with pytest.raises(DomainError):
            GridSpec(alpha0_steps=1)
        with pytest.raises(DomainError):
            GridSpec(phi_steps=0)
        with pytest.raises(DomainError):
            GridSpec(alpha0_min=2.0, alpha0_max=2.0)
        with pytest.raises(DomainError):
            GridSpec(phi_min=0.3, phi_max=0.1)

    @pytest.mark.parametrize("kwargs, axis", [
        ({"alpha0_steps": 2.5}, "alpha0"),
        ({"phi_steps": math.nan}, "phi"),
        ({"phi_steps": 3.0}, "phi"),
        ({"alpha0_steps": 1e9}, "alpha0"),
    ])
    def test_rejects_step_counts_that_are_not_integers(self, kwargs, axis):
        with pytest.raises(DomainError, match=f"^{axis} axis steps must be an integer"):
            GridSpec(**kwargs)

    def test_accepts_numpy_integer_steps(self):
        g = GridSpec(alpha0_steps=np.int64(5), phi_steps=np.int32(3))
        assert g.alpha0_values() == GridSpec(alpha0_steps=5).alpha0_values()
        with pytest.raises(GridTooLarge):
            GridSpec(phi_steps=np.int64(2002))

    def test_step_cap(self):
        with pytest.raises(GridTooLarge):
            GridSpec(alpha0_steps=5000)
        with pytest.raises(GridTooLarge):
            GridSpec(phi_steps=2002)

    @pytest.mark.parametrize("kwargs, field", [
        ({"phi_max": math.inf}, "phi_max"),
        ({"phi_max": math.nan}, "phi_max"),
        ({"alpha0_min": -math.inf}, "alpha0_min"),
        ({"alpha0_max": math.nan}, "alpha0_max"),
        ({"alpha0_min": -1.0}, "alpha0_min"),
        ({"phi_min": -1.7e308, "phi_max": 1.7e308}, "phi_max - phi_min"),
        ({"phi_min": -1e307, "phi_max": 1e307, "phi_steps": 20},
         "phi_max - phi_min"),
        ({"alpha0_max": 1e200}, "alpha0_max"),
        ({"alpha0_max": 1e308}, "alpha0_max"),
        ({"alpha0_max": 1e154, "phi_max": 3.0}, "alpha0_max"),
    ])
    def test_rejects_what_a_cell_would_reject(self, kwargs, field):
        # each of these grids has a cell where ProtocolParams or a ratio
        # formula raises; the grid must refuse before any row is computed
        with pytest.raises(DomainError, match=field.replace("-", r"\-")):
            GridSpec(**{"alpha0_steps": 3, "phi_steps": 3, **kwargs})


class TestSweep:
    def test_corner_values(self):
        g = GridSpec(alpha0_steps=2, phi_steps=2)
        rows = sweep_cells(g)
        assert [(r.alpha0, r.phi) for r in rows] == [
            (0.0, 0.0), (5.0, 0.0), (0.0, 0.2), (5.0, 0.2)]
        # dark source and aligned source both sit at the ratio ceiling
        assert rows[0].ratio_exact == 2.0
        assert rows[1].ratio_exact == 2.0
        assert rows[2].ratio_exact == 2.0
        p = ProtocolParams(5.0, 0.2)
        assert rows[3].ratio_exact == pytest.approx(
            2.0 * math.exp(-25.0 * (1.0 - math.cos(0.2)))
            * abs(math.cos(25.0 * math.sin(0.2))), abs=1e-15)
        assert rows[3].d == SQRT2 * 2.0 * 5.0 * math.sin(0.1)

    def test_phi_major_order(self):
        g = GridSpec(alpha0_steps=3, phi_steps=3)
        rows = sweep_cells(g)
        assert [r.phi for r in rows[:3]] == [0.0, 0.0, 0.0]
        assert [r.alpha0 for r in rows[:3]] == [0.0, 2.5, 5.0]

    def test_deterministic(self):
        g = GridSpec(alpha0_steps=40, phi_steps=7)
        assert sweep_cells(g) == sweep_cells(g)

    def test_approximations_track_exact_at_small_phi(self):
        g = GridSpec(alpha0_max=2.0, alpha0_steps=20,
                     phi_min=0.001, phi_max=0.02, phi_steps=5)
        for r in sweep_cells(g):
            assert r.ratio_o1 == pytest.approx(r.ratio_exact, abs=2e-3)
            assert r.ratio_o2 == pytest.approx(r.ratio_exact, abs=2e-4)

    @pytest.mark.parametrize("grid", [
        GridSpec(),
        GridSpec(alpha0_steps=57, phi_steps=33, alpha0_max=4.7,
                 phi_min=-0.4, phi_max=3.9),
        GridSpec(alpha0_max=30.0, alpha0_steps=41,
                 phi_min=-7.0, phi_max=13.0, phi_steps=37),
        GridSpec(alpha0_max=1e150, alpha0_steps=11,
                 phi_min=-1e-3, phi_max=3.14, phi_steps=9),
    ], ids=["default", "phi-beyond-pi", "phi-winding", "large-alpha0"])
    def test_rows_equal_the_point_functions(self, grid):
        # exact equality: each block goes through protocol's ratio formulas,
        # as the point functions do, with libm's exp and cos looped in C by
        # numpy's complex exp (glibc's cexp: exp(x + 0i) = exp(x) * 1 and
        # exp(0 + xi) = 1 * cos(x)), so no tolerance is needed
        alphas = grid.alpha0_values()
        phis = grid.phi_values()
        assert alphas[0] == 0.0
        n_rows = 0
        for block in sweep_ratio(grid):
            for exact, o1, o2, d in (row.T for row in block):
                ps = [ProtocolParams(a, phis[n_rows]) for a in alphas]
                assert exact.tolist() == [coefficient_ratio(p) for p in ps]
                assert o1.tolist() == [coefficient_ratio_small_angle(p)
                                       for p in ps]
                assert o2.tolist() == [coefficient_ratio_second_order(p)
                                       for p in ps]
                assert d.tolist() == [separations(p).d for p in ps]
                n_rows += 1
        assert n_rows == grid.phi_steps

    @pytest.mark.parametrize("alpha0_steps, phi_steps", [
        (300, 17),   # 6 rows per block: blocks of 6, 6 and 5
        (1100, 3),   # 4 alpha0_steps > CHUNK // 2: one row per block
        (50, 2),     # the fewest phi rows, in one block
    ], ids=["ragged", "single-row", "two-rows"])
    def test_blocks_hold_every_row_once(self, alpha0_steps, phi_steps):
        grid = GridSpec(alpha0_steps=alpha0_steps, phi_steps=phi_steps,
                        phi_max=3.0)
        rows = max(1, CHUNK // (4 * alpha0_steps))
        blocks = list(sweep_ratio(grid))
        assert [block.shape for block in blocks] == [
            (min(rows, phi_steps - lo), alpha0_steps, 4)
            for lo in range(0, phi_steps, rows)]
        # d at the largest alpha0 rises with phi in [0, pi]: one value per
        # row, in grid order
        top = grid.alpha0_values()[-1]
        assert [row[-1, 3] for block in blocks for row in block] == [
            separations(ProtocolParams(top, phi)).d
            for phi in grid.phi_values()]


class TestLibmHelpers:
    """_exp and _cos equal math.exp and math.cos bit for bit."""

    def test_exp(self):
        rng = np.random.default_rng(18)
        x = np.concatenate([
            -rng.uniform(0.0, 746.0, 400_000),
            # results below the smallest normal, down to 0
            -rng.uniform(708.3, 745.2, 100_000),
            # exponents near 0, down to subnormal ones
            -10.0 ** rng.uniform(-323.0, 0.0, 100_000),
            [-math.inf, -0.0, 0.0, -5e-324, -746.0],
            *(np.nextafter(edge, [-math.inf, math.inf])
              for edge in (-708.3964185322641, -745.1332191019411))])
        assert np.array_equal(_exp(x).view(np.int64), libm(math.exp, x))

    def test_cos(self):
        rng = np.random.default_rng(19)
        dbl_min, dbl_max = sys.float_info.min, sys.float_info.max
        x = np.concatenate([
            # the default and wider sweeps' arguments alpha0^2 sin phi
            rng.uniform(0.0, 1e3, 300_000),
            # arguments up to the sweep's 1e300, subnormal ones included
            10.0 ** rng.uniform(-323.0, 300.0, 150_000),
            -10.0 ** rng.uniform(-323.0, 300.0, 50_000),
            [0.0, -0.0, 5e-324, -5e-324, dbl_min, -dbl_min,
             math.nextafter(dbl_min, 0.0), 1e300, -1e300, dbl_max, -dbl_max,
             0.5 * math.pi, math.pi, 1e22]])
        assert np.array_equal(_cos(x).view(np.int64), libm(math.cos, x))

    def test_block(self):
        # one 2-D block, as sweep_ratio forms it
        rng = np.random.default_rng(20)
        a2 = rng.uniform(0.0, 30.0, (1, 301)) ** 2
        phi = rng.uniform(0.0, math.pi, (7, 1))
        u, v = a2 * phi, -0.5 * a2 * phi * phi
        assert _cos(u).shape == _exp(v).shape == (7, 301)
        assert np.array_equal(_cos(u).view(np.int64).ravel(), libm(math.cos, u))
        assert np.array_equal(_exp(v).view(np.int64).ravel(), libm(math.exp, v))


class TestFindMinAlpha:
    def test_closed_form_path(self):
        assert find_min_alpha(0.1) == vacuum_null_alpha(0.1)
        assert find_min_alpha(0.1, k=3) == vacuum_null_alpha(0.1, k=3)

    def test_bisection_validation_agrees(self):
        got = find_min_alpha(0.1, 0, validate_numeric=True)
        assert got == vacuum_null_alpha(0.1)
        got = find_min_alpha(math.pi / 2, 0, validate_numeric=True)
        assert got == pytest.approx(1.2533141373155003, abs=1e-15)

    def test_higher_orders_validated(self):
        for k in (1, 2):
            got = find_min_alpha(0.3, k, validate_numeric=True)
            assert got == vacuum_null_alpha(0.3, k)

    @pytest.mark.parametrize("k", [10 ** 12, 10 ** 14])
    def test_bracket_narrower_than_the_tolerance(self, k):
        # alpha0^2 sin phi ~ 3e12: exact -+ tol leave the k-th bracket, whose
        # ends then bound the sign change
        assert find_min_alpha(0.1, k, validate_numeric=True) == \
            vacuum_null_alpha(0.1, k)

    @pytest.mark.parametrize("phi, k, shift", [
        *((phi, k, shift) for phi, k in [(0.1, 0), (1.3, 2), (0.3, 1000),
                                         (0.1, 10 ** 12), (1e-300, 0)]
          for shift in (2.0, -2.0)),
        # exact -+ tol miss the k-th bracket, beyond which cos changes sign
        (0.1, 10 ** 13, 4.0), (0.1, 10 ** 13, -4.0)])
    def test_shifted_closed_form_refused(self, monkeypatch, phi, k, shift):
        # a closed form 2 tol off the root has no sign change within tol of it
        exact = vacuum_null_alpha(phi, k)
        monkeypatch.setattr(protocol, "vacuum_null_alpha", lambda phi, k=0:
                            exact + shift * NULL_CHECK_TOL * max(1.0, exact))
        with pytest.raises(DomainError, match="keeps its sign"):
            find_min_alpha(phi, k, validate_numeric=True)
        assert find_min_alpha(phi, k) != exact

    # the largest k with pi/2 + k pi below 2^53, where the ulp of u reaches 2
    K_LIMIT = 2867080569611328

    def test_k_past_2_53_refused(self):
        # the parent's check passed this one by rounding
        phi, k = 1.8218873576655399, 5487525777109650
        with pytest.raises(DomainError, match=r"^k = 5487525777109650 is past"
                                              r" .* below 2\^53"):
            find_min_alpha(phi, k, validate_numeric=True)
        assert find_min_alpha(phi, k) == vacuum_null_alpha(phi, k)

    @pytest.mark.parametrize("phi", [0.1, 1.0, 1.8218873576655399, 3.0])
    def test_limit_of_the_check(self, phi):
        k = self.K_LIMIT
        assert 0.5 * math.pi + k * math.pi < 2.0 ** 53
        assert 0.5 * math.pi + (k + 1) * math.pi >= 2.0 ** 53
        assert find_min_alpha(phi, k, validate_numeric=True) == \
            vacuum_null_alpha(phi, k)
        with pytest.raises(DomainError, match=r"2\^53"):
            find_min_alpha(phi, k + 1, validate_numeric=True)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_min_alpha(0.0)
        with pytest.raises(DomainError):
            find_min_alpha(0.1, k=-2)


class TestWindowTradeoff:
    def test_reference_table(self):
        p = ProtocolParams(math.sqrt(math.pi), math.pi / 6)
        rows = window_tradeoff(p, [1e-4, 1e-2, 0.1, 1.0])
        want = [
            (1e-4, 8.073212456898273e-05, 0.9999999998606075),
            (1e-2, 0.008073079808683149, 0.9999986061114498),
            (0.1, 0.08059967895600116, 0.9998609795290999),
            (1.0, 0.6929001531677695, 0.9892903374783018),
        ]
        for (e, prob, fid), (we, wprob, wfid) in zip(rows, want):
            assert e == we
            assert prob == pytest.approx(wprob, abs=1e-12)
            assert fid == pytest.approx(wfid, abs=1e-12)

    def test_probability_monotone_fidelity_decreasing(self):
        p = ProtocolParams(math.sqrt(math.pi), math.pi / 6)
        rows = window_tradeoff(p, [1e-3, 0.05, 0.3, 0.8])
        probs = [r[1] for r in rows]
        fids = [r[2] for r in rows]
        assert probs == sorted(probs)
        assert fids == sorted(fids, reverse=True)

    def test_input_validation(self):
        # the order is checked here; the list and each half-width where
        # window_metrics and HomodyneWindow check them
        p = ProtocolParams(1.0, 0.2)
        with pytest.raises(DomainError, match="empty window list"):
            window_tradeoff(p, [])
        for eps in ([0.1, 0.1], [0.2, 0.1]):
            with pytest.raises(DomainError, match="increasing order"):
                window_tradeoff(p, eps)
        for eps in ([-0.1, 0.2], [0.0], [0.2, math.inf], [math.nan]):
            with pytest.raises(DomainError, match="finite and positive"):
                window_tradeoff(p, eps)


class TestWindowKernel:
    """The table equals a node-by-node, window-by-window evaluation exactly."""

    EPSILONS = (1e-17, 1e-9, 1e-4, 1e-2, 0.1, 0.35, 1.0, 3.0, 1e3, 1e308)

    # the dark source and the Fock dimensions of the benchmark's window tables
    @pytest.mark.parametrize("alpha0", [0.0, *map(alpha0_at_dim, (37, 50, 68))],
                             ids=["dark", "dim37", "dim50", "dim68"])
    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi])
    def test_table_equals_the_node_loop(self, alpha0, phi):
        p = ProtocolParams(alpha0, phi)
        want = [(e, *window_reference(p, HomodyneWindow(0.0, e)))
                for e in self.EPSILONS]
        assert window_tradeoff(p, self.EPSILONS) == want

    @pytest.mark.parametrize("window", [
        HomodyneWindow(50.0, 0.1),     # misses the marginal
        HomodyneWindow(9.9, 1e-17),    # in a tail, below the density floor
    ], ids=["off-marginal", "below-floor"])
    def test_refused_window_raises_as_the_node_loop(self, window):
        p = ProtocolParams(0.0, 0.0)
        with pytest.raises(ZeroProbability) as want:
            window_reference(p, window)
        with pytest.raises(ZeroProbability) as got:
            protocol.window_metrics(p, [HomodyneWindow(0.0, 0.1), window])
        assert str(got.value) == str(want.value)

    # alpha0 = 15, phi = pi: the lobes at 0 and +-30 lie 30 apart, more than
    # twice MARGINAL_HALF_RANGE, so a window over several of them has
    # disjoint pieces
    FAR_LOBES = ProtocolParams(15.0, math.pi)
    FAR_WINDOWS = [
        (HomodyneWindow(0.0, 0.1), 1),
        (HomodyneWindow(0.0, 35.0), 3),
        (HomodyneWindow(25.0, 10.0), 1),    # off centre: [20, 35]
        (HomodyneWindow(-15.0, 30.0), 2),   # [-40, -20] and [-10, 10]
        (HomodyneWindow(5.0, 1e308), 3),
        (HomodyneWindow(30.0, 1e-3), 1),
    ]

    @pytest.mark.parametrize("window, pieces", FAR_WINDOWS)
    def test_disjoint_pieces_equal_the_node_loop(self, window, pieces):
        p = self.FAR_LOBES
        ranges = protocol._lobe_ranges(30.0)
        assert len(protocol._window_pieces(window, ranges)) == pieces
        want = [window_reference(p, window)]
        assert protocol.window_metrics(p, [window]) == want

    def test_mixed_table_equals_the_node_loop(self):
        # one-, two- and three-piece windows in one table, each a contiguous
        # slice of the one rule
        p = self.FAR_LOBES
        windows = [window for window, _ in self.FAR_WINDOWS]
        want = [window_reference(p, window) for window in windows]
        assert protocol.window_metrics(p, windows) == want

    def test_ill_spaced_lobe_beats_an_earlier_refusal(self):
        # every window's pieces are formed before any window is summed, so a
        # later window reaching a lobe too coarse for the nodes (at +-2e16,
        # where doubles lie 4 apart) raises before an earlier window's
        # probability is found below the floor
        p = ProtocolParams(1e16, math.pi)
        low, coarse = HomodyneWindow(9.5, 1e-3), HomodyneWindow(0.0, 1e17)
        with pytest.raises(ZeroProbability, match="below floor"):
            window_reference(p, low)
        with pytest.raises(DomainError) as want:
            window_reference(p, coarse)
        with pytest.raises(DomainError) as got:
            protocol.window_metrics(p, [low, coarse])
        assert str(got.value) == str(want.value)
