"""Tests for the analytic-vs-Fock validation layer."""

import ast
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from catforge.crosscheck import (DENSITY_SAMPLES, GRID_ALPHA0, GRID_PHI,
                                 WINDOWS, crosscheck_grid, crosscheck_point,
                                 oracle_conditioning, oracle_pipeline,
                                 window_metrics_analytic)
from catforge import crosscheck, fock_oracle, protocol, quadrature
from catforge.config import CROSSCHECK_TOL
from catforge.cv_core import HomodyneWindow
from catforge.errors import DegenerateState, DomainError, ZeroProbability
from catforge.protocol import ProtocolParams, window_metrics


def cat_carrier(p, dim):
    """The normalized Fock carrier of the ideal cat |s> + |-s> that
    oracle_conditioning reads its fidelities at, formed as it forms it, so
    that a comparison tests its reductions alone."""
    s = math.sqrt(2.0) * p.alpha0 * math.sin(0.5 * p.phi)
    u = fock_oracle.coherent_fock(s, dim) + fock_oracle.coherent_fock(-s, dim)
    return u / math.sqrt(np.vdot(u[1:], u[1:]).real + u[0].real ** 2)


class TestOraclePipeline:
    @pytest.mark.parametrize("alpha0, phi", [
        (0.5, 0.05), (1.0, 0.1), (2.0, 0.5), (3.0, 0.5)])
    def test_output_is_the_kept_source_triangle(self, alpha0, phi):
        # the source pair is kept on n + m < dim, where the beam splitter
        # is exactly unitary: nothing leaves the triangle and no norm is lost
        # beyond the blocks' rounding (6.7e-16 at dim 81 here, 4.4e-16 at
        # the odd source's dim 188)
        p = ProtocolParams(alpha0, phi)
        out, dim, raw_norm2 = oracle_pipeline(p)
        half = complex(math.cos(0.5 * phi), math.sin(0.5 * phi))
        raw = (fock_oracle.coherent_fock(1j * alpha0 * half, dim)
               + fock_oracle.coherent_fock(1j * alpha0 * half.conjugate(), dim))
        assert raw_norm2 == float(np.vdot(raw, raw).real)
        weight = np.abs(raw) ** 2 / raw_norm2
        n, m = np.indices(out.shape)
        kept = float(np.sum(np.outer(weight, weight)[n + m < dim]))
        assert not np.any(out[n + m >= dim])
        assert abs(np.vdot(out, out).real - kept) <= 1e-14


class TestOracleConditioning:
    def test_reference_point(self):
        c_vac, c_cat, densities, _, _ = oracle_conditioning(ProtocolParams(1.0, 0.1))
        ratio = abs(c_vac) / abs(c_cat)
        dens = densities[0]
        assert densities.shape == (len(DENSITY_SAMPLES),) and DENSITY_SAMPLES[0] == 0
        assert c_vac == pytest.approx(1.4873220467199977 + 0j, abs=1e-10)
        assert c_cat == pytest.approx(0.7511255444649425 + 0j, abs=1e-10)
        assert ratio == pytest.approx(1.9801244381583083, abs=1e-10)
        assert dens == pytest.approx(0.5627776700410807, abs=1e-10)

    def test_degenerate_split_raises(self):
        with pytest.raises(DegenerateState):
            oracle_conditioning(ProtocolParams(1.0, 0.0))
        with pytest.raises(DegenerateState):
            oracle_conditioning(ProtocolParams(0.0, 0.4))

    @pytest.mark.parametrize("alpha0", [0.5, 1.0, 3.0])
    def test_split_below_the_rounding_raises(self, alpha0):
        # at phi = 1e-4 the cat's carrier leaves the vacuum by about d0^2 /
        # sqrt2 (7e-9 at alpha0 = 1); the split's rounding, about eps over
        # that, puts the ratio off by 1.1e-8 to 8.4e-8 at these points:
        # refused rather than reported as a deviation of the closed forms
        with pytest.raises(DegenerateState, match="separation"):
            oracle_conditioning(ProtocolParams(alpha0, 1e-4))

    def test_smallest_benchmark_separation_is_resolved(self):
        # the validate-cold workload's closest branches: dimension 25 at
        # phi = 0.05, d0 = 0.0136
        p = ProtocolParams(0.272, 0.05)
        assert protocol.separations(p).d0 < 0.0137
        assert max(d.value for d in crosscheck_point(p)) <= 1e-11

    def test_zero_density_at_origin_raises(self, monkeypatch):
        # the conditioned vector is divided by its density: the floor holds
        monkeypatch.setattr(fock_oracle, "project_quadrature",
                            lambda amps, h: np.zeros((len(h), len(amps)), complex))
        with pytest.raises(ZeroProbability, match="x=0"):
            oracle_conditioning(ProtocolParams(1.0, 0.1))

    def test_windows_match_node_loop(self):
        # each window's rows against the windowed density summed node by
        # node, sum_j w_j v_j v_j^H, read at the cat's normalized carrier
        p = ProtocolParams(2.0, 0.3)
        out, dim, _ = oracle_pipeline(p)
        *_, windows = oracle_conditioning(p)
        cat = cat_carrier(p, dim)
        assert len(windows) == len(WINDOWS)
        for window, (prob, fid) in zip(WINDOWS, windows):
            xs, ws, _ = quadrature.gauss_legendre((((window.lo, window.hi),),))
            rho = np.zeros((dim, dim), dtype=complex)
            for x, w in zip(xs, ws):
                v = fock_oracle.quadrature_eigvec(x, dim) @ out
                rho += w * np.outer(v, v.conjugate())
            ref_prob = np.trace(rho).real
            assert abs(prob - ref_prob) <= 1e-14
            assert abs(fid - np.vdot(cat, rho @ cat).real / ref_prob) <= 1e-12

    def test_zero_window_probability_raises(self, monkeypatch):
        # only the x = 0 row is left: the branches split, and the windows,
        # which divide by their probability, refuse at the floor
        project = fock_oracle.project_quadrature

        def x0_only(amps, h):
            rows = project(amps, h)
            rows[1:] = 0.0
            return rows

        monkeypatch.setattr(fock_oracle, "project_quadrature", x0_only)
        with pytest.raises(ZeroProbability, match="window probability"):
            oracle_conditioning(ProtocolParams(1.0, 0.1))

    @pytest.mark.parametrize("phi", GRID_PHI)
    @pytest.mark.parametrize("alpha0", GRID_ALPHA0)
    def test_fidelity_is_the_x0_overlap(self, monkeypatch, alpha0, phi):
        # the x = 0 fidelity off the reductions shared with the windows is
        # |<cat|v>|^2 / |v|^2 of the x = 0 row: 2 ulps at most on the grid
        project = fock_oracle.project_quadrature
        seen = []

        def spy(amps, h):
            seen.append(project(amps, h))
            return seen[-1]

        monkeypatch.setattr(fock_oracle, "project_quadrature", spy)
        p = ProtocolParams(alpha0, phi)
        _, _, _, fid, _ = oracle_conditioning(p)
        [rows] = seen
        v = rows[0]
        cat = cat_carrier(p, len(v))
        want = abs(np.vdot(cat, v)) ** 2 / np.vdot(v, v).real
        assert abs(fid - want) <= 4 * np.spacing(want)


def oracle_nodes():
    """The x values oracle_conditioning projects on: the density samples,
    then the nodes of its windows' rule."""
    xs = quadrature.gauss_legendre(crosscheck._WINDOW_TABLE)[0]
    return np.concatenate((DENSITY_SAMPLES, xs))


def fresh_rows(monkeypatch):
    """Make oracle_conditioning project on Hermite rows computed afresh at
    the state's own dimension, as each point did before the tables."""
    project = fock_oracle.project_quadrature

    def fresh(amps, h):
        assert h is crosscheck._TABLES[h.shape[1]]
        return project(amps, fock_oracle.quadrature_eigvec(oracle_nodes(),
                                                            len(amps)))

    monkeypatch.setattr(fock_oracle, "project_quadrature", fresh)


class TestHermiteTable:
    DIMS = (21, 31, 32, 33, 63, 64, 65, 127, 128, 129, 2048)

    @pytest.mark.parametrize("dim", DIMS)
    def test_rows_are_the_recurrence_at_dim(self, dim):
        nodes = oracle_nodes()
        size = 1 << (dim - 1).bit_length()
        table = crosscheck._hermite_table(dim, nodes[len(DENSITY_SAMPLES):])
        assert table is crosscheck._TABLES[size]
        assert table.shape == (len(nodes), size)
        assert np.array_equal(table[:, :dim],
                              fock_oracle.quadrature_eigvec(nodes, dim))

    @pytest.mark.parametrize("dim", DIMS)
    def test_conditioning_is_the_projection_on_fresh_rows(self, monkeypatch, dim):
        # a dense random product state of each dimension stands in for the
        # beam splitter's output, whose cold build at dim 2048 takes
        # seconds: every column of the table is read
        rng = np.random.default_rng(dim)
        u, w = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        out = np.outer(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
        monkeypatch.setattr(crosscheck, "oracle_pipeline",
                            lambda p: (out, dim, 1.0))
        p = ProtocolParams(1.0, 0.5)
        c_vac, c_cat, dens, fid, windows = oracle_conditioning(p)
        fresh_rows(monkeypatch)
        want = oracle_conditioning(p)
        assert (c_vac, c_cat, fid, windows) == (want[0], want[1], want[3], want[4])
        assert np.array_equal(dens, want[2])

    def test_table_is_read_only(self):
        oracle_conditioning(ProtocolParams(1.0, 0.5))
        table = crosscheck._TABLES[64]
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0

    def test_one_recurrence_per_size(self, monkeypatch):
        # dims 37 and 40 share the table of size 64; dim 25 needs size 32
        monkeypatch.setattr(crosscheck, "_TABLES", {})
        eigvec = fock_oracle.quadrature_eigvec
        sizes = []

        def spy(x, dim):
            sizes.append(dim)
            return eigvec(x, dim)

        monkeypatch.setattr(fock_oracle, "quadrature_eigvec", spy)
        for alpha0, dim in ((1.0, 37), (1.2, 40), (0.3, 25)):
            p = ProtocolParams(alpha0, 0.5)
            assert oracle_pipeline(p)[1] == dim
            oracle_conditioning(p)
        assert sizes == [64, 32]
        assert sorted(crosscheck._TABLES) == [32, 64]

    def test_import_builds_no_table(self):
        # a process that never runs the oracle builds no table and no rule
        src = pathlib.Path(crosscheck.__file__).resolve().parents[1]
        code = ("import catforge.cli, catforge.crosscheck as c; "
                "print(len(c._TABLES), c.gauss_legendre.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              check=False)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0 0\n", "")

    @pytest.mark.parametrize("phi", GRID_PHI)
    @pytest.mark.parametrize("alpha0", GRID_ALPHA0)
    def test_deviations_are_those_of_fresh_rows(self, monkeypatch, alpha0, phi):
        # every deviation of the default grid, bit for bit as the per-point
        # recurrence gave it
        p = ProtocolParams(alpha0, phi)
        got = crosscheck_point(p)
        fresh_rows(monkeypatch)
        assert crosscheck_point(p) == got


class TestPointChecks:
    def test_quantity_coverage(self):
        devs = crosscheck_point(ProtocolParams(0.5, 0.5))
        # the twelve names, in the order validate reports them
        assert [d.quantity for d in devs] == [
            "vacuum_coeff", "cat_coeff", "ratio", "density@x=0",
            "density@x=0.3", "density@x=0.9", "density@x=1.7", "fidelity",
            "window_prob@eps=0.05", "window_fid@eps=0.05",
            "window_prob@eps=0.2", "window_fid@eps=0.2"]
        names = {d.quantity for d in devs}
        assert {"vacuum_coeff", "cat_coeff", "ratio", "fidelity"} <= names
        assert any(n.startswith("density@") for n in names)
        assert any(n.startswith("window_prob@") for n in names)
        assert any(n.startswith("window_fid@") for n in names)
        assert max(d.value for d in devs) <= 1e-10

    def test_window_routes_agree(self):
        p = ProtocolParams(1.5, 0.3)
        w = HomodyneWindow(0.0, 0.2)
        [(prob, fid)] = window_metrics(p, [w])
        # the oracle's windows come with its conditioning, in one projection
        *_, windows_o = oracle_conditioning(p)
        assert WINDOWS[1] == w
        prob_fock, fid_fock = windows_o[1]
        prob_loop, fid_loop = window_metrics_analytic(p, w)
        assert type(prob) is float and type(fid) is float
        assert abs(prob - prob_fock) < 1e-10
        assert abs(fid - fid_fock) < 1e-10
        assert abs(prob - prob_loop) < 1e-13
        assert abs(fid - fid_loop) < 1e-13

    @pytest.mark.parametrize("route", ["closed form", "Fock"])
    def test_window_routes_refuse_an_empty_list(self, route):
        # the Fock route takes its nodes from the same rule, which refuses
        # the empty table before anything is projected
        p = ProtocolParams(1.5, 0.3)
        out, dim, _ = oracle_pipeline(p)
        call = {"closed form": lambda: window_metrics(p, []),
                "Fock": lambda: fock_oracle.project_quadrature(
                    out, fock_oracle.quadrature_eigvec(
                        quadrature.gauss_legendre(())[0], dim))}[route]
        with pytest.raises(DomainError, match="empty window list"):
            call()


class TestOddSource:
    def test_crosscheck_point(self):
        # alpha0^2 sin phi = pi with d0 = 0.5004, at Fock dimension 188: the
        # source norm^2 is 0.235, and the validate grid has no such point
        p = ProtocolParams(2.0 * math.pi, math.asin(1.0 / (4.0 * math.pi)))
        assert abs(protocol.separations(p).d0 - 0.5) < 1e-3
        devs = crosscheck_point(p)
        assert max(d.value for d in devs) <= CROSSCHECK_TOL


class TestGrid:
    @pytest.mark.parametrize("phi", GRID_PHI)
    @pytest.mark.parametrize("alpha0", GRID_ALPHA0)
    def test_analytic_values_are_the_public_calls(self, alpha0, phi):
        # crosscheck_point reads the coefficients, the ratio and the fidelity
        # off one report, and the densities off homodyne_density; each
        # deviation is the one of the separate calls
        p = ProtocolParams(alpha0, phi)
        c_vac_o, c_cat_o, dens_o, fid_o, _ = oracle_conditioning(p)
        r = protocol.report(p)
        want = {
            "vacuum_coeff": abs(r.vacuum_coeff - c_vac_o),
            "cat_coeff": abs(r.cat_coeff - c_cat_o),
            "ratio": abs(protocol.coefficient_ratio(p)
                         - abs(c_vac_o) / abs(c_cat_o)),
            "fidelity": abs(r.fidelity - fid_o)}
        want.update((f"density@x={x:g}",
                     abs(protocol.homodyne_density(p, x) - dens))
                    for x, dens in zip(DENSITY_SAMPLES, dens_o))
        got = {d.quantity: d.value for d in crosscheck_point(p)}
        assert len(want) == 8
        assert {name: got[name] for name in want} == want

    def test_full_grid_agreement(self):
        max_dev, worst, devs = crosscheck_grid()
        assert max_dev <= 1e-12
        assert worst.value == max_dev
        assert len(devs) == 12 * 12

    @pytest.mark.parametrize("one_shot", ["alpha0s", "phis", "both"])
    def test_one_shot_iterables_give_every_point(self, one_shot):
        # each argument is read once: an iterator walks the grid as a list
        grid = {"alpha0s": list(GRID_ALPHA0[:2]), "phis": list(GRID_PHI[:2])}
        _, _, want = crosscheck_grid(**grid)
        for name in grid:
            if one_shot in (name, "both"):
                grid[name] = iter(grid[name])
        _, _, devs = crosscheck_grid(**grid)
        assert len(want) == 48
        assert devs == want

    @pytest.mark.parametrize("alpha0s, phis", [([], [0.1]), ([1.0], []), ([], [])])
    def test_empty_grid_is_domain_error(self, alpha0s, phis):
        with pytest.raises(DomainError, match="at least one alpha0 and one phi"):
            crosscheck_grid(alpha0s=alpha0s, phis=phis)


def package_imports(module):
    """(submodule, name) for each name a catforge module imports from the
    package, relative or absolute; submodule is None for `from . import x`."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((a.name.partition(".")[2] or None, None)
                         for a in node.names if a.name.startswith("catforge"))
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0 and not mod.startswith("catforge"):
                continue
            if node.level == 0:
                mod = mod.partition(".")[2]
            found.update((mod or None, a.name) for a in node.names)
    return found


class TestRouteIndependence:
    def test_oracle_imports_only_errors(self):
        # no tolerance (config) and no rule layout (quadrature): the oracle
        # is Fock-space code, and crosscheck reduces its projections
        assert {m for m, _ in package_imports(fock_oracle)} <= {"errors"}

    def test_protocol_imports_nothing_from_the_oracle(self):
        imports = package_imports(protocol)
        assert (None, "fock_oracle") not in imports
        assert not [n for m, n in imports if m == "fock_oracle"]

    def test_quadrature_rule_is_neutral(self):
        assert {m for m, _ in package_imports(quadrature)} == {"config"}
