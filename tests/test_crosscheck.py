"""Tests for the analytic-vs-Fock validation layer."""

import ast
import math
import pathlib

import numpy as np
import pytest

from catforge.crosscheck import (DENSITY_SAMPLES, GRID_ALPHA0, GRID_PHI,
                                 crosscheck_grid, crosscheck_point,
                                 oracle_conditioning, oracle_pipeline,
                                 window_metrics_analytic)
from catforge import fock_oracle, protocol, quadrature
from catforge.config import CROSSCHECK_TOL
from catforge.cv_core import HomodyneWindow
from catforge.errors import DegenerateState, ZeroProbability
from catforge.protocol import ProtocolParams, window_metrics


class TestOraclePipeline:
    @pytest.mark.parametrize("alpha0, phi", [
        (0.5, 0.05), (1.0, 0.1), (2.0, 0.5), (3.0, 0.5)])
    def test_output_is_the_kept_source_triangle(self, alpha0, phi):
        # the source pair is kept on n + m < dim, where the beam splitter
        # is exactly unitary: nothing leaves the triangle and no norm is lost
        # beyond the blocks' rounding (3.3e-15 at dim 81 here; it grows
        # about linearly, to 1.2e-14 at the odd source's dim 188)
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
        c_vac, c_cat, samples, _, _ = oracle_conditioning(ProtocolParams(1.0, 0.1))
        ratio = abs(c_vac) / abs(c_cat)
        dens = np.vdot(samples[0], samples[0]).real
        assert samples.shape[0] == len(DENSITY_SAMPLES) and DENSITY_SAMPLES[0] == 0
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
                            lambda amps, xs: np.zeros((len(xs), len(amps)), complex))
        with pytest.raises(ZeroProbability, match="x=0"):
            oracle_conditioning(ProtocolParams(1.0, 0.1))


class TestPointChecks:
    def test_quantity_coverage(self):
        devs = crosscheck_point(ProtocolParams(0.5, 0.5))
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
        *_, out, cat = oracle_conditioning(p)
        [(prob_fock, fid_fock)] = fock_oracle.window_metrics(out, [w], cat)
        prob_loop, fid_loop = window_metrics_analytic(p, w)
        assert type(prob) is float and type(fid) is float
        assert abs(prob - prob_fock) < 1e-10
        assert abs(fid - fid_fock) < 1e-10
        assert abs(prob - prob_loop) < 1e-13
        assert abs(fid - fid_loop) < 1e-13


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
        # off one report; each deviation is the one of the separate calls
        p = ProtocolParams(alpha0, phi)
        c_vac_o, c_cat_o, samples, _, cat = oracle_conditioning(p)
        dens_o = np.sum(np.abs(samples) ** 2, axis=1)
        fid_o = min(abs(np.vdot(cat, samples[0])) ** 2 / dens_o[0], 1.0)
        want = {
            "vacuum_coeff": abs(protocol.vacuum_coefficient(p) - c_vac_o),
            "cat_coeff": abs(protocol.cat_coefficient(p) - c_cat_o),
            "ratio": abs(protocol.coefficient_ratio(p)
                         - abs(c_vac_o) / abs(c_cat_o)),
            "fidelity": abs(protocol.report(p).fidelity - fid_o)}
        got = {d.quantity: d.value for d in crosscheck_point(p)}
        assert {name: got[name] for name in want} == want

    def test_full_grid_agreement(self):
        max_dev, worst, devs = crosscheck_grid()
        assert max_dev <= 1e-10
        assert worst.value == max_dev
        assert len(devs) == 12 * 12


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
    def test_oracle_imports_only_config_errors_and_quadrature(self):
        assert ({m for m, _ in package_imports(fock_oracle)}
                <= {"config", "errors", "quadrature"})

    def test_protocol_imports_nothing_from_the_oracle(self):
        imports = package_imports(protocol)
        assert (None, "fock_oracle") not in imports
        assert not [n for m, n in imports if m == "fock_oracle"]

    def test_quadrature_rule_is_neutral(self):
        assert {m for m, _ in package_imports(quadrature)} == {"config"}
