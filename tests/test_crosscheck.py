"""Tests for the analytic-vs-Fock validation layer."""

import ast
import pathlib

import pytest

from catforge.crosscheck import (crosscheck_grid, crosscheck_point,
                                 oracle_conditioning, oracle_pipeline,
                                 oracle_window,
                                 window_metrics_analytic)
from catforge import fock_oracle, protocol, quadrature
from catforge.cv_core import HomodyneWindow
from catforge.errors import DegenerateState
from catforge.protocol import ProtocolParams, window_metrics


class TestOracleConditioning:
    def test_reference_point(self):
        c_vac, c_cat, ratio, dens, _, _, _ = oracle_conditioning(
            ProtocolParams(1.0, 0.1))
        assert c_vac == pytest.approx(1.4873220467199977 + 0j, abs=1e-10)
        assert c_cat == pytest.approx(0.7511255444649425 + 0j, abs=1e-10)
        assert ratio == pytest.approx(1.9801244381583083, abs=1e-10)
        assert dens == pytest.approx(0.5627776700410807, abs=1e-10)

    def test_degenerate_split_raises(self):
        with pytest.raises(DegenerateState):
            oracle_conditioning(ProtocolParams(1.0, 0.0))
        with pytest.raises(DegenerateState):
            oracle_conditioning(ProtocolParams(0.0, 0.4))


class TestPointChecks:
    def test_quantity_coverage(self):
        devs = crosscheck_point(ProtocolParams(0.5, 0.5))
        names = {d.quantity for d in devs}
        assert {"vacuum_coeff", "cat_coeff", "ratio", "conditional"} <= names
        assert any(n.startswith("density@") for n in names)
        assert any(n.startswith("window_prob@") for n in names)
        assert any(n.startswith("window_fid@") for n in names)
        assert max(d.value for d in devs) <= 1e-10

    def test_window_routes_agree(self):
        p = ProtocolParams(1.5, 0.3)
        w = HomodyneWindow(0.0, 0.2)
        prob, fid = window_metrics(p, w)
        out, dim, _ = oracle_pipeline(p)
        prob_fock, fid_fock = oracle_window(p, w, out, dim)
        prob_loop, fid_loop = window_metrics_analytic(p, w)
        assert type(prob) is float and type(fid) is float
        assert abs(prob - prob_fock) < 1e-10
        assert abs(fid - fid_fock) < 1e-10
        assert abs(prob - prob_loop) < 1e-13
        assert abs(fid - fid_loop) < 1e-13


class TestGrid:
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
