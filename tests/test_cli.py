"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and emitted text are
exercised exactly as a shell user sees them.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from catforge import cli, cv_core, protocol
from catforge.optimize_sweep import GridSpec, window_tradeoff
from catforge.protocol import ProtocolParams


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def render(rows):
    """Reference CSV body: every cell formatted on its own with .17g."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in rows)


def sweep_reference(grid):
    header = "alpha0,phi,ratio_exact,ratio_o1,ratio_o2,d\n"
    rows = []
    for phi in grid.phi_values():
        for alpha0 in grid.alpha0_values():
            p = ProtocolParams(alpha0, phi)
            rows.append((alpha0, phi, protocol.coefficient_ratio(p),
                         protocol.coefficient_ratio_small_angle(p),
                         protocol.coefficient_ratio_second_order(p),
                         protocol.separations(p).d))
    return header + render(rows)


def parse_keyvals(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class TestRatio:
    def test_dark_source(self, capsys):
        code, out, _ = run(capsys, "ratio", "--alpha0", "0", "--phi", "0.4")
        assert code == 0
        assert parse_keyvals(out)["ratio_exact"] == "2"

    def test_reference_point(self, capsys):
        code, out, _ = run(capsys, "ratio", "--alpha0", "1", "--phi", "0.1")
        assert code == 0
        vals = parse_keyvals(out)
        assert float(vals["ratio_exact"]) == 1.9801244381583083
        assert float(vals["d"]) == math.sqrt(2.0) * float(vals["d0"])

    def test_near_null_from_truncated_decimals(self, capsys):
        # six-digit inputs land close to, not on, the null; the residual
        # ratio is set by the input rounding, far above the float floor
        code, out, _ = run(capsys, "ratio",
                           "--alpha0", "1.77245", "--phi", "0.523599")
        assert code == 0
        got = float(parse_keyvals(out)["ratio_exact"])
        assert got == 8.159832861743935e-06
        assert got < 1e-5

    def test_degrees_flag(self, capsys):
        _, out_deg, _ = run(capsys, "ratio", "--alpha0", "1",
                            "--phi", "30", "--phi-degrees")
        _, out_rad, _ = run(capsys, "ratio", "--alpha0", "1",
                            "--phi", "0.5235987755982988")
        assert out_deg == out_rad


    def test_phi_zero_where_two_alpha0_squared_overflows(self, capsys):
        # 2 alpha0^2 is inf here, but the exponent -2 alpha0^2 sin^2(phi/2) is 0
        code, out, err = run(capsys, "ratio", "--alpha0", "1e154", "--phi", "0")
        assert (code, err) == (0, "")
        vals = parse_keyvals(out)
        assert vals["ratio_exact"] == vals["ratio_o1"] == vals["ratio_o2"] == "2"

    def test_small_angle_overflow_prints_nothing(self, capsys):
        # alpha0^2 phi overflows in the small-angle forms: refused before any
        # value is printed
        code, out, err = run(capsys, "ratio", "--alpha0", "1e154", "--phi", "3")
        assert (code, out) == (2, "")
        assert err == ("error: alpha0 = 1e+154 is too large: "
                       "alpha0^2 phi overflows\n")

    @pytest.mark.parametrize("command", ["ratio", "prepare", "window"])
    def test_overflowing_alpha0_rejected(self, capsys, command):
        # alpha0^2 overflows; cli.main must turn that into exit code 2 (an
        # exception escaping it would fail the test)
        code, out, err = run(capsys, command, "--alpha0", "1e200",
                             "--phi", "0.3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "alpha0" in err


class TestPrepare:
    def test_json_matches_report(self, capsys, tmp_path):
        path = tmp_path / "prep.json"
        code, out, _ = run(capsys, "prepare", "--alpha0", "1", "--phi", "0.1",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        r = protocol.report(ProtocolParams(1.0, 0.1))
        assert payload["ratio"] == r.ratio
        assert payload["fidelity"] == r.fidelity
        assert payload["density_at_x"] == r.density_at_x
        assert payload["vacuum_coeff"]["re"] == r.vacuum_coeff.real
        assert payload["vacuum_coeff"]["im"] == r.vacuum_coeff.imag
        assert payload["cat_coeff"]["re"] == r.cat_coeff.real
        assert payload["separations"]["d"] == r.separations.d

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "prepare", "--alpha0", "1", "--phi", "0.1")
        assert code == 0
        assert json.loads(out)["alpha0"] == 1.0

    @pytest.mark.parametrize("alpha0", ["1e16", "1e17", "1e154"])
    def test_large_amplitude_fidelity(self, capsys, alpha0):
        # the conditioned state is the cat; an ulp between the two forms of
        # its amplitude s exceeded a coherent state's width past 1e16
        code, out, _ = run(capsys, "prepare", "--alpha0", alpha0, "--phi", "0.3")
        assert code == 0
        assert json.loads(out)["fidelity"] == 1.0


class TestSweep:
    def test_csv_shape_and_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep",
                           "--alpha0-steps", "4", "--phi-steps", "3",
                           "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("ascii").split("\n")
        assert lines[0] == "alpha0,phi,ratio_exact,ratio_o1,ratio_o2,d"
        assert lines[-1] == ""
        body = lines[1:-1]
        assert len(body) == 12
        assert raw.decode("ascii") == sweep_reference(
            GridSpec(alpha0_steps=4, phi_steps=3))

    @pytest.mark.parametrize("alpha0_max, phi_min, phi_max", [
        (4.7, -0.4, 3.9),
        # alpha0^2 phi^2 underflows where alpha0^2 nearly overflows, and
        # nothing may reach stderr
        (1.3e154, 0.0, 1e-150),
    ])
    def test_csv_matches_point_functions(self, capsys, alpha0_max,
                                         phi_min, phi_max):
        grid = GridSpec(alpha0_max=alpha0_max, alpha0_steps=57,
                        phi_min=phi_min, phi_max=phi_max, phi_steps=33)
        code, out, err = run(capsys, "sweep", "--alpha0-steps", "57",
                             "--phi-steps", "33", f"--alpha0-max={alpha0_max!r}",
                             f"--phi-min={phi_min!r}", f"--phi-max={phi_max!r}")
        assert (code, err) == (0, "")
        assert out == sweep_reference(grid)

    def test_phi_zero_row_where_two_alpha0_squared_overflows(self, capsys):
        grid = GridSpec(alpha0_min=9.9e153, alpha0_max=1e154, alpha0_steps=2,
                        phi_max=0.2, phi_steps=2)
        code, out, err = run(capsys, "sweep", "--alpha0-min", "9.9e153",
                             "--alpha0-max", "1e154", "--phi-max", "0.2",
                             "--alpha0-steps", "2", "--phi-steps", "2")
        assert (code, err) == (0, "")
        assert out == sweep_reference(grid)
        assert "nan" not in out
        assert [line.split(",")[2] for line in out.split("\n")[1:3]] == ["2", "2"]

    def test_empty_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "sweep",
                           "--alpha0-min", "2", "--alpha0-max", "2")
        assert code == 2
        assert "error:" in err

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--alpha0-steps", "2",
                           "--phi-steps", "2",
                           "--out", str(tmp_path / "no" / "dir" / "s.csv"))
        assert code == 3
        assert "i/o error:" in err


class TestOptimize:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, "optimize", "--phi", "0.1")
        assert code == 0
        vals = parse_keyvals(out)
        assert float(vals["alpha_min_exact"]) == 3.9666325494340016
        assert float(vals["alpha_min_first_order"]) == 3.963327297606011
        assert float(vals["relative_gap"]) == pytest.approx(
            8.332639302478875e-4, abs=1e-15)
        assert float(vals["ratio_at_min"]) < 1e-12

    def test_large_branch_index(self, capsys):
        # bisection and closed form differ by an ulp of alpha0 ~ 5.6e4
        code, out, err = run(capsys, "optimize", "--phi", "0.1",
                             "--k", "100000000")
        assert code == 0, err
        vals = parse_keyvals(out)
        assert float(vals["alpha_min_exact"]) == protocol.vacuum_null_alpha(
            0.1, 100000000)

    def test_invalid_phi(self, capsys):
        code, _, err = run(capsys, "optimize", "--phi", "0")
        assert code == 2
        assert "error:" in err


class TestWindow:
    def test_csv_matches_tradeoff(self, capsys):
        code, out, _ = run(capsys, "window",
                           "--alpha0", str(math.sqrt(math.pi)),
                           "--phi", str(math.pi / 6),
                           "--epsilons", "1e-2,1e-4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,probability,fidelity"
        rows = window_tradeoff(
            ProtocolParams(math.sqrt(math.pi), math.pi / 6), [1e-4, 1e-2])
        assert len(lines) == 3
        for line, (e, prob, fid) in zip(lines[1:], rows):
            vals = [float(v) for v in line.split(",")]
            assert vals == [e, prob, fid]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "window", "--alpha0", "1", "--phi", "0.2",
                           "--epsilons", "0.1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        row = window_tradeoff(ProtocolParams(1.0, 0.2), [0.1])[0]
        assert payload[0]["epsilon"] == 0.1
        assert payload[0]["probability"] == row[1]
        assert payload[0]["fidelity"] == row[2]


    def test_beyond_the_fock_cap(self, capsys):
        # the oracle would need Fock dimension 5728 here, above its cap
        code, out, _ = run(capsys, "window", "--alpha0", "50", "--phi", "0.1",
                           "--epsilons", "0.1")
        assert code == 0
        _, prob, fid = (float(v) for v in out.strip().split("\n")[1].split(","))
        assert 0.0 < prob <= 1.0 and 0.0 <= fid <= 1.0

    @pytest.mark.parametrize("alpha0", ["1e3", "1e8"])
    def test_large_amplitude_wide_window(self, capsys, alpha0):
        # the 1e9 window holds the whole marginal; the kept mode is then an
        # equal mixture of the cat and an orthogonal state
        code, out, _ = run(capsys, "window", "--alpha0", alpha0, "--phi", "0.3",
                           "--epsilons", "0.1,1e9")
        assert code == 0
        _, prob, fid = (float(v) for v in out.strip().split("\n")[2].split(","))
        assert abs(prob - 1.0) <= 1e-12
        assert abs(fid - 0.5) <= 1e-12

    @pytest.mark.parametrize("epsilons", ["0.1,0.1", "0", "-0.1", "0.2,inf"])
    def test_epsilons_must_be_distinct_and_positive(self, capsys, epsilons):
        code, out, err = run(capsys, "window", "--alpha0", "1", "--phi", "0.3",
                             "--epsilons", epsilons)
        assert (code, out) == (2, "")
        assert err == ("error: --epsilons takes distinct positive finite "
                       f"numbers, got {epsilons!r}\n")

    @pytest.mark.parametrize("alpha0, phi, epsilons", [
        ("3e16", "1.5", "1e308"), ("1e16", "1.5", "1e308"),
        ("1e17", "0.3", "0.1,1e308")])
    def test_window_reaching_a_coarse_lobe_is_refused(self, capsys, alpha0,
                                                      phi, epsilons):
        # the outer lobes sit where doubles lie 8, 2 and 4 apart; their
        # quadrature gave probabilities 5.01, 1.63 and 0.5000005
        code, out, err = run(capsys, "window", "--alpha0", alpha0,
                             "--phi", phi, "--epsilons", epsilons)
        assert (code, out) == (2, "")
        assert err.startswith("error: window reaches the marginal lobe at ")

    def test_centre_lobe_at_large_amplitude(self, capsys):
        code, out, _ = run(capsys, "window", "--alpha0", "1e17", "--phi", "0.3",
                           "--epsilons", "0.1")
        assert code == 0
        assert out == ("epsilon,probability,fidelity\n"
                       "0.10000000000000001,0.056231458009142421,1\n")

    def test_whole_marginal_below_the_spacing_bound(self, capsys):
        code, out, _ = run(capsys, "window", "--alpha0", "1e15", "--phi", "0.3",
                           "--epsilons", "1e308")
        assert code == 0
        prob = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(prob - 1.0) <= 1e-15

    def test_wide_window_is_clipped_to_the_marginal(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "window", "--alpha0", "1", "--phi", "0.3",
                           "--epsilons", "1e6")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        prob = float(out.strip().split("\n")[1].split(",")[1])
        assert abs(prob - 1.0) <= 1e-12


class TestWigner:
    def test_cat_origin_value(self, capsys):
        # the prepared states at alpha0 = 1e3 and 1e8 are even cats too
        for argv in (("--alpha0", "1", "--phi", str(math.pi / 2),
                      "--state", "cat", "--half-extent", "4"),
                     ("--alpha0", "1e3", "--phi", "0.3"),
                     ("--alpha0", "1e8", "--phi", "0.3")):
            code, out, _ = run(capsys, "wigner", *argv, "--points", "3")
            assert code == 0
            lines = out.strip().split("\n")
            assert lines[0] == "x,y,w"
            assert len(lines) == 10
            assert all(math.isfinite(float(v))
                       for line in lines[1:] for v in line.split(","))
            at_origin = [line for line in lines[1:]
                         if line.startswith("0,0,")]
            assert len(at_origin) == 1
            w0 = float(at_origin[0].split(",")[2])
            assert w0 == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_degenerate_cat_rejected(self, capsys):
        code, _, err = run(capsys, "wigner", "--alpha0", "1", "--phi", "0",
                           "--state", "cat")
        assert code == 2
        assert "error:" in err
        for points in ("1", "0", "-3", "2002"):
            code, out, err = run(capsys, "wigner", "--alpha0", "1",
                                 "--phi", "0.5", "--points", points)
            assert code == 2
            assert "--points" in err
            assert out == ""

    def test_amplitude_at_the_overflow_limit(self, capsys):
        # alpha0^2 is still finite; the grid spans about 1.8e154, where the
        # pair factors' squares and phases would overflow if formed
        code, out, err = run(capsys, "wigner", "--alpha0", "1.3e154",
                             "--phi", "3.14159", "--points", "3")
        assert code == 0
        assert err == ""
        edge = "1.8384776310834052e+154"
        assert out.split("\n") == [
            "x,y,w",
            f"-{edge},-{edge},0", f"-{edge},0,0.31830988618379075",
            f"-{edge},{edge},0",
            f"0,-{edge},0", "0,0,0.63661977236758149", f"0,{edge},0",
            f"{edge},-{edge},0", f"{edge},0,0.31830988618379075",
            f"{edge},{edge},0", ""]

    @pytest.mark.parametrize("points", [67, 130])
    def test_csv_matches_the_full_grid(self, capsys, points):
        # row blocks that do not divide the grid give the full grid's values
        code, out, err = run(capsys, "wigner", "--alpha0", "1.3",
                             "--phi", "0.9", "--x", "0.2",
                             "--points", str(points))
        assert (code, err) == (0, "")
        p = ProtocolParams(1.3, 0.9)
        state = protocol.conditional_state(p, 0.2)
        extent = max(abs(a) for a in state.amplitudes()) + 5.0
        axis = [-extent + 2.0 * extent * i / (points - 1)
                for i in range(points)]
        w = cv_core.wigner_grid(state, axis, axis)
        assert out == "x,y,w\n" + render(
            (x, y, w[i, j]) for i, x in enumerate(axis)
            for j, y in enumerate(axis))

    def test_half_extent_must_be_finite_and_positive(self, capsys):
        for extent in ("nan", "0", "-2"):
            code, out, err = run(capsys, "wigner", "--alpha0", "1",
                                 "--phi", "0.5", "--half-extent", extent)
            assert code == 2
            assert "--half-extent" in err
            assert out == ""


def _comparable(command, out):
    """The numbers of an output that do not scale with phi."""
    if command == "prepare":
        r = json.loads(out)
        return [r["vacuum_coeff"]["re"], r["vacuum_coeff"]["im"],
                r["cat_coeff"]["re"], r["cat_coeff"]["im"], r["ratio"],
                r["density_at_x"]]
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    # window: probability and fidelity per epsilon; wigner: w per grid point
    keep = 2 if command == "window" else 1
    return [float(v) for row in rows for v in row[-keep:]]


@pytest.mark.parametrize("argv", [("window",), ("prepare",),
                                  ("wigner", "--points", "3")],
                         ids=["window", "prepare", "wigner"])
def test_overlap_phase_overflow_near_the_amplitude_cap(capsys, argv):
    # at phi = 0.76 an overlap of the interfered state has exponent real part
    # -8.6e307 and an imaginary part past the float range: the overlap is 0,
    # as every cross overlap is at phi = 0.3, where no phase overflows
    results = []
    for phi in ("0.76", "0.3"):
        code, out, err = run(capsys, argv[0], "--alpha0", "1.25e154",
                             "--phi", phi, *argv[1:])
        assert (code, err) == (0, "")
        values = _comparable(argv[0], out)
        assert values and all(math.isfinite(v) for v in values)
        results.append(values)
    assert results[0] == pytest.approx(results[1], rel=1e-12, abs=0)


class TestValidate:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        assert "validation PASSED" in out
        assert "max deviation" in out

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--alpha0-values", "1",
                           "--phi-values", "0.1", "--tolerance", "1e-20")
        assert code == 1
        assert "validation FAILED" in out

    def test_fock_cap_guard(self, capsys):
        code, _, err = run(capsys, "validate", "--alpha0-values", "50",
                           "--phi-values", "0.1")
        assert code == 2
        assert "error:" in err

    def test_malformed_fock_cap_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("CATFORGE_MAX_FOCK", "abc")
        code, out, err = run(capsys, "validate")
        assert code == 2
        assert err == ("error: CATFORGE_MAX_FOCK must be a positive integer, "
                       "got 'abc'\n")
        assert out == ""


@pytest.mark.parametrize("flag, argv", [
    ("--epsilons", ("window", "--alpha0", "1", "--phi", "0.5",
                    "--epsilons", "0.1,,1")),
    ("--alpha0-values", ("validate", "--alpha0-values", "1,x")),
    ("--phi-values", ("validate", "--phi-values", "0.1;0.2")),
])
def test_malformed_list_names_its_flag(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert flag in err
    assert out == ""


@pytest.mark.parametrize("argv, names", [
    (("sweep", "--alpha0-max", "1e200"), "alpha0_max"),
    (("sweep", "--alpha0-max", "1e154", "--phi-max", "3"), "alpha0_max"),
    (("sweep", "--alpha0-min=-1"), "alpha0_min"),
    (("sweep", "--phi-max", "inf"), "phi_max"),
    (("sweep", "--phi-max", "nan"), "phi_max"),
    (("sweep", "--phi-min=-1e307", "--phi-max", "1e307"), "phi_max - phi_min"),
    (("sweep", "--alpha0-min", "2", "--alpha0-max", "2"), "alpha0"),
    (("sweep", "--alpha0-steps", "1"), "alpha0"),
    (("sweep", "--phi-steps", "2002"), "phi"),
    (("wigner", "--alpha0", "1", "--phi", "0.5", "--points", "1"), "--points"),
    (("wigner", "--alpha0", "1", "--phi", "0.5", "--points", "2002"), "--points"),
    (("wigner", "--alpha0", "1", "--phi", "0.5", "--half-extent", "inf"),
     "--half-extent"),
    (("wigner", "--alpha0", "1", "--phi", "0.5", "--half-extent", "1e307"),
     "--half-extent"),
    (("wigner", "--alpha0", "1", "--phi", "0", "--state", "cat"), "separation"),
])
def test_rejected_grid_writes_nothing(capsys, tmp_path, argv, names):
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha0-steps", "300", "--phi-steps", "300"),
    ("wigner", "--alpha0", "2", "--phi", "0.5", "--points", "301"),
], ids=["sweep", "wigner"])
def test_streamed_landscapes_use_flat_memory(tmp_path, argv):
    # the CSV is written as it is computed: the traced heap stays below the
    # 10 MiB that the 300x300 sweep text alone would take
    tracemalloc.start()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2 ** 20, f"peaked at {peak / 2 ** 20:.1f} MiB"


def test_python_m_runs_the_cli():
    # python -m catforge reaches the same entry point as the catforge script
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "catforge", "ratio", "--alpha0", "1",
         "--phi", "0.1"], capture_output=True, text=True, env=env, check=False)
    assert (done.returncode, done.stderr) == (0, "")
    assert parse_keyvals(done.stdout)["ratio_exact"] == "1.9801244381583083"
    refused = subprocess.run(
        [sys.executable, "-m", "catforge", "ratio", "--alpha0", "1e200",
         "--phi", "0.3"], capture_output=True, text=True, env=env, check=False)
    assert (refused.returncode, refused.stdout) == (2, "")
