"""End-to-end tests of the command-line interface.

Everything goes through cli.main(argv) so exit codes and emitted text are
exercised exactly as a shell user sees them.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from catforge import _format17, cli, crosscheck, cv_core, protocol
from catforge._format17 import CHUNK, csv_lines
from catforge.optimize_sweep import GridSpec, sweep_ratio, window_tradeoff
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


def formatted(values):
    """The CSV line of values, split back into its cells."""
    return str(b"".join(csv_lines((), [[values]])), "ascii")[:-1].split(",")


class TestCells:
    # each edge beside format(v, ".17g") of it
    EDGES = [
        0.0, -0.0, math.inf, -math.inf, math.nan,
        5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,  # subnormals
        1e-5, 9.9999999999999e-05, 1e-4,  # the fixed/exponent switch
        9.999999999999999e16, 1e17, 1e16, 123456789012345680.0,
        1e100, -1.5e-250, 1.7976931348623157e308, 1e-300, 1e300,
        1 + 2 ** -17,  # 1.00000762939453125: an exact tie, rounded to even
        1e-14,  # 9.99999999999999999e-15 to 17 digits carries to 1e-14
        1e98,  # likewise, below 1e98
        1e-200,  # 9.9999999999999998e-201: its 16 digits round up to 10^16
        0.1, 0.5, 2.0, -1.0, 100.0, 0.30000000000000004]

    def test_edge_table(self):
        # alone, and in a block where other values take the kernel's
        # redo and slow paths
        expected = [format(v, ".17g") for v in self.EDGES]
        assert formatted(self.EDGES) == expected
        assert [formatted([v])[0] for v in self.EDGES] == expected

    def test_neighbours_of_powers_of_ten(self):
        # log10 rounds to the integer at and next to these, one decade off
        # the exponent of their digits
        tens = np.array([float(f"1e{m}") for m in range(-323, 309)])
        v = np.concatenate([tens, np.nextafter(tens, 0.0),
                            np.nextafter(tens, np.inf), 5 * tens[:-1], -tens])
        assert formatted(v) == [format(x, ".17g") for x in v.tolist()]
        # alone, where no other value takes the redo path
        alone = np.concatenate([tens, np.nextafter(tens, 0.0)]).tolist()
        assert ([formatted([x])[0] for x in alone]
                == [format(x, ".17g") for x in alone])

    def test_more_than_one_chunk(self):
        v = np.linspace(-3.0, 7.0, 2 * CHUNK + 5) ** 3
        assert formatted(v) == [format(x, ".17g") for x in v.tolist()]

    def test_import_builds_no_table(self):
        # the tables are built on first use, so importing the CLI costs a
        # process that writes no CSV nothing
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        code = ("import catforge.cli, catforge._format17 as f; "
                "print(f._tables.cache_info().currsize); f.cells([1.0]); "
                "print(f._tables.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(src)},
                              check=False)
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n1\n", "")


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha0-steps", "40", "--phi-steps", "7", "--phi-min", "-0.3"),
    ("wigner", "--alpha0", "1", "--phi", "0.5", "--points", "23"),
    ("wigner", "--alpha0", "2", "--phi", "1.5707963", "--state", "cat",
     "--points", "150"),
    ("window", "--alpha0", "1.7", "--phi", "0.5"),
    ("window", "--alpha0", "1.7", "--phi", "0.5", "--format", "json"),
])
def test_stdout_and_out_get_the_same_bytes(capsysbinary, tmp_path, argv):
    assert cli.main(list(argv)) == 0
    captured = capsysbinary.readouterr()
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert captured.err == b""
    assert captured.out == path.read_bytes()
    assert captured.out.count(b"\n") > 1


def test_stdout_bytes_skip_the_text_layer(monkeypatch):
    # chunks go to stdout's binary buffer after the text written before
    # them; a stream with no buffer, such as io.StringIO, takes them as text
    class NoTextLines(io.TextIOWrapper):
        def writelines(self, lines):
            raise AssertionError("chunks written as text")

    raw = io.BytesIO()
    out = NoTextLines(raw, encoding="ascii")
    out.write("head\n")
    monkeypatch.setattr(sys, "stdout", out)
    cli._write(None, [b"a,b\n", memoryview(b"1,2\n")])
    assert raw.getvalue() == b"head\na,b\n1,2\n"
    text = io.StringIO()
    monkeypatch.setattr(sys, "stdout", text)
    cli._write("-", [b"a,b\n", memoryview(b"1,2\n")])
    assert text.getvalue() == "a,b\n1,2\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--alpha0-steps", "23", "--phi-steps", "5"),
    # 63 rows a pass at the default CHUNK: a pass boundary inside each
    # 64-row block, and a 1-row block ends the grid
    ("wigner", "--alpha0", "1", "--phi", "0.5", "--points", "129"),
    ("wigner", "--alpha0", "2", "--phi", "1.5", "--points", "67", "--state", "cat"),
    ("window", "--alpha0", "1.7", "--phi", "0.5"),
])
def test_csv_bytes_do_not_depend_on_the_pass_size(capsysbinary, monkeypatch, argv):
    def output():
        assert cli.main(list(argv)) == 0
        return capsysbinary.readouterr().out

    default = output()
    for chunk in (1, 7, 64):
        monkeypatch.setattr(_format17, "CHUNK", chunk)
        assert output() == default, chunk


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

    # the full output, byte for byte: key order, nesting and number format
    GOLDEN = {
        ("--alpha0", "1", "--phi", "0.1"): """\
{
  "alpha0": 1.0,
  "phi": 0.1,
  "x": 0.0,
  "vacuum_coeff": {
    "re": 1.4873220467199975,
    "im": 0.0
  },
  "cat_coeff": {
    "re": 0.7511255444649425,
    "im": 0.0
  },
  "ratio": 1.9801244381583083,
  "fidelity": 0.99999690356844,
  "density_at_x": 0.5627776700410809,
  "separations": {
    "d0": 0.09995833854135666,
    "d": 0.14136243803746787
  }
}
""",
        ("--alpha0", "2.3", "--phi", "1.1", "--x", "0.7"): """\
{
  "alpha0": 2.3,
  "phi": 1.1,
  "x": 0.7,
  "vacuum_coeff": {
    "re": -0.0658817801714103,
    "im": -0.15638647356021101
  },
  "cat_coeff": {
    "re": -0.5423066151725712,
    "im": 0.22702635385641473
  },
  "ratio": 0.2886451606165944,
  "fidelity": 0.9645528148032986,
  "density_at_x": 0.18056205005154058,
  "separations": {
    "d0": 2.4043612530810323,
    "d": 3.4002802929515656
  }
}
"""}

    @pytest.mark.parametrize("argv", GOLDEN, ids=["origin", "off-origin"])
    def test_golden_bytes(self, capsys, argv):
        assert run(capsys, "prepare", *argv) == (0, self.GOLDEN[argv], "")

    @pytest.mark.parametrize("alpha0", ["1e16", "1e17", "1e154"])
    def test_large_amplitude_fidelity(self, capsys, alpha0):
        # the conditioned state is the cat; an ulp between the two forms of
        # its amplitude s exceeded a coherent state's width past 1e16
        code, out, _ = run(capsys, "prepare", "--alpha0", alpha0, "--phi", "0.3")
        assert code == 0
        assert json.loads(out)["fidelity"] == 1.0

    @pytest.mark.parametrize("alpha0, phi", [
        # 1.0000000000000004 from the Gram sums, and 1.0000000000000007
        # unclamped from the basis form
        ("7.544754509166714", "0.8364790319275167"),
        ("3.95874998992723", "2.9631481828196495")])
    def test_fidelity_is_clamped_to_one(self, capsys, alpha0, phi):
        code, out, _ = run(capsys, "prepare", "--alpha0", alpha0, "--phi", phi)
        assert code == 0
        assert 0.0 <= json.loads(out)["fidelity"] <= 1.0


    def test_ratio_past_the_float_range(self, capsys):
        code, out, err = run(capsys, "prepare", "--alpha0", "19", "--phi",
                             "3.14159", "--x", "38")
        assert (code, out) == (2, "")
        assert err == "error: branch ratio |c_vac| / |c_cat| overflows at x=38.0\n"

    def test_nan_x_is_refused_by_the_density_floor(self, capsys):
        code, out, err = run(capsys, "prepare", "--alpha0", "1", "--phi", "0.3",
                             "--x", "nan")
        assert (code, out) == (2, "")
        assert err == "error: conditioning density nan at x=nan below floor\n"


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

    def test_csv_crosses_blocks(self, capsys):
        # CHUNK // (4 * 301) = 6 phi rows a block: blocks of 6, 6 and 5 rows,
        # each written into its own lines
        grid = GridSpec(alpha0_steps=301, phi_steps=17)
        assert [len(b) for b in sweep_ratio(grid)] == [6, 6, 5]
        code, out, err = run(capsys, "sweep", "--alpha0-steps", "301",
                             "--phi-steps", "17")
        assert (code, err) == (0, "")
        assert out == sweep_reference(grid)

    def test_empty_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "sweep",
                           "--alpha0-min", "2", "--alpha0-max", "2")
        assert code == 2
        assert "error:" in err


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
        # alpha0 ~ 5.6e4: the check's tolerance is relative to alpha0
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

    def test_overflowing_null_names_phi(self, capsys):
        # the null alpha0 overflows; it gave "error: math domain error"
        code, out, err = run(capsys, "optimize", "--phi", "1e-320")
        assert (code, out) == (2, "")
        assert err.startswith("error: phi = 9.99989e-321 is too small: ")
        assert "math domain" not in err

    def test_branch_past_the_check_limit(self, capsys):
        # (k + 1/2) pi = 1.7e16 > 2^53: the sign check cannot tell, so it
        # refuses; the closed form alone is still given
        argv = ("optimize", "--phi", "1.8218873576655399",
                "--k", "5487525777109650")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: k = 5487525777109650 is past the sign check's limit: ")
        assert "must lie below 2^53" in err
        code, out, err = run(capsys, *argv, "--no-validate")
        assert (code, err) == (0, "")

    def test_branch_index_past_the_float_range(self, capsys):
        # k * pi overflowed: an OverflowError traceback and exit 1
        k = "1" + "0" * 400
        code, out, err = run(capsys, "optimize", "--phi", "0.1", "--k", k)
        assert (code, out) == (2, "")
        assert err == ("error: k must be a non-negative integer whose "
                       f"(k + 1/2) pi is finite, got k = {k}\n")

    def test_null_near_the_amplitude_cap(self, capsys):
        # alpha0 = 1.25e154: a^2 and the bracket's (u + 1) / sin(phi) overflow
        code, out, err = run(capsys, "optimize", "--phi", "1e-308")
        assert (code, err) == (0, "")
        assert float(parse_keyvals(out)["alpha_min_exact"]) == \
            protocol.vacuum_null_alpha(1e-308)


class TestWindow:
    # the full output of two tables, pinned byte for byte
    GOLDEN_CSV = (
        "epsilon,probability,fidelity\n"
        "0.0001,0.00011027954904398696,0.99976723807924262\n"
        "0.01,0.011027603928934907,0.9997672376718979\n"
        "0.10000000000000001,0.10992953168954914,0.99976719744473486\n"
        "1,0.83311148647021305,0.99976410853411346\n")
    GOLDEN_JSON = (
        "[\n"
        "  {\n"
        '    "epsilon": 0.01,\n'
        '    "probability": 0.005643985670036869,\n'
        '    "fidelity": 0.999999902808677\n'
        "  },\n"
        "  {\n"
        '    "epsilon": 0.5,\n'
        '    "probability": 0.26035225829975606,\n'
        '    "fidelity": 0.9999898630639078\n'
        "  },\n"
        "  {\n"
        '    "epsilon": 3.0,\n'
        '    "probability": 0.6030499580571955,\n'
        '    "fidelity": 0.8293384983574759\n'
        "  },\n"
        "  {\n"
        '    "epsilon": 30.0,\n'
        '    "probability": 1.0,\n'
        '    "fidelity": 0.5014375473334449\n'
        "  }\n"
        "]\n")

    def test_default_table_bytes(self, capsys):
        code, out, err = run(capsys, "window", "--alpha0", "1", "--phi", "0.3")
        assert (code, err) == (0, "")
        assert out == self.GOLDEN_CSV

    def test_json_table_bytes(self, capsys):
        code, out, err = run(capsys, "window", "--alpha0", "2.2", "--phi", "1.9",
                             "--epsilons", "0.01,0.5,3,30", "--format", "json")
        assert (code, err) == (0, "")
        assert out == self.GOLDEN_JSON

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

    @pytest.mark.parametrize("epsilons, message", [
        ("0.1,0.1", "window half-widths must be distinct and in increasing "
                    "order, got [0.1, 0.1]"),
        ("0", "window half-width must be finite and positive, got 0.0"),
        ("-0.1", "window half-width must be finite and positive, got -0.1"),
        ("0.2,inf", "window half-width must be finite and positive, got inf")],
        ids=["0.1,0.1", "0", "-0.1", "0.2,inf"])
    def test_epsilons_must_be_distinct_and_positive(self, capsys, epsilons,
                                                    message):
        # window_tradeoff refuses the repeat, HomodyneWindow the half-width
        code, out, err = run(capsys, "window", "--alpha0", "1", "--phi", "0.3",
                             "--epsilons", epsilons)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

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
        # erf(0.1) / 2 = 0.0562314580091424492 for the double 0.1: two ulps
        # below (it printed ...421 from Gram sums, four ulps above)
        assert out == ("epsilon,probability,fidelity\n"
                       "0.10000000000000001,0.056231458009142463,1\n")

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

    def test_zero_separation_cat_is_the_vacuum(self, capsys):
        code, out, err = run(capsys, "wigner", "--alpha0", "1", "--phi", "0",
                             "--state", "cat", "--points", "3")
        assert (code, err) == (0, "")
        # the vacuum (2/pi) e^{-2 |gamma|^2} on the default extent s + 5 = 5
        axis = [-5.0, 0.0, 5.0]
        w = protocol.cat_wigner(0.0, axis, axis)
        assert out == "x,y,w\n" + render(
            (x, y, w[i, j]) for i, x in enumerate(axis)
            for j, y in enumerate(axis))
        assert "0,0,0.63661977236758138\n" in out
        assert w == pytest.approx(2.0 / math.pi * np.exp(
            -2.0 * np.add.outer(np.square(axis), np.square(axis))), abs=1e-16)
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
            f"-{edge},-{edge},0", f"-{edge},0,0.31830988618379064",
            f"-{edge},{edge},0",
            f"0,-{edge},0", "0,0,0.63661977236758127", f"0,{edge},0",
            f"{edge},-{edge},0", f"{edge},0,0.31830988618379064",
            f"{edge},{edge},0", ""]

    @pytest.mark.parametrize("points", [67, 130])
    def test_csv_matches_the_full_grid(self, capsys, points):
        # row blocks that do not divide the grid give the full grid's values
        code, out, err = run(capsys, "wigner", "--alpha0", "1.3",
                             "--phi", "0.9", "--x", "0.2",
                             "--points", str(points))
        assert (code, err) == (0, "")
        p = ProtocolParams(1.3, 0.9)
        extent = protocol.separations(p).d0 / cv_core.SQRT2 + 5.0
        axis = [-extent + 2.0 * extent * i / (points - 1)
                for i in range(points)]
        w = protocol.kept_wigner(p, 0.2, axis, axis)
        assert out == "x,y,w\n" + render(
            (x, y, w[i, j]) for i, x in enumerate(axis)
            for j, y in enumerate(axis))

    def test_refused_state_writes_nothing(self, capsys, tmp_path):
        # the density at x = 60 is 0; the header used to reach stdout before
        # a refusal in the first block
        argv = ("wigner", "--alpha0", "1", "--phi", "0.3", "--x", "60",
                "--points", "3")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == ("error: conditioning density 0.000e+00 at x=60.0 "
                       "below floor\n")
        path = tmp_path / "w.csv"
        assert run(capsys, *argv, "--out", str(path))[0] == 2
        assert not path.exists()

    def test_nan_x_is_refused_by_the_density_floor(self, capsys):
        code, out, err = run(capsys, "wigner", "--alpha0", "1", "--phi", "0.3",
                             "--x", "nan")
        assert (code, out) == (2, "")
        assert err == "error: conditioning density nan at x=nan below floor\n"

    def test_odd_source(self, capsys):
        # at this odd source (d0 = 0.1) the coherent terms' Gram norm^2
        # missed 1 by 1.2e-10, and wigner refused the state
        code, out, err = run(capsys, "wigner", "--alpha0", "62.83185307179586",
                             "--phi", "0.000795774715459477", "--points", "3")
        assert (code, err) == (0, "")
        rows = [[float(v) for v in line.split(",")]
                for line in out.splitlines()[1:]]
        assert len(rows) == 9
        assert all(math.isfinite(v) for row in rows for v in row)
        assert rows[4][:2] == [0.0, 0.0]
        assert abs(rows[4][2] - 2.0 / math.pi) <= 1e-15

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

    def test_default_grid_is_the_crosscheck_grid(self, capsys, monkeypatch):
        # the flags' defaults are crosscheck's grid, point for point
        seen = []

        def record(p):
            seen.append((p.alpha0, p.phi))
            return [crosscheck.Deviation("ratio", p.alpha0, p.phi, 0.0)]
        monkeypatch.setattr(crosscheck, "crosscheck_point", record)
        crosscheck.crosscheck_grid()
        want, seen[:] = seen[:], []
        code, out, _ = run(capsys, "validate")
        assert code == 0 and len(want) == 12
        assert seen == want
        assert "over 12 parameter points" in out

    def test_unresolvable_split_refused(self, capsys):
        # the cat's Fock carrier lies within rounding of the vacuum: the
        # oracle cannot split the branches, which is no failure of the
        # closed forms
        code, out, err = run(capsys, "validate", "--alpha0-values", "1",
                             "--phi-values", "1e-9")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot resolve branch coefficients")
        assert "separation 1.414e-09" in err and err.count("\n") == 1

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "validate", "--alpha0-values", "1",
                           "--phi-values", "0.1", "--tolerance", "1e-20")
        assert code == 1
        assert "validation FAILED" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_outside_domain_refused(self, capsys, tol):
        # no deviation can meet nan or a negative bound: refused before the
        # grid runs, naming the flag
        code, out, err = run(capsys, "validate", "--alpha0-values", "1",
                             "--phi-values", "0.1", f"--tolerance={tol}")
        assert (code, out) == (2, "")
        assert err.startswith("error: --tolerance must be finite and >= 0")

    def test_fock_cap_guard(self, capsys):
        code, _, err = run(capsys, "validate", "--alpha0-values", "50",
                           "--phi-values", "0.1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("alpha0, dim", [("1.3e154", "inf"),
                                             ("1e100", "2e+200")])
    def test_amplitude_past_the_float_range_refused(self, capsys, alpha0, dim):
        # the amplitude's square leaves the float range (1.3e154) or the
        # dimension is past 2^53 (2e200 at 1e100): both are refused, not
        # crashed on
        code, out, err = run(capsys, "validate", "--alpha0-values", alpha0,
                             "--phi-values", "0.3")
        assert (code, out) == (2, "")
        shown = "past the float range" if dim == "inf" else dim
        assert err.startswith(f"error: requested Fock dimension {shown} exceeds "
                              "the beam splitter's limit 2048")
        assert err.count("\n") == 1

    def test_past_the_beam_splitter_limit_names_it(self, capsys):
        # dimension 2245: the beam splitter stops at total photon number 2047
        code, out, err = run(capsys, "validate", "--alpha0-values", "30",
                             "--phi-values", "0.3")
        assert (code, out) == (2, "")
        assert err == ("error: requested Fock dimension 2245 exceeds the beam "
                       "splitter's limit 2048 (total photon number 2047)\n")

    def test_limit_refused_before_any_point_runs(self, capsys, monkeypatch):
        # alpha0 = 28.4 is dimension 2035, within the limit, and 30 is past
        # it: the refusal comes before the first point's oracle work
        calls = []
        monkeypatch.setattr(crosscheck, "oracle_pipeline", calls.append)
        code, out, err = run(capsys, "validate", "--alpha0-values", "28.4,30",
                             "--phi-values", "0.3")
        assert (code, out, calls) == (2, "", [])
        assert err == ("error: requested Fock dimension 2245 exceeds the beam "
                       "splitter's limit 2048 (total photon number 2047)\n")

    def test_dimension_past_the_float_range_says_so(self, capsys):
        code, out, err = run(capsys, "validate", "--alpha0-values", "1.3e154",
                             "--phi-values", "0.3")
        assert (code, out) == (2, "")
        assert "dimension past the float range" in err
        assert "inf" not in err
        assert err.count("\n") == 1


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
    ("prepare", "--alpha0", "1", "--phi", "0.5"),
    ("sweep", "--alpha0-steps", "2", "--phi-steps", "2"),
    ("window", "--alpha0", "1", "--phi", "0.5"),
    ("wigner", "--alpha0", "1", "--phi", "0.5", "--points", "3"),
], ids=["prepare", "sweep", "window", "wigner"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_3(capsys, tmp_path, argv, target):
    # a path under a missing directory, or an existing directory: exit 3,
    # nothing on stdout, one i/o error line, and no file made
    path = tmp_path / "out"
    if target == "directory":
        path.mkdir()
    else:
        path = path / "no" / "file.csv"
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("i/o error:") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize("spaced, joined", [
    (("ratio", "--alpha0", "1", "--phi", "-1e-3"),
     ("ratio", "--alpha0", "1", "--phi=-1e-3")),
    (("prepare", "--alpha0", "1", "--phi", "0.3", "--x", "-2e-1"),
     ("prepare", "--alpha0", "1", "--phi", "0.3", "--x=-2e-1")),
    (("sweep", "--phi-min", "-1E-3", "--phi-max", "0.1", "--alpha0-steps",
      "3", "--phi-steps", "3"),
     ("sweep", "--phi-min=-1E-3", "--phi-max", "0.1", "--alpha0-steps", "3",
      "--phi-steps", "3")),
    (("ratio", "--alpha0", "-.5e+1", "--phi", "0.1"),
     ("ratio", "--alpha0=-.5e+1", "--phi", "0.1")),
    (("ratio", "--alpha0", "1", "--phi", "-inf"),
     ("ratio", "--alpha0", "1", "--phi=-inf")),
], ids=["phi", "x", "phi-min", "alpha0", "inf"])
def test_negative_exponent_forms_are_values(capsysbinary, spaced, joined):
    # argparse alone reads -1e-3 as an option ("expected one argument");
    # every negative number is the flag's value, as with the = form
    got = cli.main(list(spaced)), capsysbinary.readouterr()
    want = cli.main(list(joined)), capsysbinary.readouterr()
    assert got == want
    assert b"expected one argument" not in got[1].err


def test_a_word_after_a_flag_is_still_not_its_value(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["ratio", "--alpha0", "1", "--phi", "-x"])
    assert info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_an_internal_value_error_is_not_a_refusal(monkeypatch):
    # only CatforgeError is a refusal (exit 2): any other exception, such as
    # a "math domain error" from inside a command, is a bug and shows as a
    # traceback; DomainError, also a ValueError, still exits 2
    def broken(p):
        raise ValueError("math domain error")
    monkeypatch.setattr(protocol, "coefficient_ratio", broken)
    with pytest.raises(ValueError, match="math domain error"):
        cli.main(["ratio", "--alpha0", "1", "--phi", "0.1"])


def test_a_domain_error_still_exits_2(capsys):
    code, out, err = run(capsys, "ratio", "--alpha0", "-1", "--phi", "0.1")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_main_back_to_back_gives_each_run_its_own_bytes(monkeypatch):
    # one process runs the commands in turn on one parser and one set of
    # formatting tables: each run prints what it prints in a process alone
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width
    sweep = ("sweep", "--alpha0-steps", "31", "--phi-steps", "7")
    runs = [sweep, ("wigner", "--alpha0", "1.5", "--phi", "0.7", "--points", "37"),
            ("window", "--alpha0", "1.7", "--phi", "0.5"),
            ("sweep", "--alpha0-steps", "1"), ("--help",), sweep]
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    alone = {argv: subprocess.Popen(
        [sys.executable, "-m", "catforge", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}) for argv in set(runs)}
    together = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        together.append((code, out.getvalue(), err.getvalue()))
    for argv, done in alone.items():
        out, err = done.communicate(timeout=120)
        alone[argv] = (done.returncode, out, err)
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 0, 0]
    for argv, result in zip(runs, together):
        assert result == alone[argv], argv
