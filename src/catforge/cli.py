"""Command-line interface.

Subcommands map one-to-one onto the analysis operations: ratio, prepare,
sweep, optimize, window, wigner, validate.  Angles are radians by default
(--phi-degrees converts); every run is deterministic.  CSV output uses LF
line endings and 17-significant-digit floats so parsed values round-trip
exactly.  Its cells are the bytes of format(v, ".17g"): sweep, wigner and
window hand their blocks of values, and sweep and wigner their axis cells,
to _format17.csv_lines, whose passes are written as soon as each is
computed, so memory does not grow with the grid.  The first pass is
computed before the file is opened, so a refusal in the first block makes
no file.  JSON never contains NaN or infinities.  main parses with one
argument parser per process.

Exit codes: 0 success, 1 validation failure, 2 domain error, 3 I/O error.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import re
import sys

from . import crosscheck, cv_core, optimize_sweep, protocol
from ._format17 import cells, csv_lines
from .errors import CatforgeError, DomainError
from .config import CROSSCHECK_TOL, GRID_STEP_CAP

WIGNER_BLOCK_ROWS = 64  # x rows per Wigner grid call: bounds the memory


def _fmt(v):
    return format(float(v), ".17g")


def _phi(args):
    return math.radians(args.phi) if args.phi_degrees else args.phi


def _params(args):
    return protocol.ProtocolParams(args.alpha0, _phi(args))


def _floats(text, flag):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise DomainError(
            f"{flag} takes comma-separated numbers, got {text!r}") from None


def _write(path, chunks):
    """Write chunks of ASCII bytes (any bytes-like object) to path, or to
    stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(str(chunk, "ascii") for chunk in chunks)
        return
    with open(path, "wb") as fh:
        fh.writelines(chunks)


def _csv(header, lines):
    """The header and the lines, the first pass computed here: a refusal in
    the first block comes before any file is made."""
    lines = iter(lines)
    return itertools.chain([header.encode("ascii") + b"\n", next(lines, b"")], lines)


def _json_text(payload):
    # allow_nan=False turns non-finite numbers into an error instead of
    # emitting invalid JSON
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("ascii")


def cmd_ratio(args):
    p = _params(args)
    sep = protocol.separations(p)
    # every value first, so a refused input prints nothing to stdout
    values = {"ratio_exact": protocol.coefficient_ratio(p),
              "ratio_o1": protocol.coefficient_ratio_small_angle(p),
              "ratio_o2": protocol.coefficient_ratio_second_order(p),
              "d0": sep.d0, "d": sep.d}
    for name, value in values.items():
        print(f"{name:<11} = {_fmt(value)}")
    return 0


def cmd_prepare(args):
    r = protocol.report(_params(args), args.x)
    payload = {k: {"re": v.real, "im": v.imag} if isinstance(v, complex) else v
               for k, v in r._asdict().items()}
    # in place: the key keeps its position, last
    payload["separations"] = r.separations._asdict()
    _write(args.out, [_json_text(payload)])
    return 0


def cmd_sweep(args):
    fields = dataclasses.fields(optimize_sweep.GridSpec)
    grid = optimize_sweep.GridSpec(**{f.name: getattr(args, f.name) for f in fields})
    axes, n = cells(grid.alpha0_values() + grid.phi_values()), grid.alpha0_steps
    lines = csv_lines((axes[None, :n], axes[n:, None]), optimize_sweep.sweep_ratio(grid))
    _write(args.out, _csv("alpha0,phi,ratio_exact,ratio_o1,ratio_o2,d", lines))
    return 0


def cmd_optimize(args):
    phi = _phi(args)
    exact = optimize_sweep.find_min_alpha(
        phi, args.k, validate_numeric=not args.no_validate)
    approx = protocol.vacuum_null_alpha_approx(phi)
    p = protocol.ProtocolParams(exact, phi)
    print(f"alpha_min_exact       = {_fmt(exact)}")
    print(f"alpha_min_first_order = {_fmt(approx)}")
    print(f"relative_gap          = {_fmt(abs(approx - exact) / exact)}")
    print(f"ratio_at_min          = {_fmt(protocol.coefficient_ratio(p))}")
    print(f"output_separation_d   = {_fmt(protocol.separations(p).d)}")
    return 0


def cmd_window(args):
    p = _params(args)
    rows = optimize_sweep.window_tradeoff(
        p, sorted(_floats(args.epsilons, "--epsilons")))
    if args.format == "json":
        payload = [{"epsilon": e, "probability": pr, "fidelity": f}
                   for e, pr, f in rows]
        _write(args.out, [_json_text(payload)])
    else:
        _write(args.out, _csv("epsilon,probability,fidelity", csv_lines((), [rows])))
    return 0


def cmd_wigner(args):
    if not 2 <= args.points <= GRID_STEP_CAP:
        raise DomainError(f"--points must lie in [2, {GRID_STEP_CAP}], got {args.points}")
    extent = args.half_extent
    if extent is not None and not 0.0 < extent < math.inf:
        raise DomainError(f"--half-extent must be finite and positive, got {extent}")
    p = _params(args)
    s = protocol.separations(p).d0 / cv_core.SQRT2
    if args.state == "cat":
        grid = functools.partial(protocol.cat_wigner, s)
    else:
        grid = functools.partial(protocol.kept_wigner, p, args.x)
    if extent is None:
        extent = s + 5.0
    axis = [(-extent + 2.0 * extent * i / (args.points - 1))
            for i in range(args.points)]
    if not math.isfinite(axis[-1]):
        raise DomainError(
            f"--half-extent {extent:g} is too large: the grid values overflow")
    axis_cells = cells(axis)
    blocks = (grid(axis[lo:lo + WIGNER_BLOCK_ROWS], axis)[..., None]
              for lo in range(0, args.points, WIGNER_BLOCK_ROWS))
    lines = csv_lines((axis_cells[:, None], axis_cells[None]), blocks)
    _write(args.out, _csv("x,y,w", lines))
    return 0


def cmd_validate(args):
    if not 0.0 <= args.tolerance < math.inf:
        raise DomainError(
            f"--tolerance must be finite and >= 0, got {args.tolerance!r}")
    alpha0s = _floats(args.alpha0_values, "--alpha0-values")
    phis = _floats(args.phi_values, "--phi-values")
    max_dev, worst, devs = crosscheck.crosscheck_grid(alpha0s=alpha0s, phis=phis)
    print(f"checked {len(devs)} analytic-vs-Fock deviations "
          f"over {len(alpha0s) * len(phis)} parameter points")
    print(f"max deviation = {max_dev:.3e} "
          f"({worst.quantity} at alpha0={worst.alpha0:g}, phi={worst.phi:g})")
    print(f"tolerance     = {args.tolerance:.3e}")
    if max_dev <= args.tolerance:
        print("validation PASSED")
        return 0
    print("validation FAILED")
    return 1


class _Parser(argparse.ArgumentParser):
    """argparse reads a token such as -1e-3 as an option, not as the value
    of the flag before it, unless it looks like -3 or -0.3.  This parser
    takes every negative number float() takes as a value, exponent forms
    and -inf included; no flag of the CLI looks like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process: in-process callers
    run main many times."""
    parser = _Parser(
        prog="catforge",
        description=("Conditional preparation of symmetric coherent-state "
                     "superpositions: closed-form analysis with an "
                     "independent Fock-basis cross-check."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(sp):
        sp.add_argument("--alpha0", type=float, required=True,
                        help="source amplitude magnitude")
        sp.add_argument("--phi", type=float, required=True,
                        help="phase separation (radians unless --phi-degrees)")
        sp.add_argument("--phi-degrees", action="store_true",
                        help="interpret --phi in degrees")

    sp = sub.add_parser("ratio", help="branch-coefficient ratio and separations")
    add_point_args(sp)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("prepare", help="JSON report of the conditioned state")
    add_point_args(sp)
    sp.add_argument("--x", type=float, default=0.0,
                    help="conditioning quadrature value (default 0)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_prepare)

    sp = sub.add_parser("sweep", help="CSV sweep of the ratio formulas")
    for f in dataclasses.fields(optimize_sweep.GridSpec):
        sp.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("optimize", help="optimum source amplitude at fixed phi")
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--phi-degrees", action="store_true")
    sp.add_argument("--k", type=int, default=0, help="optimum branch index")
    sp.add_argument("--no-validate", action="store_true",
                    help="skip the sign-change check of the closed form")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("window", help="finite-window probability/fidelity table")
    add_point_args(sp)
    sp.add_argument("--epsilons", default="1e-4,1e-2,1e-1,1",
                    help="comma-separated window half-widths")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_window)

    sp = sub.add_parser("wigner", help="Wigner function on a square grid (CSV)")
    add_point_args(sp)
    sp.add_argument("--x", type=float, default=0.0,
                    help="conditioning quadrature value (default 0)")
    sp.add_argument("--state", choices=("prepared", "cat"), default="prepared",
                    help="conditioned output state or the ideal cat")
    sp.add_argument("--half-extent", type=float, default=None,
                    help="grid half-extent (default: amplitude reach + 5)")
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.set_defaults(func=cmd_wigner)

    sp = sub.add_parser("validate", help="closed forms vs Fock oracle")
    sp.add_argument("--alpha0-values", default=",".join(map(repr, crosscheck.GRID_ALPHA0)))
    sp.add_argument("--phi-values", default=",".join(map(repr, crosscheck.GRID_PHI)))
    sp.add_argument("--tolerance", type=float, default=CROSSCHECK_TOL)
    sp.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CatforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
