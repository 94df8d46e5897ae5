"""A derandomized fuzz of every command through cli.main.

Each flag takes values from its command's documented domain and from the
edge values below; every value parses as its flag's type, so argparse's own
usage errors are not drawn.  A run must exit 0, or refuse with exit 2,
nothing on stdout and one error line on stderr.  validate may also exit 1,
its documented failure, when the worst deviation exceeds the tolerance
drawn.  prepare, sweep, window and wigner draw --out too: absent, "-", a
file, a path under a missing directory or a directory, in a temporary
directory made once per command; a path that cannot be written exits 3,
with nothing on stdout and one "i/o error:" line.  An exception past main,
a warning (the suite raises warnings as errors) or any other outcome
fails.  Examples stay cheap: grids of at most 50 steps, larger ones only
past the step cap, where they are refused before any cell is computed.
"""

import contextlib
import io
import itertools
import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catforge import cli

# the same examples on every run, no database, no per-example deadline
FUZZ = settings(derandomize=True, database=None, deadline=None)

EDGES = (0.0, -0.0, 5e-324, 1e-12, 3.14159, -7.0, 1e8, 1.3e154, 1e300,
         math.nan, math.inf, -math.inf)
INT_EDGES = (0, -7, 1, 10 ** 8, 10 ** 19)


def floats(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(EDGES))


def ints(lo, hi):
    return st.one_of(st.integers(lo, hi), st.sampled_from(INT_EDGES))


def float_lists(lo, hi, most):
    # joined to its flag below: a list that starts with "-" is not a value
    # argparse takes after a space
    return st.lists(floats(lo, hi), min_size=1, max_size=most).map(
        lambda vs: ",".join(map(repr, vs)))


def flag(name, values, optional=False):
    tokens = values.map(lambda v: [f"{name}={v}"] if isinstance(v, str)
                        else [name, repr(v)])
    return st.one_of(st.just([]), tokens) if optional else tokens


def switch(name):
    return st.sampled_from(([], [name]))


def command(name, *flags):
    return st.tuples(*flags).map(
        lambda parts: [name, *itertools.chain.from_iterable(parts)])


ALPHA0 = flag("--alpha0", floats(0.0, 10.0))
PHI = flag("--phi", floats(-10.0, 10.0))
DEGREES = switch("--phi-degrees")
X = flag("--x", floats(-5.0, 5.0), optional=True)
# DIR stands for the temporary directory of the test
OUT = flag("--out", st.sampled_from(("-", "DIR/out", "DIR/missing/out", "DIR")),
           optional=True)

COMMANDS = {
    "ratio": (40, command("ratio", ALPHA0, PHI, DEGREES)),
    "prepare": (40, command("prepare", ALPHA0, PHI, DEGREES, X, OUT)),
    "sweep": (30, command(
        "sweep", flag("--alpha0-min", floats(0.0, 5.0), optional=True),
        flag("--alpha0-max", floats(0.0, 10.0), optional=True),
        flag("--phi-min", floats(-3.2, 3.2), optional=True),
        flag("--phi-max", floats(-3.2, 3.2), optional=True),
        flag("--alpha0-steps", ints(2, 50)), flag("--phi-steps", ints(2, 50)),
        OUT)),
    "optimize": (30, command(
        "optimize", flag("--phi", floats(0.0, math.pi)), DEGREES,
        flag("--k", ints(0, 10 ** 19), optional=True),
        switch("--no-validate"))),
    "window": (30, command(
        "window", ALPHA0, PHI, DEGREES,
        flag("--epsilons", float_lists(1e-4, 2.0, 3), optional=True),
        flag("--format", st.sampled_from(("csv", "json")), optional=True),
        OUT)),
    "wigner": (30, command(
        "wigner", flag("--alpha0", floats(0.0, 5.0)), PHI, DEGREES, X,
        flag("--state", st.sampled_from(("prepared", "cat")), optional=True),
        flag("--half-extent", floats(0.1, 10.0), optional=True),
        flag("--points", ints(2, 50)), OUT)),
    "validate": (25, command(
        "validate", flag("--alpha0-values", float_lists(0.1, 2.5, 2)),
        flag("--phi-values", float_lists(0.01, 3.0, 2)),
        flag("--tolerance", floats(0.0, 1e-6), optional=True))),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    if code == 0:
        assert err == "", argv
    elif code == 1:
        # validate's failure: the worst deviation printed exceeds the tolerance
        lines = out.splitlines()
        assert argv[0] == "validate" and err == "", argv
        assert lines[-1] == "validation FAILED", argv
        worst = float(lines[1].split()[3])
        tolerance = float(lines[2].split()[2])
        assert worst >= tolerance, argv
    elif code == 3:
        # --out names a path that cannot be written
        assert out == "", (argv, out)
        assert err.startswith("i/o error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert code == 2 and out == "", (argv, code, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("name", COMMANDS)
def test_every_run_exits_cleanly(name):
    examples, argvs = COMMANDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        in_tmp = argvs.map(lambda argv: [a.replace("DIR", tmp) for a in argv])
        settings(FUZZ, max_examples=examples)(given(in_tmp)(check))()
