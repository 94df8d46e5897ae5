"""The benchmark's workloads still find every package name they call.

perfbench/workloads.py calls into the package by name
(crosscheck.window_metrics_analytic, protocol.report, cli.main, ...).
Running each workload's warm-up here, which also checks the outputs of its
ops, takes a fraction of a second in all and makes a renamed or deleted name
fail the tests, not only the benchmark.  The module is imported as it is.
The workloads' seeded alpha0 draw is checked against the truncation rule it
copies.
"""

import importlib
import json
import math
import os
import random

import pytest

from catforge.fock_oracle import choose_truncation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SQRT2 = math.sqrt(2.0)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    NAMES = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH_DIR)
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", NAMES)
def test_warm_up_runs(workloads, name, tmp_path):
    workloads.WORKLOADS[name].warm_up(random.Random(7), str(tmp_path))


def test_alpha0_for_dim_lands_on_its_dimension(workloads):
    # alpha0_for_dim copies choose_truncation's formula so that every
    # validate-cold op runs at a dimension new to its process; a change of
    # the truncation rule must fail here, not skew the benchmark
    dims = {base + c for base in workloads.COLD_DIM_BASES
            for c in range(workloads.COLD_MAX_CYCLES)}
    dims.update(workloads.WINDOW_DIMS)
    rng = random.Random(7)
    for dim in sorted(dims):
        for _ in range(20):
            alpha0 = workloads.alpha0_for_dim(rng, dim)
            assert choose_truncation(SQRT2 * alpha0) == dim
