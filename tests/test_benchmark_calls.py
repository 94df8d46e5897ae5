"""The benchmark's workloads still find every package name they call.

perfbench/workloads.py calls into the package by name
(crosscheck.window_metrics_analytic, protocol.report, cli.main, ...).
Running each workload's warm-up here, which also checks the outputs of its
ops, takes a fraction of a second in all and makes a renamed or deleted name
fail the tests, not only the benchmark.  The module is imported as it is.
"""

import importlib
import json
import os
import random

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
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
