"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with --seconds 1 (at least
one whole cycle per child).  The test asserts the result contract, that every
metric named in BENCHMARK.json is emitted with its unit, and that no op fails
on the current code.
"""

import json
import os
import subprocess

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr  # failed_frac == 0
    assert result["correct"] is True
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

