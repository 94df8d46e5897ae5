"""Re-measure the ROADMAP re-anchor rows that the benchmark workloads cover.

    python3 perfbench/baseline.py

Each cold row runs in its own fresh process (the beam-splitter block cache
is per process); warm rows repeat inside one process after a warm-up call.
Processes get the same pinned thread counts as run.py.  Prints the re-anchor
value next to the median (and minimum) of REPEATS fresh processes now.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
from run import PINNED, ROOT, SRC  # noqa: E402

REPEATS = 3

# (key, row label, value at re-anchor 1 as written in ROADMAP.md)
ROWS = (
    ("bs_cold_57", "fock_oracle.bs_cold_s, dim 57 (alpha0 = 2)", "0.3 s"),
    ("bs_cold_81", "fock_oracle.bs_cold_s, dim 81 (alpha0 = 3)", "0.9-1.2 s"),
    ("sweep_500", "sweep_ratio 500x500 (eval only, warm)", "1.3-1.7 s"),
    ("bs_warm_81", "apply_beam_splitter dim 81, warm", "1.4 ms"),
)


def measure(key):
    """One sample, in seconds, taken in this (fresh) process."""
    import numpy as np
    from catforge import fock_oracle, optimize_sweep

    perf = time.perf_counter
    if key.startswith("bs_"):
        dim = int(key.rsplit("_", 1)[1])
        amps = np.zeros((dim, dim), dtype=complex)
        amps[1, 0] = 1.0
        t0 = perf()
        fock_oracle.apply_beam_splitter(amps)
        cold = perf() - t0
        if key.startswith("bs_cold"):
            return cold
        times = []
        for _ in range(20):
            t0 = perf()
            fock_oracle.apply_beam_splitter(amps)
            times.append(perf() - t0)
        return statistics.median(times)
    grid = optimize_sweep.GridSpec()
    optimize_sweep.sweep_ratio(optimize_sweep.GridSpec(alpha0_steps=50, phi_steps=50))
    t0 = perf()
    optimize_sweep.sweep_ratio(grid)
    return perf() - t0


def sample(key):
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--sample", key], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: sample {key} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sample", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.sample:
        print(json.dumps(measure(args.sample)))
        return
    print(f"{'path':46s} {'re-anchor':>10s} {'median now':>11s} {'min now':>9s}")
    for key, label, then in ROWS:
        vals = [sample(key) for _ in range(REPEATS)]
        scale, unit = (1e3, "ms") if key.startswith("bs_warm") else (1.0, "s")
        med, low = statistics.median(vals) * scale, min(vals) * scale
        print(f"{label:46s} {then:>10s} {med:>8.3g} {unit:2s} {low:>6.3g} {unit}")


if __name__ == "__main__":
    main()
