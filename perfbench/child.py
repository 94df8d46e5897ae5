"""One measured process of the benchmark: set-up, warm-up, then timed ops.

    python3 perfbench/child.py WORKLOAD SEED BUDGET_S TRACE CPU OUT_DIR

run.py starts it with the package on PYTHONPATH and BLAS/OMP pinned to one
thread; the child pins itself to CPU.  The inputs depend on WORKLOAD and
SEED only, and the amount of work on BUDGET_S only: round(BUDGET_S *
cycles_per_s) whole cycles (at least one), each op run once.  So every child
of a run, and every commit, times the same op sequence, and no process sees
the same input twice.  Every output is checked, outside the timing.  It
prints one JSON line: the monotonic time of the first timed op (run.py
subtracts its spawn time to get set-up time), each op's time, failures,
ru_maxrss and, when TRACE is 1, the per-layer metrics of tracer.py.
"""

import json
import os
import random
import resource
import sys
import time
import traceback

import workloads
import tracer as tracer_mod


def main(argv):
    name, seed, budget, trace, cpu, out_dir = argv
    os.sched_setaffinity(0, {int(cpu)})
    budget = float(budget)
    wl = workloads.WORKLOADS[name]
    n_cycles = max(1, round(budget * wl.cycles_per_s))
    rng = random.Random(f"{name}/{seed}")
    tracer = None
    if trace == "1":
        tracer = tracer_mod.Tracer()
        tracer.install()
    wl.warm_up(rng, out_dir)
    ops = [op for cycle, _ in zip(wl.cycles(rng, out_dir), range(n_cycles))
           for op in cycle]

    times = []
    failures = []
    bytes_written = 0
    max_deviation = 0.0
    perf = time.perf_counter
    first = time.monotonic()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            out = op.run()
        except Exception:  # an op that raises counts as failed
            out = None
            error = traceback.format_exc(limit=3)
        else:
            error = None
        times.append(perf() - t0)
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                stats = op.check(out) or {}
            except workloads.CheckFailed as exc:
                error = f"{op.kind}: {exc}"
            else:
                bytes_written += stats.get("bytes_written", 0)
                max_deviation = max(max_deviation, stats.get("max_deviation", 0.0))
        if tracer is not None:
            tracer.enabled = True
        if error is not None:
            failures.append(error)

    result = {
        "first_op_monotonic": first,
        "times_s": times,
        "failed": len(failures),
        "failures": failures[:5],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(ops))
        layers["cli.bytes_written"] = bytes_written / len(ops)
        layers["crosscheck.max_deviation"] = max_deviation
        result["layers"] = layers
        result["trace_missing"] = tracer.missing
        tracer.write(os.path.join(out_dir, f"spans-{name}.csv"))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
