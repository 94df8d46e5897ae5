"""catforge benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload points --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Each run starts fresh child processes
(perfbench/child.py), two at a time on separate CPUs, with OPENBLAS/OMP/MKL
pinned to one thread:

* --trace 0: CHILDREN[workload] children that run the same ops, each with
  the work of an equal share of --seconds; prints the end-to-end metrics.
* --trace 1: two untraced and two traced children on the same ops, each
  kind once on each CPU and each with the work of one child above; prints
  the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Above it come a readable table (with failed_frac and
the tail percentile used) and an env record; the full record, per-child
details included, is written to .perfbench_out/result-<workload>.json.
See perfbench/README.md for the definitions.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# fresh processes per run, each timing the whole op sequence once.  An op's
# time is its best over them, so more children give each op more samples at
# more distinct times; each child pays its set-up (about 0.5 s on `points`,
# 1.2 s with the cold beam-splitter builds of `window`), which caps the
# count within the wall time of a run.
CHILDREN = {"points": 32, "landscape": 16, "window": 16, "validate-cold": 16}
CONCURRENT = 2
RUN_DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

sys.path.insert(0, BENCH_DIR)
from tracer import PER_LAYER  # noqa: E402  (stdlib-only; no package import)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
WORKLOAD_NAMES = ("points", "landscape", "window", "validate-cold")
# fixed per workload so that runs stay comparable.  A tail of per-op best
# times over the children reads the intrinsic cost of the slowest op kinds;
# p99 of `points` swung by 40% between runs (slow host phases outlasting
# every copy of some ops), so p90 is the highest steady one.  `landscape` has 8 distinct
# ops and its max is the 300x300 sweep.
TAIL_PCT = {"points": 90.0, "landscape": 100.0, "window": 90.0,
            "validate-cold": 90.0}


class ChildFailed(Exception):
    pass


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks."""
    pos = pct / 100.0 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _start_child(workload, seed, budget, trace, cpu):
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), workload,
            str(seed), repr(budget), str(trace), str(cpu), OUT_DIR]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return proc, spawned


def _finish_child(workload, proc, spawned, deadline):
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child passed the run deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n{err[-4000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["first_op_monotonic"] - spawned
    res["ops_per_s"] = len(res["times_s"]) / sum(res["times_s"])
    return res


def run_children(workload, seed, budget, traces, deadline):
    """One child per entry of traces, CONCURRENT at a time, each on its own CPU.

    The host's slow phases often hit one CPU and not the other, so running
    the copies of an op on both CPUs makes its best time steadier.
    """
    cpus = sorted(os.sched_getaffinity(0))
    width = min(CONCURRENT, len(cpus))
    results = []
    for start in range(0, len(traces), width):
        batch = [_start_child(workload, seed, budget, trace, cpus[i])
                 for i, trace in enumerate(traces[start:start + width])]
        try:
            results += [_finish_child(workload, proc, spawned, deadline)
                        for proc, spawned in batch]
        finally:
            for proc, _ in batch:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
    return results


def best_times(children):
    """Each op's best time over the children.

    Every child runs the same op sequence once in a fresh process, so the
    minimum drops the slow phases of the shared host core (see README.md).
    """
    return [min(ts) for ts in zip(*(c["times_s"] for c in children), strict=True)]


def end_to_end(workload, children):
    best = best_times(children)
    lat = sorted(best)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * percentile(lat, TAIL_PCT[workload]),
        "peak_rss_mb": statistics.median(c["maxrss_kib"] for c in children) / 1024.0,
    }


def env_record():
    def git_sha():
        try:
            top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = top.stdout.split()
        if top.returncode != 0 or len(lines) != 2 or \
                os.path.realpath(lines[0]) != os.path.realpath(ROOT):
            return None  # not a git checkout of its own
        return lines[1]

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        **PINNED,
    }


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    budget = seconds / CHILDREN[workload]
    if trace:
        # each kind runs once on each CPU, so a slow CPU biases neither
        children = run_children(workload, seed, budget, [0, 1, 1, 0], deadline)
        plain = [c for c in children if "layers" not in c]
        traced = [c for c in children if "layers" in c]
        rates = [len(best) / sum(best)
                 for best in (best_times(plain), best_times(traced))]
        metrics = dict(traced[0]["layers"])
        metrics["trace.ops_per_s"] = rates[1]
        metrics["trace.overhead_frac"] = 1.0 - rates[1] / rates[0]
        units = PER_LAYER
    else:
        children = run_children(workload, seed, budget,
                                [0] * CHILDREN[workload], deadline)
        metrics = end_to_end(workload, children)
        units = END_TO_END
    attempted = sum(len(c["times_s"]) for c in children)
    failed = sum(c["failed"] for c in children)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "tail_percentile": TAIL_PCT[workload],
        "failures": [f for c in children for f in c["failures"]][:5],
        "trace_missing": next((c["trace_missing"] for c in children
                               if "trace_missing" in c), []),
        "children": [{k: c[k] for k in ("setup_s", "ops_per_s", "maxrss_kib",
                                        "failed")}
                     | {"ops": len(c["times_s"])} for c in children],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record


def print_table(record):
    w = record["workload"]
    print(f"== {w}  seed={record['seed']}  seconds={record['seconds']}  "
          f"trace={record['trace']}  ops={record['attempted']}  "
          f"failed_frac={record['failed_frac']:.6g} ratio")
    if not record["trace"]:
        print(f"   (latency_tail_ms is p{record['tail_percentile']:g})")
    for name, m in record["metrics"].items():
        print(f"   {name:40s} {m['value']:>16.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"   FAILED: {f}", file=sys.stderr)
    for t in record["trace_missing"]:
        print(f"   trace target not found: {t}", file=sys.stderr)


def summary(record):
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "catforge", "__init__.py")):
        print(f"error: no catforge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = env_record()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        record["env"] = env
        with open(os.path.join(OUT_DIR, f"result-{name}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        print_table(record)
        results[name] = summary(record)
    print("env " + json.dumps(env))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
