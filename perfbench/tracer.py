"""Call-site wrappers that record spans around the package's layer boundaries.

Nothing inside the package changes: each traced function is replaced, in
every catforge module namespace that binds it, by a wrapper that records a
span (name, start, end, parent span, op id).  Patching every binding matters
because modules import names directly (`from .cv_core import
superposition_inner` in protocol), so wrapping only the defining module would
miss those calls.  Spans stay in memory and are written out when the traced
child exits; self time is a span's duration minus its direct children's.
"""

import sys
import time

# (module, attribute, span name); "Class.method" entries are classmethods
TARGETS = (
    ("cv_core", "superposition_inner", "cv_core.gram_inner"),
    ("cv_core", "superposition_norm", "cv_core.gram_norm"),
    ("cv_core", "two_mode_inner", "cv_core.gram_inner"),
    ("cv_core", "CoherentSuperposition.from_terms", "cv_core.from_terms"),
    ("cv_core", "TwoModeSuperposition.from_terms", "cv_core.from_terms"),
    ("cv_core", "wigner_grid", "cv_core.wigner_grid"),
    ("protocol", "report", "protocol.report"),
    ("protocol", "conditional_state", "protocol.conditional_state"),
    ("protocol", "homodyne_density", "protocol.homodyne_density"),
    ("protocol", "window_metrics", "protocol.window_metrics"),
    ("fock_oracle", "apply_beam_splitter", "fock_oracle.apply_beam_splitter"),
    ("fock_oracle", "window_state", "fock_oracle.window_state"),
    ("fock_oracle", "_project", "fock_oracle.project"),
    ("crosscheck", "oracle_conditioning", "crosscheck.oracle_conditioning"),
    ("crosscheck", "window_metrics_analytic", "crosscheck.window_analytic"),
    ("optimize_sweep", "sweep_ratio", "optimize_sweep.sweep_ratio"),
    ("optimize_sweep", "find_min_alpha", "optimize_sweep.find_min_alpha"),
    ("cli", "main", "cli.main"),
)

# per-layer metrics: name -> unit.  "/op" metrics are totals over the timed
# ops divided by the op count; the others cover the whole traced child,
# warm-up included, because cold beam-splitter builds belong to set-up on
# some workloads and to the ops on others.
PER_LAYER = {
    "cv_core.gram_self_s": "s/op",
    "cv_core.gram_terms": "terms/op",
    "cv_core.from_terms_calls": "calls/op",
    "cv_core.from_terms_self_s": "s/op",
    "cv_core.wigner_grid_s": "s/op",
    "cv_core.wigner_cells": "cells/op",
    "protocol.report_self_s": "s/op",
    "protocol.conditional_state_s": "s/op",
    "protocol.homodyne_density_s": "s/op",
    "protocol.window_metrics_self_s": "s/op",
    "fock_oracle.bs_cold_s": "s",
    "fock_oracle.bs_cold_calls": "calls",
    "fock_oracle.bs_warm_s": "s/op",
    "fock_oracle.bs_warm_calls": "calls/op",
    "fock_oracle.window_state_s": "s/op",
    "fock_oracle.window_nodes": "nodes/op",
    "fock_oracle.project_s": "s/op",
    "fock_oracle.project_calls": "calls/op",
    "fock_oracle.dim_max": "dim",
    "fock_oracle.bs_cache_bytes_computed": "B",
    "crosscheck.oracle_conditioning_s": "s/op",
    "crosscheck.window_analytic_s": "s/op",
    "crosscheck.max_deviation": "abs",
    "optimize_sweep.sweep_eval_s": "s/op",
    "optimize_sweep.sweep_cells": "cells/op",
    "optimize_sweep.find_min_alpha_s": "s/op",
    "cli.self_s": "s/op",
    "cli.bytes_written": "B/op",
    "trace.ops_per_s": "op/s",
    "trace.overhead_frac": "ratio",
}


def _gram_terms(args, kwargs):
    return len(args[0].terms) * len(args[1].terms)


def _bs_dim(args, kwargs):
    return len(args[0])


def _window_nodes(args, kwargs):
    return args[2] * sys.modules["catforge.config"].GL_ORDER


def _sweep_cells(args, kwargs):
    return args[0].alpha0_steps * args[0].phi_steps


def _wigner_cells(args, kwargs):
    return len(args[1]) * len(args[2])


# a count recorded with the span, computed from the call's arguments
EXTRA = {
    ("cv_core", "superposition_inner"): _gram_terms,
    ("cv_core", "two_mode_inner"): _gram_terms,
    ("cv_core", "wigner_grid"): _wigner_cells,
    ("fock_oracle", "apply_beam_splitter"): _bs_dim,
    ("fock_oracle", "window_state"): _window_nodes,
    ("optimize_sweep", "sweep_ratio"): _sweep_cells,
}


class Tracer:
    """Span recorder; `op` is the current op id (-1 during warm-up)."""

    def __init__(self):
        self.spans = []  # [name, t0, t1, parent index, op id, extra]
        self.stack = []
        self.op = -1
        self.enabled = True
        self.missing = []

    def wrap(self, fn, name, extra):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            count = None
            if extra is not None:
                try:
                    count = extra(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed call signature loses the count, not the op
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, count]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
        return wrapper

    def install(self):
        """Patch every binding of each target in the loaded catforge modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "catforge" or n.startswith("catforge."))]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules.get(f"catforge.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, meth, None)
            if owner_name:  # classmethod: rewrap the underlying function
                fn = getattr(fn, "__func__", None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            extra = EXTRA.get((mod_name, attr))
            if owner_name:
                setattr(owner, meth, classmethod(self.wrap(fn, name, extra)))
                continue
            wrapper = self.wrap(fn, name, extra)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(f"{name},{t0:.9f},{t1:.9f},{parent},{op}\n")

    def layer_metrics(self, n_ops):
        """Aggregate the spans into the PER_LAYER metrics.

        Leaves out the ones the spans do not carry: cli.bytes_written and
        crosscheck.max_deviation (from the checked outputs) and trace.*.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        total = {}   # span name -> summed duration over timed ops
        self_s = {}  # span name -> summed self time over timed ops
        calls = {}
        extra = {}
        seen_dims = set()
        cold_s = 0.0
        cold_calls = 0
        for i, (name, t0, t1, parent, op, ext) in enumerate(self.spans):
            dur = t1 - t0
            if name == "fock_oracle.apply_beam_splitter" and ext not in seen_dims:
                # the first call at a dimension in this process builds its blocks
                seen_dims.add(ext)
                cold_s += dur
                cold_calls += 1
                continue
            if op < 0:
                continue
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            if ext is not None:
                extra[name] = extra.get(name, 0) + ext
        per_op = 1.0 / max(n_ops, 1)

        def t(name):
            return total.get(name, 0.0) * per_op

        def s(*names):
            return sum(self_s.get(n, 0.0) for n in names) * per_op

        def c(table, name):
            return table.get(name, 0) * per_op

        return {
            "cv_core.gram_self_s": s("cv_core.gram_inner", "cv_core.gram_norm"),
            "cv_core.gram_terms": c(extra, "cv_core.gram_inner"),
            "cv_core.from_terms_calls": c(calls, "cv_core.from_terms"),
            "cv_core.from_terms_self_s": s("cv_core.from_terms"),
            "cv_core.wigner_grid_s": t("cv_core.wigner_grid"),
            "cv_core.wigner_cells": c(extra, "cv_core.wigner_grid"),
            "protocol.report_self_s": s("protocol.report"),
            "protocol.conditional_state_s": t("protocol.conditional_state"),
            "protocol.homodyne_density_s": t("protocol.homodyne_density"),
            "protocol.window_metrics_self_s": s("protocol.window_metrics"),
            "fock_oracle.bs_cold_s": cold_s,
            "fock_oracle.bs_cold_calls": cold_calls,
            "fock_oracle.bs_warm_s": t("fock_oracle.apply_beam_splitter"),
            "fock_oracle.bs_warm_calls": c(calls, "fock_oracle.apply_beam_splitter"),
            "fock_oracle.window_state_s": t("fock_oracle.window_state"),
            "fock_oracle.window_nodes": c(extra, "fock_oracle.window_state"),
            "fock_oracle.project_s": t("fock_oracle.project"),
            "fock_oracle.project_calls": c(calls, "fock_oracle.project"),
            "fock_oracle.dim_max": max(seen_dims, default=0),
            "fock_oracle.bs_cache_bytes_computed": sum(map(bs_block_bytes, seen_dims)),
            "crosscheck.oracle_conditioning_s": t("crosscheck.oracle_conditioning"),
            "crosscheck.window_analytic_s": t("crosscheck.window_analytic"),
            "optimize_sweep.sweep_eval_s": t("optimize_sweep.sweep_ratio"),
            "optimize_sweep.sweep_cells": c(extra, "optimize_sweep.sweep_ratio"),
            "optimize_sweep.find_min_alpha_s": t("optimize_sweep.find_min_alpha"),
            "cli.self_s": s("cli.main"),
        }


def bs_block_bytes(dim):
    """Float64 bytes of the beam-splitter blocks of one truncation dimension.

    Block S (0 <= S <= 2 dim - 2) is square with min(S, dim - 1) -
    max(0, S - dim + 1) + 1 rows; a computed size, not a measured one.
    """
    return 8 * sum((min(s, dim - 1) - max(0, s - dim + 1) + 1) ** 2
                   for s in range(2 * dim - 1))
