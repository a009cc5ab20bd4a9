"""Spans around the program's public layer functions, and per-layer metrics.

``Tracer.install`` replaces each traced function with a wrapper in every
``beliefpomdp`` module namespace that binds it (``build_grid``, for
example, is imported into ``cli``, ``quickest`` and ``structure``), so no
call bypasses its span.  ``uninstall`` puts the originals back, which
lets one process alternate traced and untraced passes.

A span records its name, parent span, run id, start and end.  Counts are
taken from arguments and return values after the end timestamp; the
time the wrapper itself spends (its ``footprint`` beyond the call) is
subtracted from the parent's self time.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(a) -> int:
    a = np.asarray(a)
    return a.shape[0] if a.ndim == 2 else 1


def _report_counts(args, kwargs, r):
    if not hasattr(r, "holds") or not hasattr(r, "samples"):
        return {}  # blackwell_factorize, matrix_root and conjecture_probe return no report
    return {"reports": 1, "reports_violated": int(not r.holds), "samples": int(r.samples)}


def _tables_counts(args, kwargs, t):
    arrays = (t.cost, t.sigma, t.vert_idx, t.vert_w)
    return {
        "nonzeros": int(np.count_nonzero(t.vert_w)),
        "bytes": sum(a.nbytes for a in arrays),
    }


def _written(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


#: structure verifiers by the name their per-layer metric uses
VERIFIERS = {
    "concavity": "verify_concavity",
    "stopping_convex": "verify_stopping_set_convex",
    "mlr_monotone": "verify_mlr_monotone_value",
    "homogeneity": "verify_homogeneity",
    "myopic_bound": "verify_myopic_bound",
    "fosd_cost": "fosd_decreasing_cost",
    "tp2": "is_tp2",
    "ultrametric": "is_ultrametric",
    "blackwell": "blackwell_factorize",
    "matrix_root": "matrix_root",
    "conjecture_probe": "conjecture_probe",
}

#: (module, attribute, layer, counter) for every traced function
TARGETS = [
    ("grid", "build_grid", "grid.build", lambda a, k, r: {"points": r.num_points}),
    ("grid", "SimplexGrid.barycentric", "grid.barycentric",
     lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "queries"))}),
    ("solver", "build_tables", "solver.tables", _tables_counts),
    *[
        ("solver", name, "solver.solve",
         lambda a, k, r: {"sweeps": r.log.iterations,
                          "point_sweeps": r.log.iterations * _arg(a, k, 1, "grid").num_points})
        for name in ("solve_discounted", "solve_stopping", "solve_relaxed")
    ],
    ("costs", "instantaneous_cost_batch", "costs.batch",
     lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "beliefs"))}),
    ("simulate", "evaluate_policy", "simulate", None),
    ("simulate", "compare_policies", "simulate", None),
    ("simulate", "simulate_path_costs", "simulate",
     lambda a, k, r: {"path_steps": _arg(a, k, 3, "num_paths") * _arg(a, k, 4, "horizon")}),
    ("quickest", "qd_threshold", "quickest.threshold", None),
    ("quickest", "ks_cost_estimate", "quickest.mc",
     lambda a, k, r: {"paths": _arg(a, k, 2, "num_paths")}),
    *[("structure", fn, f"structure.{name}", _report_counts) for name, fn in VERIFIERS.items()],
    ("model", "load_model", "cli.load", None),
    ("cli", "write_csv", "cli.write", _written),
    ("cli", "write_json", "cli.write", _written),
]


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    name: str
    layer: str
    run: str
    start: int
    end: int
    footprint: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.run = ""
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, fn, name, layer, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = perf_counter_ns()
            span = Span(len(spans), stack[-1] if stack else -1, name, layer, self.run, 0, 0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                span.footprint = span.end - pre
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            span.footprint = perf_counter_ns() - pre
            return result

        return wrapper

    def install(self):
        """Wrap every target in each loaded ``beliefpomdp`` module that binds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "beliefpomdp"]
        for module_name, attr, layer, counter in TARGETS:
            owner = sys.modules[f"beliefpomdp.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, attr, layer, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, attr, layer, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def records(self) -> list:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer, "run": s.run,
             "start_ns": s.start, "end_ns": s.end, "counts": s.counts}
            for s in self.spans
        ]


#: counts that must repeat exactly between traced passes of one run
REPEATING_COUNTS = (
    "grid.points_built",
    "solver.sweeps",
    "solver.table_nonzeros",
    "simulate.path_steps",
    "structure.samples",
)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    by_id = {s.id: s for s in spans}
    within = {}  # span id -> set of layers among its ancestors

    def ancestors(s):
        if s.id not in within:
            p = by_id.get(s.parent)
            within[s.id] = set() if p is None else ancestors(p) | {p.layer}
        return within[s.id]

    child_time = {}
    for s in spans:
        child_time[s.parent] = child_time.get(s.parent, 0) + s.footprint

    def dur(s):
        return (s.end - s.start) / 1e9

    def total(layer, outermost=True):
        picked = [s for s in spans if s.layer == layer]
        if outermost:
            picked = [s for s in picked if layer not in ancestors(s)]
        return picked

    def count(picked, key):
        return sum(s.counts.get(key, 0) for s in picked)

    def ratio(a, b, scale):
        return a * scale / b if b else 0.0

    m = {}
    builds = total("grid.build")
    m["grid.build_s"] = (sum(map(dur, builds)), "s")
    m["grid.build_calls"] = (len(builds), "count")
    m["grid.points_built"] = (count(builds, "points"), "count")

    bary = total("grid.barycentric")
    bary_s = sum(map(dur, bary))
    rows = count(bary, "rows")
    m["grid.barycentric_s"] = (bary_s, "s")
    m["grid.barycentric_calls"] = (len(bary), "count")
    m["grid.barycentric_rows"] = (rows, "count")
    m["grid.barycentric_ns_per_row"] = (ratio(bary_s, rows, 1e9), "ns")

    tables = total("solver.tables")
    m["solver.tables_s"] = (sum(map(dur, tables)), "s")
    m["solver.table_nonzeros"] = (count(tables, "nonzeros"), "count")
    m["solver.table_bytes_computed"] = (count(tables, "bytes"), "B")

    solves = total("solver.solve")
    iterate_s = sum(dur(s) - child_time.get(s.id, 0) / 1e9 for s in solves)
    sweeps = count(solves, "sweeps")
    m["solver.solve_calls"] = (len(solves), "count")
    m["solver.sweeps"] = (sweeps, "count")
    m["solver.iterate_s"] = (iterate_s, "s")
    m["solver.ns_per_point_sweep"] = (ratio(iterate_s, count(solves, "point_sweeps"), 1e9), "ns")
    m["solver.us_per_sweep"] = (ratio(iterate_s, sweeps, 1e6), "us")

    costs = total("costs.batch")
    m["costs.batch_s"] = (sum(map(dur, costs)), "s")
    m["costs.batch_calls"] = (len(costs), "count")
    m["costs.rows"] = (count(costs, "rows"), "count")

    sims = total("simulate")
    sim_s = sum(map(dur, sims))
    steps = count(total("simulate", outermost=False), "path_steps")
    m["simulate.evaluate_s"] = (sim_s, "s")
    m["simulate.path_steps"] = (steps, "count")
    m["simulate.ns_per_path_step"] = (ratio(sim_s, steps, 1e9), "ns")
    m["simulate.lookup_s"] = (sum(dur(s) for s in bary if "simulate" in ancestors(s)), "s")

    mc = total("quickest.mc")
    m["quickest.threshold_s"] = (sum(map(dur, total("quickest.threshold"))), "s")
    m["quickest.mc_s"] = (sum(map(dur, mc)), "s")
    m["quickest.paths"] = (count(mc, "paths"), "count")

    verifiers = [
        s for s in spans
        if s.layer.startswith("structure.") and not any(a.startswith("structure.") for a in ancestors(s))
    ]
    m["structure.verify_s"] = (sum(map(dur, verifiers)), "s")
    for name in VERIFIERS:
        m[f"structure.{name}_s"] = (sum(dur(s) for s in verifiers if s.layer == f"structure.{name}"), "s")
    m["structure.samples"] = (count(verifiers, "samples"), "count")
    m["structure.reports"] = (count(verifiers, "reports"), "count")
    m["structure.reports_violated"] = (count(verifiers, "reports_violated"), "count")

    writes = total("cli.write")
    m["cli.load_s"] = (sum(map(dur, total("cli.load"))), "s")
    m["cli.write_s"] = (sum(map(dur, writes)), "s")
    m["cli.bytes_written"] = (count(writes, "bytes"), "B")
    return m


def summarize(passes: list) -> dict:
    """Median of each metric over the traced passes of one run."""
    return {
        n: (statistics.median(p[n][0] for p in passes), unit)
        for n, (_, unit) in passes[0].items()
    }
