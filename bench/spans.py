"""Spans around the calls into each solver module, and the per-layer metrics.

Hooks replace a function at the import site where the program looks it up
(``flexcep.pha.solve``, not ``flexcep.solvers.solve``), so nothing under
``src/`` changes. A span records name, start, end and parent; spans are kept
in memory and written out when the run ends. A span's self time is its
duration minus the durations of its children; the benchmark runs one solver
thread, so children never overlap and the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import statistics
import time
from typing import Callable

import numpy as np


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = math.nan
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(id=len(self.spans), name=name, parent=parent, start=time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh, default=str)


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: str
    # annotate(span, args, kwargs, result) records counts on the span
    annotate: Callable | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


def _rows_built(span, args, kwargs, result):
    span.attrs["rows"] = result[0].num_rows


def _pwl_cut_rows(span, args, kwargs, result):
    span.attrs["cut_rows"] = result.num_rows - args[0].num_rows


def _backend_counts(span, args, kwargs, result):
    cons = kwargs.get("constraints")
    if cons is not None:
        a = cons.A
        span.attrs["rows"] = a.shape[0]
        span.attrs["nnz"] = int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))
    span.attrs["mip_nodes"] = int(getattr(result, "mip_node_count", None) or 0)
    span.attrs["failed"] = result.status == 4  # scipy.milp: "other" failure


def _incumbent_outcome(span, args, kwargs, result):
    span.attrs["upper"] = None if result is None else float(result[0])


def _pha_outcome(span, args, kwargs, result):
    report, state = result
    span.attrs["iterations"] = state.iteration
    span.attrs["lower_bounds"] = [row.lower_bound for row in report.trace]


HOOKS = (
    Hook("flexcep.cli", "run_pha", "pha.run", _pha_outcome),
    Hook("flexcep.cli", "solve", "solvers.solve"),
    Hook("flexcep.cli", "build_extensive_form", "build.ef", _rows_built),
    Hook("flexcep.cli", "report_from_solution", "report.from_solution"),
    Hook("flexcep.pha", "build_scenario_subproblem", "build.subproblem", _rows_built),
    Hook("flexcep.pha", "build_extensive_form", "build.ef", _rows_built),
    Hook("flexcep.pha", "solve", "solvers.solve"),
    Hook("flexcep.pha", "lagrangian_lower_bound", "pha.lb_sweep"),
    Hook("flexcep.pha", "exact_candidate_evaluation", "pha.incumbent", _incumbent_outcome),
    Hook("flexcep.pha", "report_from_solution", "report.from_solution"),
    Hook("flexcep.pha", "validate_instance", "core.validate"),
    Hook("flexcep.solvers", "expand_quadratic", "solvers.pwl", _pwl_cut_rows),
    Hook("flexcep.solvers", "milp", "solvers.backend", _backend_counts),
    Hook("flexcep.build", "validate_instance", "core.validate"),
    Hook("flexcep.storage", "load_instance", "storage.load"),
    Hook("flexcep.storage", "save_report", "storage.save_report"),
    Hook("flexcep.storage", "validate_instance", "core.validate"),
)


@contextlib.contextmanager
def hooked(hooks, wrap):
    """Install ``wrap(hook, original)`` at each hook's site; restore on exit.

    Yields ``{target: (span name, reason)}`` for hooks whose target does not exist.
    """
    installed = []
    missing = {}
    try:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError) as exc:
                missing[hook.target] = (hook.span, f"hook target {hook.target} missing: {exc}")
                continue
            setattr(module, hook.attr, wrap(hook, original))
            installed.append((module, hook.attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(installed):
            setattr(module, attr, original)


def span_wrapper(tracer: Tracer):
    """A ``wrap`` for :func:`hooked` that records one span per call."""
    def wrap(hook: Hook, original):
        def traced(*args, **kwargs):
            with tracer.span(hook.span) as s:
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    s.attrs["raised"] = True
                    raise
                if hook.annotate is not None:
                    hook.annotate(s, args, kwargs, result)
                return result
        return traced
    return wrap


def _noop():
    return None


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra time one span adds to a call, measured on a no-op call."""
    tracer = Tracer()
    traced = span_wrapper(tracer)(Hook("", "", "probe"), _noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, better, source spans separated by "|")
PER_LAYER = {
    "storage.load_s": ("s", "lower", "storage.load"),
    "storage.save_report_s": ("s", "lower", "storage.save_report"),
    "core.validate.calls": ("count", "lower", "core.validate"),
    "core.validate_s": ("s", "lower", "core.validate"),
    "build.ef.calls": ("count", "lower", "build.ef"),
    "build.ef_s": ("s", "lower", "build.ef"),
    "build.subproblem.calls": ("count", "lower", "build.subproblem"),
    "build.subproblem_s": ("s", "lower", "build.subproblem"),
    "build.rows": ("count", "lower", "build.ef|build.subproblem"),
    "solvers.solve.calls": ("count", "lower", "solvers.solve"),
    "solvers.solve.self_s": ("s", "lower", "solvers.solve"),
    "solvers.pwl.calls": ("count", "lower", "solvers.pwl"),
    "solvers.pwl_s": ("s", "lower", "solvers.pwl"),
    "solvers.pwl.cut_rows": ("count", "lower", "solvers.pwl"),
    "solvers.backend.calls": ("count", "lower", "solvers.backend"),
    "solvers.backend_s": ("s", "lower", "solvers.backend"),
    "solvers.backend.rows": ("count", "lower", "solvers.backend"),
    "solvers.backend.nnz": ("count", "lower", "solvers.backend"),
    "solvers.backend.mip_nodes": ("count", "lower", "solvers.backend"),
    "solvers.backend.failed": ("count", "lower", "solvers.backend"),
    "pha.iterations": ("count", "lower", "pha.run"),
    "pha.iterate.solves": ("count", "lower", "pha.run"),
    "pha.iterate_s": ("s", "lower", "pha.run"),
    "pha.lb_sweep.calls": ("count", "lower", "pha.lb_sweep"),
    "pha.lb_sweep_s": ("s", "lower", "pha.lb_sweep"),
    "pha.lb_sweep.improved_ratio": ("ratio", "higher", "pha.lb_sweep"),
    "pha.incumbent.calls": ("count", "lower", "pha.incumbent"),
    "pha.incumbent_s": ("s", "lower", "pha.incumbent"),
    "pha.incumbent.accepted_ratio": ("ratio", "higher", "pha.incumbent"),
    "pha.incumbent.improved_ratio": ("ratio", "higher", "pha.incumbent"),
    "pha.self_s": ("s", "lower", "pha.run"),
    "report.from_solution_s": ("s", "lower", "report.from_solution"),
    "cli.solve_s": ("s", "lower", "cli.solve"),
    "cli.self_s": ("s", "lower", "cli.solve"),
    "trace.overhead_s": ("s", "lower", "cli.solve"),
}

# Self times of these span groups partition the root span's duration.
SELF_TIME_METRICS = (
    "storage.load_s", "storage.save_report_s", "core.validate_s", "build.ef_s",
    "build.subproblem_s", "solvers.solve.self_s", "solvers.pwl_s", "solvers.backend_s",
    "pha.self_s", "report.from_solution_s", "cli.self_s",
)


@dataclasses.dataclass(frozen=True)
class Missing:
    reason: str


def layer_metrics(tracer: Tracer, root: Span, missing_hooks: dict) -> dict:
    """Per-layer metrics of the spans under ``root`` (``trace.overhead_s`` excluded).

    A metric whose source span never occurred is a :class:`Missing`: either
    its hook target does not exist or the hook never fired.
    """
    own = tracer.self_times()
    tree = [s for s in tracer.spans if s is root or _descends(tracer, s, root)]
    by_name: dict[str, list[Span]] = {}
    for s in tree:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(own[s.id] for n in names for s in spans(n))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans(name))

    pha_runs = spans("pha.run")
    pha_ids = {s.id for s in pha_runs}
    iterate = [s for s in tree if s.parent in pha_ids
               and s.name in ("build.subproblem", "solvers.solve")]
    incumbents = spans("pha.incumbent")
    accepted = [s.attrs["upper"] for s in incumbents if s.attrs.get("upper") is not None]
    improved_upper, best = 0, math.inf
    for upper in accepted:
        if upper < best:
            improved_upper, best = improved_upper + 1, upper
    improved_lower = 0
    for s in pha_runs:
        lbs = s.attrs.get("lower_bounds", [])
        improved_lower += sum(1 for a, b in zip(lbs, lbs[1:])
                              if a is not None and b is not None and b > a)
    n_lb, n_inc = len(spans("pha.lb_sweep")), len(incumbents)

    values = {
        "storage.load_s": self_s("storage.load"),
        "storage.save_report_s": self_s("storage.save_report"),
        "core.validate.calls": len(spans("core.validate")),
        "core.validate_s": self_s("core.validate"),
        "build.ef.calls": len(spans("build.ef")),
        "build.ef_s": self_s("build.ef"),
        "build.subproblem.calls": len(spans("build.subproblem")),
        "build.subproblem_s": self_s("build.subproblem"),
        "build.rows": attr_sum("build.ef", "rows") + attr_sum("build.subproblem", "rows"),
        "solvers.solve.calls": len(spans("solvers.solve")),
        "solvers.solve.self_s": self_s("solvers.solve"),
        "solvers.pwl.calls": len(spans("solvers.pwl")),
        "solvers.pwl_s": self_s("solvers.pwl"),
        "solvers.pwl.cut_rows": attr_sum("solvers.pwl", "cut_rows"),
        "solvers.backend.calls": len(spans("solvers.backend")),
        "solvers.backend_s": self_s("solvers.backend"),
        "solvers.backend.rows": attr_sum("solvers.backend", "rows"),
        "solvers.backend.nnz": attr_sum("solvers.backend", "nnz"),
        "solvers.backend.mip_nodes": attr_sum("solvers.backend", "mip_nodes"),
        "solvers.backend.failed": sum(1 for s in spans("solvers.backend")
                                      if s.attrs.get("failed") or s.attrs.get("raised")),
        "pha.iterations": attr_sum("pha.run", "iterations"),
        "pha.iterate.solves": sum(1 for s in iterate if s.name == "solvers.solve"),
        "pha.iterate_s": sum(s.duration for s in iterate),
        "pha.lb_sweep.calls": n_lb,
        "pha.lb_sweep_s": sum(s.duration for s in spans("pha.lb_sweep")),
        "pha.lb_sweep.improved_ratio": improved_lower / n_lb if n_lb else None,
        "pha.incumbent.calls": n_inc,
        "pha.incumbent_s": sum(s.duration for s in incumbents),
        "pha.incumbent.accepted_ratio": len(accepted) / n_inc if n_inc else None,
        "pha.incumbent.improved_ratio": improved_upper / n_inc if n_inc else None,
        "pha.self_s": self_s("pha.run", "pha.lb_sweep", "pha.incumbent"),
        "report.from_solution_s": self_s("report.from_solution"),
        "cli.solve_s": root.duration,
        "cli.self_s": own[root.id],
    }

    out = {}
    for name, value in values.items():
        sources = PER_LAYER[name][2].split("|")
        if value is not None and any(spans(n) for n in sources):
            out[name] = value
            continue
        gone = [reason for span, reason in missing_hooks.values() if span in sources]
        out[name] = Missing("; ".join(gone) or "hook never fired on this workload")
    return out


def _descends(tracer: Tracer, span: Span, root: Span) -> bool:
    while span.parent is not None:
        span = tracer.spans[span.parent]
        if span is root:
            return True
    return False
