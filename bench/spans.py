"""Spans around calls into each flowuq layer, recorded from outside the
package.

``Tracer.install`` replaces each traced public function at every module
attribute of the loaded ``flowuq`` modules that holds it (for example both
``flowuq.gravity.fit_ppml`` and ``flowuq.cli.fit_ppml``), and ``uninstall``
puts the originals back.  The package source is never modified.  Spans live
in memory: name, start, end, parent span and the command they belong to,
plus a few counters read from the return value or the exception.

Spans are recorded in the calling process only.  Work a process pool does in
forked workers is not seen; only the parent-side spans are.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _solver_attrs(out, exc):
    if exc is not None:
        return {"failed": 1, "iters": getattr(exc, "iterations", 0),
                "residual": getattr(exc, "residual", float("nan"))}
    return {"failed": 0, "iters": out.iterations, "residual": out.residual}


def _ppml_attrs(out, exc):
    return {"failed": 1} if exc is not None else {"failed": 0, "iters": out.iterations}


def _sample_attrs(out, exc):
    return {} if exc is not None else {"degenerate": out[1]}


def _no_attrs(out, exc):
    return {}


# (module, function) -> how to read counters off the call.  dataio writers
# get their byte counts from the written file in Tracer._call.
TARGETS = {
    ("flowuq.armington", "solve_counterfactual"): _solver_attrs,
    ("flowuq.gravity", "fit_ppml"): _ppml_attrs,
    ("flowuq.calibration", "sample_flow_matrix"): _sample_attrs,
    ("flowuq.calibration", "ingest_mirror_csv"): _no_attrs,
    ("flowuq.calibration", "estimate_zero_probs"): _no_attrs,
    ("flowuq.calibration", "estimate_me_variance"): _no_attrs,
    ("flowuq.calibration", "estimate_prior_means"): _no_attrs,
    ("flowuq.calibration", "estimate_prior_variances"): _no_attrs,
    ("flowuq.calibration", "shrink_variances"): _no_attrs,
    ("flowuq.engine", "run_algorithm1"): _no_attrs,
    ("flowuq.engine", "point_estimate"): _no_attrs,
    ("flowuq.robustness", "normality_diagnostic"): _no_attrs,
    ("flowuq.robustness", "gravity_partial_plot"): _no_attrs,
    ("flowuq.dataio", "read_flows_csv"): _no_attrs,
    ("flowuq.dataio", "read_costs_csv"): _no_attrs,
    ("flowuq.dataio", "read_distances_csv"): _no_attrs,
    ("flowuq.dataio", "read_params_json"): _no_attrs,
    ("flowuq.dataio", "read_cf_spec_csv"): _no_attrs,
    ("flowuq.dataio", "write_params_json"): _no_attrs,
    ("flowuq.dataio", "write_json"): _no_attrs,
    ("flowuq.dataio", "write_draws_csv"): _no_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int       # index into Tracer.spans, -1 for a root
    command: int      # index of the root span this span belongs to
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """In-memory span recorder for a single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        command = self.spans[parent].command if parent >= 0 else index
        self.spans.append(Span(name, time.perf_counter(), parent, command))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, attrs, args, kwargs):
        index = self._open(name)
        out = exc = None
        try:
            out = fn(*args, **kwargs)
            return out
        except Exception as err:
            exc = err
            raise
        finally:
            self._close(index)
            span = self.spans[index]
            span.attrs = attrs(out, exc)
            if exc is None and name.startswith("dataio.write_"):
                span.attrs["bytes"] = os.path.getsize(args[0])

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "flowuq" or k.startswith("flowuq.")]
        for (module, fname), attrs in TARGETS.items():
            fn = getattr(sys.modules[module], fname)
            name = f"{module.rpartition('.')[2]}.{fname}"
            wrapped = self._wrapper(name, fn, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def _wrapper(self, name, fn, attrs):
        def traced(*args, **kwargs):
            return self._call(name, fn, attrs, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans

SWEEP_SIZES = (10, 30, 60, 100)
SWEEP_REPS = 3

SOLVE = "armington.solve_counterfactual"
PPML = "gravity.fit_ppml"
SAMPLE = "calibration.sample_flow_matrix"
CALIBRATION_STEPS = (
    "ingest_mirror_csv",
    "estimate_zero_probs",
    "estimate_me_variance",
    "estimate_prior_means",
    "estimate_prior_variances",
    "shrink_variances",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for key in ("calls", "ms_p50", "ms_p90", "iters_p50", "iters_max", "residual_max",
                "failures", "share"):
        units[f"{SOLVE}.{key}"] = _unit(key)
    for key in ("calls", "ms_p50", "ms_p90", "iters_p50", "iters_max", "share"):
        units[f"{PPML}.{key}"] = _unit(key)
    for key in ("calls", "ms_p50", "ms_p90", "share", "degenerate_zeros"):
        units[f"{SAMPLE}.{key}"] = _unit(key)
    units["engine.run_algorithm1.ms"] = "ms"
    units["engine.point_estimate.ms"] = "ms"
    units["engine.self.share"] = "fraction"
    for step in CALIBRATION_STEPS:
        units[f"calibration.{step}.ms"] = "ms"
    units["robustness.normality_diagnostic.ms"] = "ms"
    units["robustness.gravity_partial_plot.ms"] = "ms"
    units["dataio.read.ms"] = "ms"
    units["dataio.write.ms"] = "ms"
    units["dataio.write.bytes"] = "bytes"
    units["cli.self.share"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    for n in SWEEP_SIZES:
        for key in ("ms_p50", "iters_p50"):
            units[f"{PPML}.n{n}.{key}"] = _unit(key)
        for key in ("ms_p50", "iters_p50", "failures"):
            units[f"{SOLVE}.n{n}.{key}"] = _unit(key)
    return units


def _unit(key: str) -> str:
    if key.startswith("ms"):
        return "ms"
    if key == "share":
        return "fraction"
    if key == "residual_max":
        return "1"
    return "count"


def _pct(values, q):
    """Percentile by linear interpolation; 0.0 for an empty sample."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def command_metrics(spans: list[Span], traced_walls, untraced_walls) -> dict[str, float]:
    """Per-layer metrics over the traced commands (root spans named
    ``cli.main``).  Counts, bytes and ``.ms`` totals are per command; ``_p50``
    and ``_p90`` are over individual calls; shares are of total command time.
    A layer that made no call on the workload reports zeros."""
    roots = {i for i, s in enumerate(spans) if s.parent < 0 and s.name == "cli.main"}
    commands = max(len(roots), 1)
    total_ms = sum(spans[i].ms for i in roots) or 1.0
    inside = [s for s in spans if s.command in roots and s.parent >= 0]

    def named(name):
        return [s for s in inside if s.name == name]

    def per_command(values):
        return sum(values) / commands

    out: dict[str, float] = {}
    for name, has_iters in ((SOLVE, True), (PPML, True), (SAMPLE, False)):
        calls = named(name)
        ms = [s.ms for s in calls]
        out[f"{name}.calls"] = per_command([1] * len(calls))
        out[f"{name}.ms_p50"] = _pct(ms, 0.5)
        out[f"{name}.ms_p90"] = _pct(ms, 0.9)
        out[f"{name}.share"] = sum(ms) / total_ms
        if has_iters:
            iters = [s.attrs["iters"] for s in calls if "iters" in s.attrs]
            out[f"{name}.iters_p50"] = _pct(iters, 0.5)
            out[f"{name}.iters_max"] = float(max(iters, default=0))
    solves = named(SOLVE)
    out[f"{SOLVE}.residual_max"] = max(
        (s.attrs["residual"] for s in solves if not s.attrs.get("failed")), default=0.0
    )
    out[f"{SOLVE}.failures"] = per_command([s.attrs.get("failed", 0) for s in solves])
    out[f"{SAMPLE}.degenerate_zeros"] = per_command(
        [s.attrs.get("degenerate", 0) for s in named(SAMPLE)]
    )

    algo_ids = {i for i, s in enumerate(spans) if s.command in roots
                and s.name == "engine.run_algorithm1"}
    algo = [spans[i] for i in algo_ids]
    out["engine.run_algorithm1.ms"] = per_command([s.ms for s in algo])
    out["engine.point_estimate.ms"] = per_command([s.ms for s in named("engine.point_estimate")])
    # The estimator and model adapters are not traced, so the sample, PPML
    # and solver spans of a draw are direct children of run_algorithm1.
    draw_children = [s for s in inside if s.parent in algo_ids]
    out["engine.self.share"] = (
        sum(s.ms for s in algo) - sum(s.ms for s in draw_children)
    ) / total_ms

    for step in CALIBRATION_STEPS:
        out[f"calibration.{step}.ms"] = per_command(
            [s.ms for s in named(f"calibration.{step}")]
        )
    for fn in ("normality_diagnostic", "gravity_partial_plot"):
        out[f"robustness.{fn}.ms"] = per_command([s.ms for s in named(f"robustness.{fn}")])
    reads = [s for s in inside if s.name.startswith("dataio.read_")]
    writes = [s for s in inside if s.name.startswith("dataio.write_")]
    out["dataio.read.ms"] = per_command([s.ms for s in reads])
    out["dataio.write.ms"] = per_command([s.ms for s in writes])
    out["dataio.write.bytes"] = per_command([s.attrs.get("bytes", 0) for s in writes])

    top = [s for s in inside if s.parent in roots]
    out["cli.self.share"] = (total_ms - sum(s.ms for s in top)) / total_ms
    out["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return out


def sweep_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-size PPML and solver figures from the ``sweep.n<n>`` root spans."""
    out: dict[str, float] = {}
    for n in SWEEP_SIZES:
        roots = {i for i, s in enumerate(spans) if s.parent < 0 and s.name == f"sweep.n{n}"}
        inside = [s for s in spans if s.command in roots and s.parent >= 0]
        for name in (PPML, SOLVE):
            calls = [s for s in inside if s.name == name]
            out[f"{name}.n{n}.ms_p50"] = _pct([s.ms for s in calls], 0.5)
            out[f"{name}.n{n}.iters_p50"] = _pct([s.attrs["iters"] for s in calls], 0.5)
        out[f"{SOLVE}.n{n}.failures"] = float(
            sum(s.attrs["failed"] for s in inside if s.name == SOLVE)
        )
    return out
