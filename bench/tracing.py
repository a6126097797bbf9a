"""Spans around the library's public functions, installed from outside it.

`Tracer.install` replaces every public function of the layer modules, at
every module binding and module-level dict entry that holds it (so
`cut_table` is wrapped in both `graphs` and `simulator`, and `run_bilinear`
in `strategies`, its `STRATEGIES` table and the package root), plus the few
methods listed in `METHODS`. Each wrapper appends a span (name, start, end,
parent) to a list in memory. `restore` puts every original back.
Private kernels (`_phase_kernel`, `_mixer_kernel`, `_fd_gradient`) are left
alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("graphs", "simulator", "optimize", "strategies", "symmetry", "experiment", "cli")

# Methods that do a layer's work; the other methods are data accessors.
METHODS = {
    "simulator": {"ExpectationEvaluator": ("__init__", "expectation")},
    "experiment": {"ResultSet": ("save", "load")},
}

EXPECTATION = "simulator.ExpectationEvaluator.expectation"
OPTIMIZATION = "optimize.maximize_flat"  # every L-BFGS-B run goes through it once

# Spans whose arguments and return values the layer metrics read.
CAPTURE = frozenset(
    {
        EXPECTATION,
        OPTIMIZATION,
        "strategies.run_bilinear",
        "strategies.bilinear_predict",
        "symmetry.run_symmetry_suite",
        "experiment.ResultSet.save",
    }
)

# Self times telescope to the root span's duration; this allows for roundoff.
SELF_TIME_TOLERANCE = 1e-9

# Name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "simulator.expectation.calls": "count",
    "simulator.expectation.busy_s": "s",
    "simulator.expectation.p50_us": "us",
    "simulator.expectation.tail_us": "us",
    "simulator.expectation.tail_pct": "%",
    "simulator.amp_layers": "count",
    "simulator.ns_per_amp_layer": "ns",
    "simulator.state_bytes_computed": "bytes",
    "simulator.share": "ratio",
    "simulator.evaluators": "count",
    "graphs.generate.busy_s": "s",
    "graphs.read.busy_s": "s",
    "graphs.cut_table.calls": "count",
    "graphs.cut_table.busy_s": "s",
    "graphs.max_cut.busy_s": "s",
    "optimize.calls": "count",
    "optimize.nfev": "count",
    "optimize.nfev_per_call": "count",
    "optimize.self_s": "s",
    "optimize.converged_ratio": "ratio",
    "optimize.failed": "count",
    "strategies.runs": "count",
    "strategies.self_s": "s",
    "strategies.bilinear.start_ratio": "ratio",
    "symmetry.busy_s": "s",
    "symmetry.max_deviation": "cut",
    "experiment.self_s": "s",
    "experiment.write_s": "s",
    "experiment.results_bytes": "bytes",
    "experiment.emit_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    ok: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the library imported as `package` while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        # span name -> [(span index, args, result)] for the names in CAPTURE
        self.captured: dict[str, list[tuple[int, tuple, object]]] = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        captured = self.captured[name] if name in CAPTURE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, perf_counter(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if captured is not None:
                captured.append((index, args, result))
            return result

        return traced

    def _holders(self) -> list:
        return [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{layer}") for layer in LAYERS
        ]

    def install(self) -> None:
        holders = self._holders()
        for layer, module in zip(LAYERS, holders[1:]):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._undo.append(functools.partial(setattr, holder, key, fn))
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    value[k] = wrapper
                                    self._undo.append(functools.partial(value.__setitem__, k, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = vars(cls)[method]
                    name = f"{layer}.{cls_name}.{method}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    setattr(cls, method, wrapped)
                    self._undo.append(functools.partial(setattr, cls, method, raw))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the root around a body."""
        index = len(self.spans)
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def ancestor(self, index: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        index = self.spans[index].parent
        while index >= 0 and self.spans[index].name != name:
            index = self.spans[index].parent
        return index

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.ok] for s in self.spans]
        Path(path).write_text(json.dumps({"columns": ["name", "start", "end", "parent", "ok"], "spans": rows}))


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from one traced body; call after `restore`.

    The root span (index 0) is the body. F(phi0) for the bilinear start ratio
    is computed here with a fresh evaluator, outside every span. The caller
    adds `trace.overhead_ratio`, which needs an untraced body.
    """
    spans = tracer.spans
    own = tracer.self_times()
    body_s = spans[0].duration

    def self_of(prefix: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name.startswith(prefix))

    def busy(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    expectation = tracer.captured[EXPECTATION]
    durations = [spans[i].duration for i, _, _ in expectation]
    amp_layers = sum(phi.p << ev.graph.n for _, (ev, phi), _ in expectation)
    state_bytes = sum(
        phi.p * (ev.graph.n + 1) * 2 * 16 << ev.graph.n for _, (ev, phi), _ in expectation
    )
    busy_s = sum(durations)
    tail_s, tail_pct = tail(durations) if durations else (0.0, 0.0)

    runs = count(OPTIMIZATION)
    converged = sum(result[3] for _, _, result in tracer.captured[OPTIMIZATION])
    counted = sum(1 for i, _, _ in expectation if tracer.ancestor(i, OPTIMIZATION) >= 0)

    ratios = []
    for index, (graph, _cfg), records in tracer.captured["strategies.run_bilinear"]:
        evaluator = tracer.package.ExpectationEvaluator(graph)
        for i, _, phi0 in tracer.captured["strategies.bilinear_predict"]:
            if tracer.ancestor(i, "strategies.run_bilinear") == index:
                ratios.append(evaluator.expectation(phi0) / records[phi0.p - 1].f_star)

    deviations = [
        r.max_abs_deviation for _, _, reports in tracer.captured["symmetry.run_symmetry_suite"] for r in reports
    ]
    saved = [args[1] for _, args, _ in tracer.captured["experiment.ResultSet.save"]]

    return {
        "simulator.expectation.calls": len(durations),
        "simulator.expectation.busy_s": busy_s,
        "simulator.expectation.p50_us": statistics.median(durations) * 1e6 if durations else 0.0,
        "simulator.expectation.tail_us": tail_s * 1e6,
        "simulator.expectation.tail_pct": tail_pct,
        "simulator.amp_layers": amp_layers,
        "simulator.ns_per_amp_layer": busy_s * 1e9 / amp_layers if amp_layers else 0.0,
        "simulator.state_bytes_computed": state_bytes,
        "simulator.share": self_of("simulator.") / body_s,
        "simulator.evaluators": count("simulator.ExpectationEvaluator.__init__"),
        "graphs.generate.busy_s": busy("graphs.gen_random_regular", "graphs.gen_erdos_renyi"),
        "graphs.read.busy_s": busy("graphs.read_edge_list"),
        "graphs.cut_table.calls": count("graphs.cut_table"),
        "graphs.cut_table.busy_s": busy("graphs.cut_table"),
        "graphs.max_cut.busy_s": busy("graphs.max_cut_brute_force"),
        "optimize.calls": runs,
        "optimize.nfev": counted,
        "optimize.nfev_per_call": counted / runs if runs else 0.0,
        "optimize.self_s": self_of("optimize."),
        "optimize.converged_ratio": converged / runs if runs else 0.0,
        "optimize.failed": sum(1 for s in spans if s.name == OPTIMIZATION and not s.ok),
        "strategies.runs": sum(
            count(f"strategies.{fn.__name__}") for fn in tracer.package.strategies.STRATEGIES.values()
        ),
        "strategies.self_s": self_of("strategies."),
        "strategies.bilinear.start_ratio": statistics.median(ratios) if ratios else 0.0,
        "symmetry.busy_s": busy("symmetry.run_symmetry_suite"),
        "symmetry.max_deviation": max(deviations, default=0.0),
        "experiment.self_s": self_of("experiment."),
        "experiment.write_s": busy("experiment.ResultSet.save"),
        "experiment.results_bytes": sum(os.path.getsize(p) for p in saved),
        "experiment.emit_s": self_of("experiment.emit_"),
        "cli.self_s": self_of("cli."),
        "trace.run_s": body_s,
    }
