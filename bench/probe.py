"""Spans and counts recorded around datagraph's public calls, from outside.

The library's files are never edited. :class:`Probe` replaces each traced
function or method at the names callers look it up by (module globals in
every ``datagraph`` module that bound it, or the class attribute for
methods), records a span per call and restores the originals on exit.

Span totals are aggregated as each span ends, so a traced run's memory does
not grow with the op count; only the first ``MAX_KEPT_SPANS`` span records
are kept for the JSON-lines trace file. A span's self time is its duration
minus the durations of its children in the same thread. Like every time
the benchmark reports, span and GC times are scaled to the reference
machine speed: totals gather per op (or per set-up) and :meth:`Probe.settle`
adds them in with that op's speed factor.

With ``trace=False`` the probe only captures the return values of the few
calls the checks need (the world and task a ``run_compare`` trial used) and
records no spans. A workload may set ``capture_as[span]`` to keep a summary
of a result instead of the result itself, so that nothing the op built
outlives it.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MAX_KEPT_SPANS = 50_000

# span name -> public callables it covers, as (module, attribute path)
TRACED = {
    "worldgen.generate_world": [("datagraph.worldgen", "generate_world")],
    "worldgen.ground_truth_nearest": [("datagraph.worldgen", "ground_truth_nearest")],
    "worldgen.tasks": [
        ("datagraph.worldgen", "make_nearest_search_task"),
        ("datagraph.worldgen", "make_keyfob_task"),
    ],
    "worldgen.ground_truth_io": [
        ("datagraph.worldgen", "GroundTruth.load"),
        ("datagraph.worldgen", "GroundTruth.save"),
    ],
    "graph.load": [("datagraph.graph", "Datagraph.load")],
    "graph.validate": [("datagraph.graph", "Datagraph.validate")],
    "graph.save": [("datagraph.graph", "Datagraph.save")],
    "graph.distance_maps": [
        ("datagraph.graph", "Datagraph.hop_distances"),
        ("datagraph.graph", "Datagraph.geodesic_distances"),
    ],
    "graph.shortest_path": [("datagraph.graph", "Datagraph.shortest_path")],
    "traversal.search": [("datagraph.traversal", "proximity_search_first")],
    "traversal.brute_force": [("datagraph.traversal", "brute_force_query")],
    "traversal.path_query": [("datagraph.traversal", "path_query")],
    "backends.oracle": [("datagraph.backends", "OracleBackend.answer")],
    "backends.cache": [("datagraph.backends", "CachingBackend.answer")],
    "backends.remote": [("datagraph.backends", "RemoteBackend.answer")],
    "harness.run_compare": [("datagraph.harness", "run_compare")],
    "harness.run_route_scan": [("datagraph.harness", "run_route_scan")],
    "harness.report_write": [("datagraph.harness", "MetricsReport.write")],
}

# calls whose results the checks read; captured in untraced runs too
CAPTURED = {span: TRACED[span] for span in ("worldgen.generate_world", "worldgen.tasks")}

HANDLER_SPAN = "mock_remote.handler"

# (metric name, unit, span name, statistic); statistics are documented in
# bench/README.md. "setup." metrics cover the last set-up of the run.
PER_LAYER = [
    ("worldgen.generate_world.self_ms_per_op", "ms/op", "worldgen.generate_world", "self_ms"),
    ("worldgen.ground_truth_nearest.calls_per_op", "calls/op", "worldgen.ground_truth_nearest", "calls"),
    ("worldgen.ground_truth_nearest.self_ms_per_op", "ms/op", "worldgen.ground_truth_nearest", "self_ms"),
    ("worldgen.tasks.self_ms_per_op", "ms/op", "worldgen.tasks", "self_ms"),
    ("worldgen.ground_truth_io.ms_per_op", "ms/op", "worldgen.ground_truth_io", "ms"),
    ("graph.load.self_ms_per_op", "ms/op", "graph.load", "self_ms"),
    ("graph.validate.ms_per_op", "ms/op", "graph.validate", "ms"),
    ("graph.save.ms_per_op", "ms/op", "graph.save", "ms"),
    ("graph.distance_maps.calls_per_op", "calls/op", "graph.distance_maps", "calls"),
    ("graph.distance_maps.self_ms_per_op", "ms/op", "graph.distance_maps", "self_ms"),
    ("graph.distance_maps.nodes_settled_per_op", "nodes/op", "graph.distance_maps", "items"),
    ("graph.shortest_path.self_ms_per_op", "ms/op", "graph.shortest_path", "self_ms"),
    ("traversal.search.self_ms_per_op", "ms/op", "traversal.search", "self_ms"),
    ("traversal.scenes_visited_per_op", "scenes/op", "traversal.search", "items"),
    ("traversal.brute_force.self_ms_per_op", "ms/op", "traversal.brute_force", "self_ms"),
    ("traversal.path_query.self_ms_per_op", "ms/op", "traversal.path_query", "self_ms"),
    ("backends.oracle.calls_per_op", "calls/op", "backends.oracle", "calls"),
    ("backends.oracle.self_ms_per_op", "ms/op", "backends.oracle", "self_ms"),
    ("backends.cache.self_ms_per_op", "ms/op", "backends.cache", "self_ms"),
    ("backends.cache.lookups_per_op", "calls/op", "backends.cache", "calls"),
    ("backends.cache.hit_ratio", "ratio", "backends.cache", "item_ratio"),
    ("backends.remote.calls_per_op", "calls/op", "backends.remote", "calls"),
    ("backends.remote.ms_per_call_p50", "ms/call", "backends.remote", "p50_ms"),
    ("mock_remote.requests_per_op", "calls/op", HANDLER_SPAN, "calls"),
    ("mock_remote.handler_ms_per_call", "ms/call", HANDLER_SPAN, "mean_ms"),
    ("harness.run_compare.self_ms_per_op", "ms/op", "harness.run_compare", "self_ms"),
    ("harness.report_write.ms_per_op", "ms/op", "harness.report_write", "ms"),
    ("harness.run_route_scan.self_ms_per_op", "ms/op", "harness.run_route_scan", "self_ms"),
    ("runtime.gc.collections_per_op", "count/op", None, "gc_count"),
    ("runtime.gc.pause_ms_per_op", "ms/op", None, "gc_ms"),
    ("trace.op_ms_p50", "ms", None, "op_p50"),
    ("setup.worldgen.generate_world.ms", "ms", "worldgen.generate_world", "setup_ms"),
    ("setup.worldgen.ground_truth_io.ms", "ms", "worldgen.ground_truth_io", "setup_ms"),
    ("setup.graph.save.ms", "ms", "graph.save", "setup_ms"),
    ("setup.graph.load.self_ms", "ms", "graph.load", "setup_self_ms"),
    ("setup.graph.validate.ms", "ms", "graph.validate", "setup_ms"),
]

# span name -> how a call's result adds to the span's item count
_ITEMS = {
    "graph.distance_maps": len,
    "traversal.search": lambda result: len(result.visit_order),
}


class _Totals:
    __slots__ = ("calls", "ms", "self_ms", "items", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.ms = 0.0
        self.self_ms = 0.0
        self.items = 0
        self.durations: list[float] = []


class Probe:
    """Installs span wrappers (``trace=True``) or capture wrappers only."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.phase = "setup"
        self.op_index = -1
        self.captured: dict[str, list] = defaultdict(list)
        self.capture_as: dict[str, object] = {}
        self.kept: list[tuple] = []
        self._totals: dict[tuple[str, str], _Totals] = defaultdict(_Totals)
        self._gc: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._pending: dict[str, _Totals] = defaultdict(_Totals)
        self._pending_gc = [0, 0.0]
        self._gc_started = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- phases -----------------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Start a phase; a new set-up discards the spans of the previous one."""
        self.phase = phase
        with self._lock:
            for key in [k for k in self._totals if k[0] == phase]:
                del self._totals[key]
            self._gc[phase] = [0, 0.0]
        self.start_op(-1)

    def start_op(self, index: int) -> None:
        """Forget captures and unsettled spans (say, from checks) before an op."""
        self.op_index = index
        self.captured.clear()
        with self._lock:
            self._pending.clear()
            self._pending_gc = [0, 0.0]

    def settle(self, factor: float) -> None:
        """Add the spans since :meth:`start_op` to the phase, times scaled by ``factor``."""
        with self._lock:
            for name, raw in self._pending.items():
                totals = self._totals[(self.phase, name)]
                totals.calls += raw.calls
                totals.items += raw.items
                totals.ms += raw.ms * factor
                totals.self_ms += raw.self_ms * factor
                totals.durations += [ms * factor for ms in raw.durations]
            gc_totals = self._gc[self.phase]
            gc_totals[0] += self._pending_gc[0]
            gc_totals[1] += self._pending_gc[1] * factor
            self._pending.clear()
            self._pending_gc = [0, 0.0]

    # -- installation -------------------------------------------------------------

    @contextmanager
    def installed(self):
        targets = TRACED if self.trace else CAPTURED
        try:
            for span, places in targets.items():
                for module_name, path in places:
                    self._patch(span, module_name, path)
            if self.trace:
                gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()

    def _patch(self, span: str, module_name: str, path: str) -> None:
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__))
            else:
                wrapped = self._wrap(span, raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(module, path)
        wrapped = self._wrap(span, original)
        for name, mod in list(sys.modules.items()):
            if name == "datagraph" or name.startswith("datagraph."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def _wrap(self, span: str, fn):
        capture = span in CAPTURED
        if not self.trace:

            def capturing(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.keep(span, result)
                return result

            return capturing
        items = _ITEMS.get(span)
        is_cache = span == "backends.cache"

        def traced(*args, **kwargs):
            hits_before = args[0].hits if is_cache else 0
            frame = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if capture:
                self.keep(span, result)
            if items is not None:
                self.add_items(span, items(result))
            elif is_cache:
                self.add_items(span, args[0].hits - hits_before)
            return result

        return traced

    def keep(self, span: str, result) -> None:
        summary = self.capture_as.get(span)
        self.captured[span].append(result if summary is None else summary(result))

    def wrap_handler(self, handler):
        """Span around the mock server's request handler (runs in its threads)."""
        return self._wrap(HANDLER_SPAN, handler) if self.trace else handler

    # -- spans --------------------------------------------------------------------

    def open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][3] if stack else None
        frame = [name, time.perf_counter(), 0.0, span_id, parent, self.phase, self.op_index]
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        name, start, child_s, span_id, parent, phase, op = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            totals = self._pending[name]
            totals.calls += 1
            totals.ms += duration * 1000.0
            totals.self_ms += (duration - child_s) * 1000.0
            if name == "backends.remote":
                totals.durations.append(duration * 1000.0)
            if len(self.kept) < MAX_KEPT_SPANS:
                self.kept.append((span_id, parent, name, phase, op, start, end))

    def add_items(self, name: str, count: int) -> None:
        with self._lock:
            self._pending[name].items += count

    def _on_gc(self, stage: str, info: dict) -> None:
        if stage == "start":
            self._gc_started = time.perf_counter()
        else:
            self._pending_gc[0] += 1
            self._pending_gc[1] += (time.perf_counter() - self._gc_started) * 1000.0

    # -- results ------------------------------------------------------------------

    def per_layer(self, ops: int, op_ms: list[float]) -> dict[str, dict]:
        """Every per-layer metric; per-op values divide the ops phase by ``ops``."""
        metrics = {}
        for metric, unit, span, stat in PER_LAYER:
            t = self._totals.get(("ops", span), _Totals())
            s = self._totals.get(("setup", span), _Totals())
            value = {
                "self_ms": t.self_ms / ops,
                "ms": t.ms / ops,
                "calls": t.calls / ops,
                "items": t.items / ops,
                "item_ratio": t.items / t.calls if t.calls else 0.0,
                "p50_ms": statistics.median(t.durations) if t.durations else 0.0,
                "mean_ms": t.ms / t.calls if t.calls else 0.0,
                "gc_count": self._gc["ops"][0] / ops,
                "gc_ms": self._gc["ops"][1] / ops,
                "op_p50": statistics.median(op_ms),
                "setup_ms": s.ms,
                "setup_self_ms": s.self_ms,
            }[stat]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write_spans(self, destination: Path) -> None:
        keys = ("id", "parent", "name", "phase", "op", "start", "end")
        with open(destination, "w", encoding="utf-8") as out:
            for record in self.kept:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")
