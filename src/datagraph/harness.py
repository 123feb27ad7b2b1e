"""Experiment harness: seeded trials comparing traversal strategies.

``run_compare`` realizes the core comparison (spatially blind brute force
vs. proximity-ordered search) over seeded tasks of the ``TASK_KINDS``. A
task says only where the agent stands and what it asks; ``run_compare``
scores each trial against the ground-truth nearest-instance oracle, by hops
and, for a meters run, by meters. ``run_route_scan`` checks candidate
routes for hazards, and ``run_aggregate`` demonstrates cross-scene counting
with duplicate merging. Reports serialize with stable field order so reruns
of the same config are byte-identical apart from wall-clock fields; the
harness only ever consults ground truth to score results, never to steer a
traversal.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import output
from .backends import (
    CachingBackend,
    OracleBackend,
    Predicate,
    Query,
    QueryBackend,
    RecordingBackend,
    RemoteBackend,
    RemoteEndpointConfig,
    ReplayStore,
)
from .errors import ConfigError, DatagraphError, GraphParseError, RouteError, TaskUnavailableError
from .graph import (
    Datagraph,
    NodeId,
    _check_bool,
    _check_id,
    _check_label,
    _collector_paused,
    _document,
    _is_integer,
    _KindError,
    _named_fields,
    by_metric,
)
from .traversal import (
    AggregateReport,
    _checked_path,
    _run,
    aggregate_count,
    brute_force_query,
    proximity_search_first,
)
from .worldgen import (
    GroundTruth,
    TaskSpec,
    WorldSpec,
    derive_seed,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    make_nearest_search_task,
)

STRATEGIES = ("proximity", "brute_force")
REPORT_FORMATS = ("json", "csv")
TASK_KINDS = ("nearest_search", "keyfob_match")

_TASK_RETRY_ATTEMPTS = 20


@dataclass(frozen=True)
class TaskConfig:
    kind: str
    count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if not _is_integer(self.count) or self.count < 1:
            raise ConfigError(f"task count must be a positive integer, got {self.count!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"task seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "seed", int(self.seed))

    to_json_dict = _document


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "oracle"
    store_path: str | None = None  # replay source
    record_path: str | None = None  # capture target
    remote: RemoteEndpointConfig | None = None
    forward_annotations: bool = False

    def __post_init__(self):
        if self.remote is not None:
            _record_of(self.remote, (RemoteEndpointConfig,), "config.backend.remote")
        for name in ("store_path", "record_path"):
            _path(getattr(self, name), f"config.backend.{name}")
        _flag(self.forward_annotations, "config.backend.forward_annotations")
        if self.kind not in ("oracle", "replay", "remote"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "replay" and not self.store_path:
            raise ConfigError("replay backend needs a store_path")
        if self.kind == "remote" and self.remote is None:
            raise ConfigError("remote backend needs endpoint settings")

    def to_json_dict(self) -> dict:
        """The kind, which is never empty, and every other field that is set;
        the endpoint's auth token is never echoed into a report."""
        doc = {name: value for name, value in _document(self).items() if value}
        if "remote" in doc:
            del doc["remote"]["auth_token"]
        return doc


@dataclass(frozen=True)
class WorldFiles:
    """A saved world plus its ground-truth sidecar."""

    path: str
    ground_truth_path: str | None = None

    def to_json_dict(self) -> dict:
        return {"path": self.path, "ground_truth": self.ground_truth_path}


@dataclass(frozen=True)
class ExperimentConfig:
    world: WorldSpec | WorldFiles
    tasks: TaskConfig
    backend: BackendConfig = field(default_factory=BackendConfig)
    strategies: tuple[str, ...] = STRATEGIES
    cache_enabled: bool = True
    output_dir: str | None = None
    report_formats: tuple[str, ...] = ("json",)
    metric: str = "hops"
    shared_cache: bool = False
    # the blind baseline ingests every frame by default; flip this to let it stop
    brute_force_stop_on_first: bool = False

    def __post_init__(self):
        _record_of(self.world, (WorldSpec, WorldFiles), "config.world")
        _record_of(self.tasks, (TaskConfig,), "config.tasks")
        _record_of(self.backend, (BackendConfig,), "config.backend")
        for name in ("cache_enabled", "shared_cache", "brute_force_stop_on_first"):
            _flag(getattr(self, name), f"config.{name}")
        _path(self.output_dir, "config.output_dir")
        for name in ("strategies", "report_formats"):
            names = getattr(self, name)
            if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
                raise ConfigError(f"{name} must be an array of names, got {names!r}")
            if len(set(names)) < len(names):
                raise ConfigError(f"{name} names one entry twice: {list(names)!r}")
            object.__setattr__(self, name, tuple(names))
        if not self.strategies:
            raise ConfigError("at least one strategy is required")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ConfigError(f"unknown strategy {strategy!r}")
        for fmt in self.report_formats:
            if fmt not in REPORT_FORMATS:
                raise ConfigError(f"unknown report format {fmt!r}")
        try:
            by_metric(self.metric, None, None)  # raises on an unknown metric
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_json_dict(self) -> dict:
        """The config as its report echoes it: every field but ``output_dir``."""
        doc = _document(self)
        del doc["output_dir"]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, overrides: dict | None = None) -> ExperimentConfig:
        """Config from its JSON document. ``overrides`` has the document's shape;
        None values are skipped and an object value sets its keys one by one."""
        if not isinstance(doc, dict):
            raise ConfigError("config: expected an object")
        merged = dict(doc)
        if isinstance(merged.get("backend"), str):
            merged["backend"] = {"kind": merged["backend"]}
        for key, value in (overrides or {}).items():
            if isinstance(value, dict):
                set_keys = {k: v for k, v in value.items() if v is not None}
                if set_keys:
                    base = merged.get(key)
                    merged[key] = {**(base if isinstance(base, dict) else {}), **set_keys}
            elif value is not None:
                merged[key] = value
        world_doc = merged.get("world")
        if isinstance(world_doc, str):
            world: WorldSpec | WorldFiles = WorldFiles(_path(world_doc, "config.world"))
        elif isinstance(world_doc, dict) and "path" in world_doc:
            world = WorldFiles(
                _path(world_doc["path"], "config.world.path", required=True),
                _path(world_doc.get("ground_truth"), "config.world.ground_truth"),
            )
        elif isinstance(world_doc, dict):
            world = WorldSpec.from_json_dict(world_doc)
        else:
            raise ConfigError("config.world must be a world spec or a file reference")
        tasks_doc = merged.get("tasks")
        if not isinstance(tasks_doc, dict):
            raise ConfigError("config.tasks must be an object")
        try:
            if "count" in tasks_doc:  # the document's own message for a count that is not an integer
                _check_id(tasks_doc["count"], "count")
            tasks = TaskConfig(**_named_fields(TaskConfig, tasks_doc))
        except KeyError as exc:
            raise ConfigError(f"config.tasks: missing field {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config.tasks: {exc}") from exc
        backend_doc = merged.get("backend", {})
        if not isinstance(backend_doc, dict):
            raise ConfigError("config.backend must be an object or a backend kind")
        backend = _named_fields(BackendConfig, backend_doc)
        if backend.get("kind") == "remote":
            remote_doc = backend.get("remote", backend_doc)
            if not isinstance(remote_doc, dict):
                raise ConfigError(f"config.backend.remote must be an object, got {remote_doc!r}")
            try:
                backend["remote"] = RemoteEndpointConfig(**_named_fields(RemoteEndpointConfig, remote_doc))
            except KeyError as exc:
                raise ConfigError(f"config.backend: missing field {exc}") from exc
            except ValueError as exc:
                raise ConfigError(f"config.backend: {exc}") from exc
        else:  # only a remote backend reads endpoint settings
            backend.pop("remote", None)
        merged.update(world=world, tasks=tasks, backend=BackendConfig(**backend))
        return cls(**_named_fields(cls, merged))

    @classmethod
    def load(cls, source, overrides: dict | None = None) -> ExperimentConfig:
        """Read a config file (:func:`output.read_document`); ``overrides`` as in
        :meth:`from_json_dict`."""
        return cls.from_json_dict(output.read_document(source, ConfigError), overrides)


def _path(value, what: str, required: bool = False) -> str | None:
    """A path config field: a non-empty string, or null unless ``required``;
    any other value is a ConfigError."""
    if value is None and not required:
        return None
    try:
        return _check_label(value, what)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _record_of(value, kinds: tuple[type, ...], what: str) -> None:
    """A config field that holds a record of one of ``kinds``; a value of any
    other kind (say, the document form of one) is a ConfigError."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{what} must be a {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")


def _flag(value, what: str) -> bool:
    """A boolean config field; any other kind of value is a ConfigError."""
    try:
        return _check_bool(value, what)
    except _KindError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class TrialRecord:
    task_id: int
    strategy: str
    backend_calls: int | None = None
    hops_of_found: int | None = None
    meters_of_found: float | None = None
    optimal_hops: int | None = None
    found_is_closest: bool | None = None
    wall_time_ms: float = 0.0
    cache_hits: int = 0
    error: str | None = None

    to_json_dict = _document


CSV_HEADER = [f.name for f in fields(TrialRecord)]


@dataclass(frozen=True)
class MetricsReport:
    per_trial: tuple[TrialRecord, ...]
    summary: dict[str, dict]
    config: dict

    @property
    def error_count(self) -> int:
        return sum(1 for row in self.per_trial if row.error is not None)

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "config": self.config,
            "per_trial": [row.to_json_dict() for row in self.per_trial],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in self.per_trial:  # a row's document holds its fields in CSV_HEADER's order
            writer.writerow(["" if value is None else value for value in row.to_json_dict().values()])
        return buffer.getvalue()

    def write(self, output_dir, formats=("json",)) -> list[Path]:
        """Write ``compare.json`` and/or ``compare.csv``, each replacing its old
        file atomically; a directory or file that cannot be written is an
        :class:`OutputError`."""
        out = output.make_output_dir(output_dir)
        written = []
        if "json" in formats:
            path = out / "compare.json"
            output.write_output(path, [self.to_json()])
            written.append(path)
        if "csv" in formats:
            path = out / "compare.csv"
            output.write_output(path, [self.to_csv()])
            written.append(path)
        return written


# --- world/task plumbing ------------------------------------------------------------


@_collector_paused()
def load_world_files(files: WorldFiles) -> tuple[Datagraph, GroundTruth | None]:
    """The world and, if named, its ground truth, whose ``home_node``s must be
    nodes of that world."""
    graph = Datagraph.load(files.path)
    ground_truth = None
    if files.ground_truth_path:
        ground_truth = GroundTruth.load(files.ground_truth_path)
        n = len(graph)
        for i, inst in enumerate(ground_truth.instances):
            if not 0 <= inst.home_node < n:
                raise GraphParseError(
                    f"ground truth instances[{i}]: home_node {inst.home_node} is not a node of "
                    f"the {n}-node world {files.path}"
                )
    return graph, ground_truth


def _trial_setup(
    config: ExperimentConfig, trial: int, saved: tuple[Datagraph, GroundTruth | None] | None
) -> tuple[Datagraph, GroundTruth, TaskSpec]:
    """World + task for one trial; deterministic in the config seeds.

    Every trial shares a ``saved`` world. With an inline WorldSpec a fresh world
    is generated per trial. Worlds that cannot host the requested task kind (say,
    no keyfob got placed) are skipped by bumping a derived attempt seed;
    everything stays a pure function of the config.
    """
    kind = config.tasks.kind  # TaskConfig admits only the two kinds
    make_task = make_nearest_search_task if kind == "nearest_search" else make_keyfob_task
    if saved is not None:
        graph, ground_truth = saved
        if ground_truth is None:
            raise ConfigError("task generation against a saved world needs its ground truth file")
        return graph, ground_truth, make_task(graph, ground_truth, derive_seed(config.tasks.seed, trial))
    for attempt in range(_TASK_RETRY_ATTEMPTS):
        world_spec = replace(config.world, seed=derive_seed(config.world.seed, trial, attempt))
        graph, ground_truth = generate_world(world_spec)
        try:
            task = make_task(graph, ground_truth, derive_seed(config.tasks.seed, trial, attempt))
        except TaskUnavailableError:
            continue
        return graph, ground_truth, task
    raise TaskUnavailableError(
        f"no world supporting task kind {config.tasks.kind!r} within "
        f"{_TASK_RETRY_ATTEMPTS} attempts for trial {trial}"
    )


def build_base_backend(config: BackendConfig) -> QueryBackend:
    """The shared backend for a run, inside a :class:`RecordingBackend` when capturing."""
    if config.kind == "oracle":
        backend: QueryBackend = OracleBackend()
    elif config.kind == "replay":
        backend = ReplayStore.load(config.store_path)
    else:
        backend = RemoteBackend(config.remote, forward_annotations=config.forward_annotations)
    return RecordingBackend(backend) if config.record_path else backend


# --- compare ---------------------------------------------------------------------


@_collector_paused()
def run_compare(config: ExperimentConfig) -> MetricsReport:
    """Run every seeded task under every selected strategy and score it.

    Both strategies of a trial see the identical world and task. With
    ``cache_enabled`` and ``shared_cache`` each strategy keeps one cache for
    the whole run; no trial queries a scene twice, so a cache that lives for
    one trial would never hit, and none is built. Answers are stored keyed to
    their scene, so neither a cache nor a replay crosses generated worlds; a
    recording saves the recorder's store. A saved world is loaded and checked
    once per run. Failures to load the world, set up a trial or answer a
    query mark the trial errored and the run continues. Rows come in trial
    order, then in sorted strategy order.

    The whole run holds the cyclic collector paused (:func:`_collector_paused`),
    so no collection walks a world it loaded or generated: reference counting
    frees each, a saved world when this returns, before the collector
    resumes. The cycles the pause holds back do not grow with the trials: a
    timed-out remote call leaves none, and writing the reports leaves the
    same few whatever the count.
    """
    base_backend = build_base_backend(config.backend)
    saved = world_error = None
    if isinstance(config.world, WorldFiles):
        try:
            saved = load_world_files(config.world)
        except DatagraphError as exc:
            world_error = str(exc)
    shared_caches = {
        strategy: CachingBackend(base_backend)
        for strategy in (config.strategies if config.cache_enabled and config.shared_cache else ())
    }
    rows: list[TrialRecord] = []
    for trial in range(config.tasks.count):
        if world_error is None:
            rows.extend(_run_trial(config, trial, saved, base_backend, shared_caches))
        else:
            rows.extend(_errored_trial(config, trial, world_error))
    report = MetricsReport(
        per_trial=tuple(rows),
        summary=_summarize(rows, config.strategies),
        config=config.to_json_dict(),
    )
    if config.backend.record_path:
        base_backend.store.save(config.backend.record_path)
    if config.output_dir is not None:
        report.write(config.output_dir, config.report_formats)
    return report


def _errored_trial(config: ExperimentConfig, trial: int, error: str) -> list[TrialRecord]:
    return [
        TrialRecord(task_id=trial, strategy=strategy, error=error) for strategy in sorted(config.strategies)
    ]


def _run_trial(
    config: ExperimentConfig,
    trial: int,
    saved: tuple[Datagraph, GroundTruth | None] | None,
    base_backend: QueryBackend,
    shared_caches: dict[str, CachingBackend],
) -> list[TrialRecord]:
    """One trial's rows: its world and task, both strategies, their scores.

    It runs inside ``run_compare``'s pause of the collector. An inline
    world, its ground truth and the responses are this function's locals,
    so reference counting frees them when it returns. No pause of its own
    is needed to let the collector run between trials: a remote call that
    times out leaves no reference cycles for a run-long pause to hold back.
    """
    try:
        graph, ground_truth, task = _trial_setup(config, trial, saved)
    except DatagraphError as exc:
        return _errored_trial(config, trial, str(exc))
    # the hop optimum is reported; the optimum under the run's metric is scored
    optima: dict[str, float | None] = {}
    for metric in dict.fromkeys(("hops", config.metric)):
        nearest = ground_truth_nearest(graph, ground_truth, task.agent_node, task.query.predicate, metric)
        optima[metric] = nearest[1] if nearest is not None else None
    rows = []
    for strategy in sorted(config.strategies):
        cache = shared_caches.get(strategy)
        backend: QueryBackend = base_backend if cache is None else cache
        hits_before = cache.hits if cache else 0
        started = time.perf_counter()
        try:
            if strategy == "proximity":
                result = proximity_search_first(
                    graph, backend, task.query, task.agent_node, metric=config.metric
                )
            else:
                result = brute_force_query(
                    graph, backend, task.query, task.agent_node,
                    stop_on_first=config.brute_force_stop_on_first,
                )
        except DatagraphError as exc:
            rows.append(
                TrialRecord(
                    task_id=trial,
                    strategy=strategy,
                    wall_time_ms=(time.perf_counter() - started) * 1000.0,
                    error=str(exc),
                )
            )
            continue
        wall_ms = (time.perf_counter() - started) * 1000.0
        hops_found = meters_found = None
        if result.first_satisfied is not None:
            _, hops_found, meters_found = result.first_satisfied
        optimal = optima[config.metric]
        found = hops_found if config.metric == "hops" else meters_found
        rows.append(
            TrialRecord(
                task_id=trial,
                strategy=strategy,
                backend_calls=result.total_backend_calls,
                hops_of_found=hops_found,
                meters_of_found=meters_found,
                optimal_hops=optima["hops"],
                found_is_closest=result.first_satisfied is None if optimal is None else found == optimal,
                wall_time_ms=wall_ms,
                cache_hits=(cache.hits - hits_before) if cache else 0,
            )
        )
    return rows


def _summarize(rows: list[TrialRecord], strategies) -> dict[str, dict]:
    summary: dict[str, dict] = {}
    for strategy in sorted(strategies):
        good = [r for r in rows if r.strategy == strategy and r.error is None]
        errors = sum(1 for r in rows if r.strategy == strategy and r.error is not None)
        calls = [r.backend_calls for r in good]
        summary[strategy] = {
            "trials": len(good) + errors,
            "errors": errors,
            "mean_backend_calls": statistics.mean(calls) if calls else None,
            "median_backend_calls": statistics.median(calls) if calls else None,
            "closest_rate": (
                sum(1 for r in good if r.found_is_closest) / len(good) if good else None
            ),
            "total_wall_time_ms": sum(r.wall_time_ms for r in good),
        }
    return summary


# --- route scan -----------------------------------------------------------------


HAZARD_QUERY = Query(
    text="check the route for hazardous objects",
    predicate=Predicate(attribute_equals=(("hazard", "true"),)),
    mode="assess_hazard",
)


@dataclass(frozen=True)
class RouteReportEntry:
    route: tuple[NodeId, ...]
    verdicts: tuple[tuple[NodeId, bool], ...]
    hazard_nodes: tuple[NodeId, ...]
    hazard_count: int
    length_hops: int
    length_m: float

    def to_json_dict(self) -> dict:
        return {
            "route": list(self.route),
            "verdicts": [{"node": v, "satisfied": s} for v, s in self.verdicts],
            "hazard_nodes": list(self.hazard_nodes),
            "hazard_count": self.hazard_count,
            "length_hops": self.length_hops,
            "length_m": self.length_m,
        }


@dataclass(frozen=True)
class RouteScanReport:
    start: NodeId
    goal: NodeId
    metric: str
    entries: tuple[RouteReportEntry, ...]
    selected_index: int
    total_backend_calls: int
    cache_hits: int | None = None

    @property
    def selected_route(self) -> tuple[NodeId, ...]:
        return self.entries[self.selected_index].route

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "start": self.start,
            "goal": self.goal,
            "metric": self.metric,
            "routes": [entry.to_json_dict() for entry in self.entries],
            "selected_index": self.selected_index,
            "selected_route": list(self.selected_route),
            "total_backend_calls": self.total_backend_calls,
            "cache_hits": self.cache_hits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def run_route_scan(
    graph: Datagraph,
    backend: QueryBackend,
    start: NodeId,
    goal: NodeId,
    metric: str = "hops",
    candidate_routes: list[list[NodeId]] | None = None,
) -> RouteScanReport:
    """Scan route(s) for hazards and pick the safest.

    Every route is scanned with :data:`HAZARD_QUERY`. Without candidates
    (None) the shortest traversable route is scanned. With a comparison set,
    exactly those routes are scanned and the one with the fewest
    hazard-positive nodes wins; ties go to the shorter route under the
    metric, then to the lexicographically smallest node sequence. An empty
    set, or a candidate that does not run from ``start`` to ``goal`` or that
    crosses a closed edge, is a :class:`RouteError`, and one that is not a
    path of the graph raises what :func:`path_query` would, each before any
    scene is queried. Each candidate is checked once, here, and the scan
    loop is asked for its verdicts only, so no hit distance is computed.
    """
    # checked here, so an unknown metric fails before any scene is queried
    length_of = by_metric(metric, lambda entry: entry.length_hops, lambda entry: entry.length_m)
    if candidate_routes is not None:
        routes = [list(route) for route in candidate_routes]
        if not routes:
            raise RouteError(f"no candidate routes from {start} to {goal} to scan")
        closed = graph.closed_pairs
        for route in routes:
            if not route or route[0] != start or route[-1] != goal:
                raise RouteError(f"candidate route {route} does not join {start} to {goal}")
            for u, v in zip(route, route[1:]) if closed else ():
                if (u, v) in closed or (v, u) in closed:
                    raise RouteError(f"candidate route {route} crosses the closed edge {u}-{v}")
    else:
        shortest = graph.shortest_path(start, goal, metric=metric, traversable_only=True)
        if shortest is None:
            raise RouteError(f"goal {goal} is unreachable from {start}")
        routes = [shortest]
    routes, lengths_m = zip(*[_checked_path(graph, route) for route in routes])
    start, goal = routes[0][0], routes[0][-1]  # as ints, whatever integral ids the caller gave
    entries = []
    total_calls = 0
    cache_hits_before = backend.hits if isinstance(backend, CachingBackend) else None
    for route, length_m in zip(routes, lengths_m):
        result = _run(graph, backend.answer, HAZARD_QUERY, route, None, False)
        total_calls += result.total_backend_calls
        verdicts = tuple((r.node, r.satisfied) for r in result.responses)
        hazard_nodes = tuple(dict.fromkeys(v for v, satisfied in verdicts if satisfied))
        entries.append(RouteReportEntry(tuple(route), verdicts, hazard_nodes, len(hazard_nodes),
                                        len(route) - 1, length_m))
    ranks = [(entry.hazard_count, length_of(entry), entry.route) for entry in entries]
    selected_index = ranks.index(min(ranks))
    return RouteScanReport(
        start=start,
        goal=goal,
        metric=metric,
        entries=tuple(entries),
        selected_index=selected_index,
        total_backend_calls=total_calls,
        cache_hits=None if cache_hits_before is None else backend.hits - cache_hits_before,
    )


# --- aggregation -----------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRunReport:
    aggregate: AggregateReport
    dedup_radius_m: float
    true_count: int | None = None

    @property
    def count_error(self) -> int | None:
        if self.true_count is None:
            return None
        return self.aggregate.deduped_total - self.true_count

    def to_json_dict(self) -> dict:
        doc = {
            "format_version": 1,
            "dedup_radius_m": self.dedup_radius_m,
            "raw_total": self.aggregate.raw_total,
            "deduped_total": self.aggregate.deduped_total,
            "true_count": self.true_count,
            "count_error": self.count_error,
            "per_node_counts": {str(v): c for v, c in self.aggregate.per_node_counts.items()},
            "merged_group_sizes": [len(g) for g in self.aggregate.merged_groups],
        }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def run_aggregate(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    dedup_radius_m: float,
    ground_truth: GroundTruth | None = None,
) -> AggregateRunReport:
    """Count matches over the whole world; score against ground truth if given."""
    report = aggregate_count(graph, backend, query, dedup_radius_m)
    true_count = None
    if ground_truth is not None:
        true_count = ground_truth.count_matching(query.predicate)
    return AggregateRunReport(report, dedup_radius_m, true_count)
