from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import datagraph.harness
import datagraph.worldgen
from datagraph import (
    CachingBackend,
    CatalogEntry,
    ConfigError,
    Datagraph,
    ExperimentConfig,
    GraphParseError,
    GraphValidationError,
    GroundTruth,
    InvalidPathError,
    MissingNodeError,
    OracleBackend,
    Predicate,
    Query,
    RemoteBackend,
    RemoteEndpointConfig,
    ReplayStore,
    RouteError,
    SceneObject,
    TaskConfig,
    TaskUnavailableError,
    WorldFiles,
    WorldSpec,
    derive_seed,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    proximity_query_all,
    proximity_search_first,
    run_aggregate,
    run_compare,
    run_route_scan,
)
from datagraph.harness import BackendConfig, CSV_HEADER, load_world_files
from datagraph.mock_remote import MockRemoteServer
from helpers import build_graph


def hazard(instance_id, pos=(0.0, 0.0, 0.0)):
    return SceneObject("gas_canister", {"hazard": "true"}, pos, instance_id)


def grid2x3(objects=None):
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
    positions = [(float(v % 2), float(v // 2), 0.0) for v in range(6)]
    return build_graph(6, edges, positions=positions, objects=objects or {})


def strip_wall_time(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    for row in doc["per_trial"]:
        row["wall_time_ms"] = None
    for stats in doc["summary"].values():
        stats["total_wall_time_ms"] = None
    return doc


# --- config ---------------------------------------------------------------------


def test_config_requires_a_strategy():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            world=WorldSpec(2, 2), tasks=TaskConfig("nearest_search", 1, 0), strategies=()
        )


def test_config_rejects_unknown_strategy_and_format():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            world=WorldSpec(2, 2),
            tasks=TaskConfig("nearest_search", 1, 0),
            strategies=("quantum",),
        )
    with pytest.raises(ConfigError):
        ExperimentConfig(
            world=WorldSpec(2, 2),
            tasks=TaskConfig("nearest_search", 1, 0),
            report_formats=("xml",),
        )


def test_task_config_rejects_zero_count():
    with pytest.raises(ConfigError):
        TaskConfig("nearest_search", 0, 0)


@pytest.mark.parametrize("count", [2.5, True, "3"])
def test_task_config_rejects_counts_that_are_not_integers(count):
    with pytest.raises(ConfigError, match="task count must be a positive integer"):
        TaskConfig("nearest_search", count, 0)


@pytest.mark.parametrize(
    "field, names",
    [("strategies", ("proximity", "proximity")), ("report_formats", ("json", "csv", "json"))],
)
def test_config_rejects_a_repeated_name(field, names):
    with pytest.raises(ConfigError, match=f"{field} names one entry twice"):
        ExperimentConfig(WorldSpec(2, 2), TaskConfig("nearest_search", 2, 0), **{field: names})


@pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
def test_task_config_rejects_seeds_that_are_not_natural_numbers(seed):
    with pytest.raises(ConfigError, match="task seed"):
        TaskConfig("nearest_search", 1, seed)
    doc = {"world": {"format_version": 1, "grid_w": 2, "grid_h": 2},
           "tasks": {"kind": "nearest_search", "seed": seed}}
    with pytest.raises(ConfigError, match="task seed"):
        ExperimentConfig.from_json_dict(doc)


def test_backend_config_requirements():
    with pytest.raises(ConfigError):
        BackendConfig(kind="replay")
    with pytest.raises(ConfigError):
        BackendConfig(kind="remote")


def test_config_from_json_with_overrides(tmp_path):
    doc = {
        "world": {"format_version": 1, "grid_w": 3, "grid_h": 3, "seed": 4},
        "tasks": {"kind": "nearest_search", "count": 5, "seed": 1},
        "backend": "oracle",
        "strategies": ["proximity"],
    }
    config = ExperimentConfig.from_json_dict(doc, overrides={"cache_enabled": False})
    assert isinstance(config.world, WorldSpec)
    assert config.world.grid_w == 3
    assert config.tasks.count == 5
    assert config.cache_enabled is False
    assert config.strategies == ("proximity",)
    # an object override sets its keys one by one; None leaves the file's value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    overrides = {
        "tasks": {"count": 2, "seed": None},
        "backend": {"kind": "replay", "store_path": "s.json", "record_path": None},
        "strategies": None,
    }
    config = ExperimentConfig.load(path, overrides)
    assert config.tasks == TaskConfig("nearest_search", 2, 1)
    assert config.backend == BackendConfig(kind="replay", store_path="s.json")
    assert config.strategies == ("proximity",)
    assert config.cache_enabled is True


def test_shared_cache_takes_an_inline_world():
    # stored answers are keyed to their scene, so generated worlds that reuse node ids stay apart
    assert compare_config(shared_cache=True).shared_cache
    config = ExperimentConfig.from_json_dict(
        {
            "world": {"format_version": 1, "grid_w": 3, "grid_h": 3},
            "tasks": {"kind": "nearest_search", "count": 2},
            "shared_cache": True,
        }
    )
    assert config.shared_cache and run_compare(config).error_count == 0
    assert compare_config(world=WorldFiles("w.json", "gt.json"), shared_cache=True).shared_cache


def test_config_world_as_path_reference():
    config = ExperimentConfig.from_json_dict(
        {
            "world": {"path": "w.json", "ground_truth": "gt.json"},
            "tasks": {"kind": "keyfob_match", "count": 2, "seed": 0},
        }
    )
    assert config.world == WorldFiles("w.json", "gt.json")


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(7, 1) == derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(7, 1, 0) != derive_seed(7, 1, 1)


# --- run_compare -----------------------------------------------------------------


def compare_config(**kwargs):
    defaults = dict(
        world=WorldSpec(4, 4, seed=11, objects_per_room_mean=2.0),
        tasks=TaskConfig("nearest_search", 4, 3),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_single_room_trial_both_strategies_cost_one_call():
    config = compare_config(
        world=WorldSpec(1, 1, seed=2, objects_per_room_mean=3.0),
        tasks=TaskConfig("nearest_search", 1, 0),
    )
    report = run_compare(config)
    assert report.error_count == 0
    for row in report.per_trial:
        assert row.backend_calls == 1
        assert row.found_is_closest is True
        assert row.optimal_hops == 0


@pytest.mark.parametrize("metric", ["hops", "meters"])
def test_compare_scans_ground_truth_once_per_trial_and_metric(monkeypatch, metric):
    scans = []
    real = datagraph.worldgen.ground_truth_nearest

    def counting(graph, ground_truth, agent, predicate, metric="hops"):
        result = real(graph, ground_truth, agent, predicate, metric)
        scans.append((metric, result))
        return result

    monkeypatch.setattr(datagraph.worldgen, "ground_truth_nearest", counting)
    monkeypatch.setattr(datagraph.harness, "ground_truth_nearest", counting)
    report = run_compare(compare_config(metric=metric))
    # one hop scan per trial for the reported optimum, one meters scan when scoring by meters
    expected = ["hops", "meters"] if metric == "meters" else ["hops"]
    assert [m for m, _ in scans] == expected * 4
    hop_optima = [result[1] for m, result in scans if m == "hops"]
    assert [row.optimal_hops for row in [r for r in report.per_trial if r.strategy == "proximity"]] == hop_optima
    assert [row.optimal_hops for row in [r for r in report.per_trial if r.strategy == "brute_force"]] == hop_optima
    assert all(row.found_is_closest for row in [r for r in report.per_trial if r.strategy == "proximity"])


def test_keyfob_trials_find_the_unique_fob():
    config = compare_config(
        world=WorldSpec(6, 6, seed=5, objects_per_room_mean=2.0),
        tasks=TaskConfig("keyfob_match", 8, 17),
    )
    report = run_compare(config)
    assert report.error_count == 0
    proximity = [r for r in report.per_trial if r.strategy == "proximity"]
    assert len(proximity) == 8
    assert all(row.found_is_closest for row in proximity)
    assert report.summary["proximity"]["closest_rate"] == 1.0


def test_brute_force_full_scan_reflects_world_size():
    config = compare_config(
        world=WorldSpec(3, 3, seed=21, objects_per_room_mean=1.5),
        tasks=TaskConfig("nearest_search", 3, 5),
    )
    report = run_compare(config)
    for row in [r for r in report.per_trial if r.strategy == "brute_force"]:
        assert row.backend_calls == 9  # ingests every frame


def test_brute_force_stop_on_first_flag():
    config = compare_config(brute_force_stop_on_first=True)
    report = run_compare(config)
    for row in [r for r in report.per_trial if r.strategy == "brute_force"]:
        assert row.backend_calls <= 16


def test_strategies_see_identical_trials():
    report = run_compare(compare_config())
    by_task = {}
    for row in report.per_trial:
        by_task.setdefault(row.task_id, []).append(row)
    for rows in by_task.values():
        assert len(rows) == 2
        assert rows[0].optimal_hops == rows[1].optimal_hops


def test_reports_byte_identical_modulo_wall_time(tmp_path):
    config = compare_config(report_formats=("json", "csv"))
    run_a = run_compare(replace(config, output_dir=str(tmp_path / "a")))
    run_b = run_compare(replace(config, output_dir=str(tmp_path / "b")))
    doc_a = strip_wall_time(json.loads((tmp_path / "a" / "compare.json").read_text()))
    doc_b = strip_wall_time(json.loads((tmp_path / "b" / "compare.json").read_text()))
    assert json.dumps(doc_a) == json.dumps(doc_b)
    assert run_a.summary["proximity"]["mean_backend_calls"] == run_b.summary["proximity"]["mean_backend_calls"]


def test_csv_report_shape(tmp_path):
    config = compare_config(output_dir=str(tmp_path), report_formats=("csv",))
    run_compare(config)
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 4 * 2  # 4 trials x 2 strategies


def save_world(directory, spec: WorldSpec) -> WorldFiles:
    graph, ground_truth = generate_world(spec)
    graph.save(directory / "world.json")
    ground_truth.save(directory / "gt.json")
    return WorldFiles(str(directory / "world.json"), str(directory / "gt.json"))


def test_fixed_world_from_files(tmp_path, monkeypatch):
    world = save_world(tmp_path, WorldSpec(4, 4, seed=33, objects_per_room_mean=2.0))
    loads = []
    real_load = Datagraph.load.__func__

    def counting_load(cls, source):
        loads.append(source)
        return real_load(cls, source)

    monkeypatch.setattr(Datagraph, "load", classmethod(counting_load))
    report = run_compare(compare_config(world=world, tasks=TaskConfig("nearest_search", 3, 1)))
    assert report.error_count == 0
    assert len(report.per_trial) == 6
    assert report.summary["proximity"]["closest_rate"] == 1.0
    assert loads == [world.path]  # once per run, not once per trial


def test_fixed_world_without_ground_truth_errors_per_trial(tmp_path):
    graph, _ = generate_world(WorldSpec(3, 3, seed=1))
    graph.save(tmp_path / "world.json")
    config = compare_config(world=WorldFiles(str(tmp_path / "world.json")))
    report = run_compare(config)
    assert report.error_count == len(report.per_trial)


def test_corrupt_world_file_errors_every_trial_and_strategy(tmp_path):
    world = save_world(tmp_path, WorldSpec(3, 3, seed=1))
    (tmp_path / "world.json").write_text('{"format_version": 1, "nodes": [')
    report = run_compare(compare_config(world=world, tasks=TaskConfig("nearest_search", 3, 1)))
    assert [(row.task_id, row.strategy) for row in report.per_trial] == [
        (trial, strategy) for trial in range(3) for strategy in ("brute_force", "proximity")
    ]
    assert report.error_count == 6
    assert len({row.error for row in report.per_trial}) == 1
    assert "invalid JSON" in report.per_trial[0].error


@pytest.mark.parametrize("home_node", [9, 999, -1])
def test_ground_truth_home_node_outside_the_world_is_rejected(tmp_path, home_node):
    world = save_world(tmp_path, WorldSpec(3, 3, seed=1, objects_per_room_mean=2.0))
    doc = json.loads((tmp_path / "gt.json").read_text())
    doc["instances"][2]["home_node"] = home_node
    (tmp_path / "gt.json").write_text(json.dumps(doc))
    message = f"ground truth instances[2]: home_node {home_node} is not a node of the 9-node world {world.path}"
    with pytest.raises(GraphParseError) as excinfo:
        load_world_files(world)
    assert str(excinfo.value) == message
    report = run_compare(compare_config(world=world, tasks=TaskConfig("nearest_search", 2, 1)))
    assert [row.error for row in report.per_trial] == [message] * 4


def test_trial_gives_up_after_the_last_attempt_without_a_task():
    """A world whose catalog holds no keyfob never hosts a keyfob task."""
    world = WorldSpec(2, 2, seed=3, catalog=(CatalogEntry("chair"),))
    report = run_compare(ExperimentConfig(world, TaskConfig("keyfob_match", 1, 0)))
    message = "no world supporting task kind 'keyfob_match' within 20 attempts for trial 0"
    assert [row.error for row in report.per_trial] == [message] * 2


def test_trial_retries_a_world_without_a_task():
    world, tasks = WorldSpec(2, 2, seed=0), TaskConfig("keyfob_match", 1, 0)
    graph, ground_truth = generate_world(replace(world, seed=derive_seed(world.seed, 0, 0)))
    with pytest.raises(TaskUnavailableError):  # the first attempt's world hosts no keyfob task
        make_keyfob_task(graph, ground_truth, derive_seed(tasks.seed, 0, 0))
    report = run_compare(ExperimentConfig(world, tasks))
    assert len(report.per_trial) == 2 and report.error_count == 0


def test_route_kind_is_rejected_by_compare():
    with pytest.raises(ConfigError, match="unknown task kind 'route_hazard'"):
        TaskConfig("route_hazard", 1, 0)


def outcomes(report):
    """Each trial's scored outcome: what a recording and its replay must share."""
    return [
        (r.task_id, r.strategy, r.hops_of_found, r.meters_of_found, r.found_is_closest, r.optimal_hops, r.error)
        for r in report.per_trial
    ]


# inline worlds that reuse node ids from trial to trial: keyed by node id
# alone, their replays scored a proximity closest_rate of 0.383 and 0.85
CROSSING_CONFIGS = {
    "nearest": ExperimentConfig(WorldSpec(6, 6, seed=3), TaskConfig("nearest_search", 60, 1)),
    "keyfob": ExperimentConfig(WorldSpec(6, 6, seed=3), TaskConfig("keyfob_match", 20, 1)),
}


@pytest.mark.parametrize("name", CROSSING_CONFIGS)
def test_replay_of_inline_worlds_gives_the_recorded_outcomes(tmp_path, name):
    store = str(tmp_path / "session.json")
    config = CROSSING_CONFIGS[name]
    recorded = run_compare(replace(config, backend=BackendConfig(kind="oracle", record_path=store)))
    replayed = run_compare(replace(config, backend=BackendConfig(kind="replay", store_path=store)))
    assert replayed.error_count == recorded.error_count == 0
    assert outcomes(replayed) == outcomes(recorded)
    assert replayed.summary["proximity"]["closest_rate"] == recorded.summary["proximity"]["closest_rate"] == 1.0


@pytest.mark.parametrize("name", CROSSING_CONFIGS)
def test_shared_cache_over_inline_worlds_keeps_each_outcome(name):
    config = replace(CROSSING_CONFIGS[name], shared_cache=True)
    shared, fresh = run_compare(config), run_compare(replace(config, shared_cache=False))
    assert outcomes(shared) == outcomes(fresh)


def test_record_then_replay_matches(tmp_path):
    store = tmp_path / "session.json"
    base = compare_config(tasks=TaskConfig("nearest_search", 3, 7))
    recorded = run_compare(
        replace(base, backend=BackendConfig(kind="oracle", record_path=str(store)))
    )
    replayed = run_compare(
        replace(base, backend=BackendConfig(kind="replay", store_path=str(store)))
    )
    assert replayed.error_count == 0
    for live, rerun in zip(recorded.per_trial, replayed.per_trial):
        assert live.task_id == rerun.task_id
        assert live.strategy == rerun.strategy
        assert live.hops_of_found == rerun.hops_of_found
        assert live.found_is_closest == rerun.found_is_closest
        assert rerun.backend_calls == 0  # replay serves everything
    assert replayed.summary["proximity"]["closest_rate"] == recorded.summary["proximity"]["closest_rate"]


@pytest.mark.parametrize("kind", ["nearest_search", "keyfob_match"])
def test_only_a_shared_cache_is_built(tmp_path, monkeypatch, kind):
    # no trial queries a scene twice, so a cache that lived for one trial would never hit
    built = []
    real_init = datagraph.harness.CachingBackend.__init__

    def counting_init(self, inner):
        built.append(self)
        real_init(self, inner)

    monkeypatch.setattr(datagraph.harness.CachingBackend, "__init__", counting_init)
    world = save_world(tmp_path, WorldSpec(5, 5, seed=4, objects_per_room_mean=2.0))
    config = compare_config(world=world, tasks=TaskConfig(kind, 3, 1))
    reports = [
        run_compare(replace(config, cache_enabled=cache, shared_cache=shared))
        for cache, shared in [(False, False), (True, False), (True, True)]
    ]
    assert len(built) == 2  # one per strategy, for the shared run only
    off, on, _ = (strip_wall_time(report.to_json_dict()) for report in reports)
    assert all(row["cache_hits"] == 0 for row in off["per_trial"])
    assert off["per_trial"] == on["per_trial"]
    assert on["config"]["cache_enabled"] is True and off["config"]["cache_enabled"] is False


def test_shared_cache_spans_trials_on_fixed_world(tmp_path):
    world = save_world(tmp_path, WorldSpec(3, 3, seed=8, objects_per_room_mean=2.0))
    config = compare_config(world=world, tasks=TaskConfig("nearest_search", 6, 2), shared_cache=True)
    shared = run_compare(config)
    fresh = run_compare(replace(config, shared_cache=False))
    assert shared.error_count == fresh.error_count == 0
    assert sum(r.cache_hits for r in shared.per_trial) > 0  # later trials repeat queries
    assert sum(r.cache_hits for r in fresh.per_trial) == 0
    assert outcomes(shared) == outcomes(fresh)


# --- reading world files ------------------------------------------------------------

UNREADABLE = [  # (file name, why it cannot be read)
    ("missing.json", "No such file or directory"),
    (".", "Is a directory"),
    ("not_utf8.json", "not UTF-8 text: invalid start byte at byte 0"),
]


@pytest.mark.parametrize("load", [Datagraph.load, GroundTruth.load, ReplayStore.load])
@pytest.mark.parametrize("name, reason", UNREADABLE)
def test_loaders_name_an_unreadable_file_in_a_parse_error(tmp_path, load, name, reason):
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    path = str(tmp_path / name)
    with pytest.raises(GraphParseError) as excinfo:
        load(path)
    assert str(excinfo.value) == f"cannot read {path}: {reason}"


@pytest.mark.parametrize("unreadable", ["world", "ground truth"])
@pytest.mark.parametrize("name, reason", UNREADABLE)
def test_unreadable_world_file_errors_every_trial_and_strategy(tmp_path, unreadable, name, reason):
    world = save_world(tmp_path, WorldSpec(3, 3, seed=1))
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    path = str(tmp_path / name)
    world = replace(world, **{"path" if unreadable == "world" else "ground_truth_path": path})
    message = f"cannot read {path}: {reason}"
    with pytest.raises(GraphParseError) as excinfo:
        load_world_files(world)
    assert str(excinfo.value) == message
    report = run_compare(compare_config(world=world, tasks=TaskConfig("nearest_search", 2, 1)))
    assert [row.error for row in report.per_trial] == [message] * 4


def test_unreadable_replay_store_fails_the_run(tmp_path):
    missing = str(tmp_path / "missing.json")
    config = compare_config(backend=BackendConfig(kind="replay", store_path=missing))
    with pytest.raises(GraphParseError, match="^cannot read .*missing.json: No such file or directory$"):
        run_compare(config)


# --- the collector pause ---------------------------------------------------------------


@pytest.fixture
def collector_seen(monkeypatch):
    """``gc.isenabled()`` as seen by each construction of a graph or a ground truth."""
    seen = []
    construct = Datagraph.__init__
    post_init = GroundTruth.__post_init__

    def spy_construct(self, nodes, edges):
        seen.append(gc.isenabled())
        construct(self, nodes, edges)

    def spy_post_init(self):
        seen.append(gc.isenabled())
        post_init(self)

    monkeypatch.setattr(Datagraph, "__init__", spy_construct)
    monkeypatch.setattr(GroundTruth, "__post_init__", spy_post_init)
    yield seen
    gc.enable()  # also after a test that failed with the collector off


def builds(directory):
    """Each bulk builder on good and on broken input: name -> (call, the error it raises)."""
    spec = WorldSpec(4, 4, seed=3, objects_per_room_mean=2.0)
    world = save_world(directory, spec)
    bad_json = directory / "bad.json"
    bad_json.write_text("{")
    doc = json.loads(Path(world.path).read_text())
    doc["edges"].append(dict(doc["edges"][0]))
    duplicate_edge = directory / "duplicate_edge.json"
    duplicate_edge.write_text(json.dumps(doc))
    doc = json.loads(Path(world.ground_truth_path).read_text())
    doc["instances"][0]["label"] = 5
    int_label = directory / "int_label.json"
    int_label.write_text(json.dumps(doc))
    return {
        "generate": (lambda: generate_world(spec), None),
        "load": (lambda: Datagraph.load(world.path), None),
        "load-invalid-json": (lambda: Datagraph.load(bad_json), GraphParseError),
        "load-violations": (lambda: Datagraph.load(duplicate_edge), GraphValidationError),
        "ground-truth": (lambda: GroundTruth.load(world.ground_truth_path), None),
        "ground-truth-bad-field": (lambda: GroundTruth.load(int_label), GraphParseError),
        "world-files": (lambda: load_world_files(world), None),
        "world-files-invalid-json": (
            lambda: load_world_files(replace(world, path=str(bad_json))), GraphParseError
        ),
        "world-files-bad-ground-truth": (
            lambda: load_world_files(replace(world, ground_truth_path=str(int_label))), GraphParseError
        ),
    }


BUILDS = [
    "generate", "load", "load-invalid-json", "load-violations", "ground-truth", "ground-truth-bad-field",
    "world-files", "world-files-invalid-json", "world-files-bad-ground-truth",
]


@pytest.mark.parametrize("caller_disabled", [False, True])
@pytest.mark.parametrize("name", BUILDS)
def test_builders_pause_the_collector_and_restore_it(tmp_path, collector_seen, name, caller_disabled):
    call, error = builds(tmp_path)[name]
    collector_seen.clear()
    if caller_disabled:
        gc.disable()
    if error is None:
        call()
        assert collector_seen  # a graph or a ground truth was assembled
    else:
        with pytest.raises(error):
            call()
    assert not any(collector_seen)
    assert gc.isenabled() is not caller_disabled


def test_builders_make_no_cyclic_garbage(tmp_path):
    """Pausing the collector delays no frees: nothing the builders make is in a cycle."""
    spec = WorldSpec(12, 12, seed=5, boundary_duplicate_prob=0.3)
    world = save_world(tmp_path, spec)
    calls = {
        "generate": lambda: generate_world(spec),
        "load": lambda: Datagraph.load(world.path),
        "ground-truth": lambda: GroundTruth.load(world.ground_truth_path),
        "world-files": lambda: load_world_files(world),
    }
    for name, config in compare_runs(tmp_path).items():
        calls[f"compare-{name}"] = lambda config=config: run_compare(config)
    gc.collect()
    gc.disable()  # so that no automatic collection frees a cycle before the check
    try:
        for name, call in calls.items():
            call()  # and drop what it built
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def compare_runs(directory) -> dict[str, ExperimentConfig]:
    """``run_compare`` configs: an inline world, a saved world with a shared
    cache, and a world file that cannot be read."""
    directory = directory / "compare"
    directory.mkdir()
    world = save_world(directory, WorldSpec(6, 6, seed=9, objects_per_room_mean=2.0))
    tasks = TaskConfig("nearest_search", 3, 2)
    return {
        "inline": compare_config(tasks=tasks),
        "saved-cached": compare_config(world=world, tasks=tasks, cache_enabled=True, shared_cache=True),
        "unreadable-world": compare_config(world=replace(world, path=str(directory / "missing.json")), tasks=tasks),
    }


@pytest.mark.parametrize("caller_disabled", [False, True])
@pytest.mark.parametrize("name", ["inline", "saved-cached"])
def test_each_compare_trial_runs_with_the_collector_paused(tmp_path, monkeypatch, name, caller_disabled):
    config = compare_runs(tmp_path)[name]
    answers, trials = [], []
    for backend in (OracleBackend, CachingBackend):
        def spy_answer(self, node, query, answer=backend.answer):
            answers.append(gc.isenabled())
            return answer(self, node, query)

        monkeypatch.setattr(backend, "answer", spy_answer)
    run_trial = datagraph.harness._run_trial

    def spy_run_trial(*args):
        trials.append(gc.isenabled())
        return run_trial(*args)

    monkeypatch.setattr(datagraph.harness, "_run_trial", spy_run_trial)
    if caller_disabled:
        gc.disable()
    try:
        report = run_compare(config)
        assert gc.isenabled() is not caller_disabled
    finally:
        gc.enable()
    assert report.error_count == 0
    assert answers and not any(answers)  # every answer, cached or not, runs paused
    # the pause covers the whole run, so every trial starts with the collector off
    assert trials == [False] * config.tasks.count


def run_with_cyclic_garbage(config: ExperimentConfig):
    """``run_compare(config)``'s report, and the objects in reference cycles the run left behind."""
    gc.collect()
    gc.disable()  # so that no automatic collection frees a cycle before the count
    try:
        report = run_compare(config)
        return report, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("setup", ["saved-world-reports", "remote-timeouts"])
def test_the_cyclic_garbage_a_compare_run_holds_does_not_grow_with_its_trials(tmp_path, setup):
    """``run_compare`` keeps the collector off until it returns, so every cycle
    it makes waits until then: their number must not grow with the trials."""
    counts = (2, 8)
    if setup == "saved-world-reports":
        world = save_world(tmp_path, WorldSpec(6, 6, seed=9, objects_per_room_mean=2.0))
        config = compare_config(world=world, output_dir=str(tmp_path / "reports"), report_formats=("json", "csv"))
        runs = [run_with_cyclic_garbage(replace(config, tasks=TaskConfig("nearest_search", n, 2))) for n in counts]
        errors = [0, 0]
    else:
        with MockRemoteServer(delay_s=5.0) as server:  # stop() cuts the delay short
            remote = RemoteEndpointConfig(server.base_url, timeout_ms=20)
            config = compare_config(backend=BackendConfig("remote", remote=remote))
            runs = [run_with_cyclic_garbage(replace(config, tasks=TaskConfig("nearest_search", n, 2))) for n in counts]
        errors = [2 * n for n in counts]  # each strategy's first scene query timed out
    assert [report.error_count for report, _ in runs] == errors
    (_, fewer), (_, more) = runs
    assert fewer == more


# --- run_route_scan -----------------------------------------------------------------


def test_hazard_free_route_accepted():
    graph = grid2x3()
    report = run_route_scan(graph, OracleBackend(), 0, 5)
    assert report.selected_route == (0, 1, 3, 5)
    entry = report.entries[0]
    assert entry.hazard_count == 0
    assert all(not satisfied for _, satisfied in entry.verdicts)


def test_route_with_hazard_loses_to_clean_route():
    graph = grid2x3(objects={3: [hazard(0, (1.0, 1.0, 0.0))]})
    route_a = [0, 1, 3, 5]
    route_b = [0, 2, 4, 5]
    report = run_route_scan(graph, OracleBackend(), 0, 5, candidate_routes=[route_a, route_b])
    assert report.selected_route == tuple(route_b)
    assert report.entries[0].hazard_nodes == (3,)
    assert report.entries[1].hazard_count == 0


def test_route_tie_breaks_shorter_then_lexicographic():
    graph = grid2x3()
    short = [0, 1, 3, 5]
    long = [0, 2, 3, 5]
    detour = [0, 2, 4, 5]
    report = run_route_scan(graph, OracleBackend(), 0, 5, candidate_routes=[detour, long, short])
    # all hazard-free and equal length: lexicographic smallest wins
    assert report.selected_route == tuple(short)


def test_cached_route_rerun_hits_every_node():
    graph = grid2x3()
    backend = CachingBackend(OracleBackend())
    first = run_route_scan(graph, backend, 0, 5)
    second = run_route_scan(graph, backend, 0, 5)
    assert first.cache_hits == 0
    assert second.cache_hits == len(second.selected_route)
    assert second.total_backend_calls == 0


def test_empty_candidate_set_is_route_error():
    backend = CachingBackend(OracleBackend())
    with pytest.raises(RouteError, match="no candidate routes from 0 to 5"):
        run_route_scan(grid2x3(), backend, 0, 5, candidate_routes=[])
    assert backend.hits == len(backend.store) == 0


def test_unreachable_goal_is_route_error():
    graph = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(RouteError):
        run_route_scan(graph, OracleBackend(), 0, 3)


@pytest.mark.parametrize("route", [[0, 1], [1, 3, 5], [], [0, 1, 3, 5, 3]])
def test_candidate_route_must_join_start_to_goal(route):
    backend = CachingBackend(OracleBackend())
    with pytest.raises(RouteError, match="does not join 0 to 5"):
        run_route_scan(grid2x3(), backend, 0, 5, candidate_routes=[[0, 1, 3, 5], route])
    assert backend.hits == len(backend.store) == 0  # checked before any scene is queried


@pytest.mark.parametrize(
    "route, error, message",
    [
        ([0, 5], InvalidPathError, "path nodes 0 and 5 are not adjacent"),
        ([0, 1, 2, 4, 5], InvalidPathError, "path nodes 1 and 2 are not adjacent"),
        ([0, 99, 5], MissingNodeError, "unknown node id: 99"),
        ([0, 1, -1, 5], MissingNodeError, "unknown node id: -1"),
        ([0, 2, 5, 99, 5], MissingNodeError, "unknown node id: 99"),  # every id before any pair
    ],
)
def test_candidate_route_must_be_a_path_of_the_world(route, error, message):
    backend = CachingBackend(OracleBackend())
    with pytest.raises(error, match=f"^{message}$"):
        run_route_scan(grid2x3(), backend, 0, 5, candidate_routes=[[0, 1, 3, 5], route])
    assert backend.hits == len(backend.store) == 0  # checked before any scene is queried


@pytest.mark.parametrize(
    "later, error",
    [([0, 15], InvalidPathError), ([0, 99, 15], MissingNodeError)],
)
def test_remote_route_scan_refuses_a_bad_candidate_before_any_request(later, error):
    graph, _ = generate_world(WorldSpec(4, 4, seed=1))
    with MockRemoteServer() as server:
        with RemoteBackend(RemoteEndpointConfig(server.base_url, timeout_ms=2000)) as backend:
            with pytest.raises(error):
                run_route_scan(graph, backend, 0, 15, candidate_routes=[graph.shortest_path(0, 15), later])
        assert server.requests == []


@pytest.mark.parametrize(
    "start, goal, candidates",
    [(0, 3, [[0, 1, 3], [0, 2, 3]]), (0, 3, [[0, 2, 3], [0, 1, 3]]), (0, 3, [[0, 1, 3]]), (1, 2, [[1, 0, 2]])],
)
def test_candidate_route_across_a_closed_edge_is_route_error(start, goal, candidates):
    graph = build_graph(4, [(0, 1, None, False), (0, 2), (1, 3), (2, 3)])
    with MockRemoteServer() as server:
        backend = RemoteBackend(RemoteEndpointConfig(server.base_url, timeout_ms=2000))
        with pytest.raises(RouteError, match=r"crosses the closed edge (0-1|1-0)$"):
            run_route_scan(graph, backend, start, goal, candidate_routes=candidates)
        backend.close()
        assert server.requests == []  # checked before any scene is queried
    # a pair that no edge joins is still the path's own error
    with pytest.raises(InvalidPathError):
        run_route_scan(graph, OracleBackend(), 0, 3, candidate_routes=[[0, 3]])


@pytest.mark.parametrize("candidates", [None, [[0, 1, 3, 5]]])
def test_route_scan_rejects_unknown_metric_before_querying(candidates):
    backend = CachingBackend(OracleBackend())
    with pytest.raises(ValueError, match="metric must be 'hops' or 'meters', got 'furlongs'"):
        run_route_scan(grid2x3(), backend, 0, 5, metric="furlongs", candidate_routes=candidates)
    assert backend.hits == len(backend.store) == 0


def test_unknown_metric_gets_one_message_everywhere():
    graph, ground_truth = generate_world(WorldSpec(3, 3, seed=1))
    query = Query("find a chair", Predicate(label_equals="chair"))
    calls = [
        lambda: graph.shortest_path(0, 1, metric="furlongs"),
        lambda: ground_truth_nearest(graph, ground_truth, 0, query.predicate, "furlongs"),
        lambda: proximity_query_all(graph, OracleBackend(), query, 0, "furlongs"),
        lambda: proximity_search_first(graph, OracleBackend(), query, 0, "furlongs"),
        lambda: run_route_scan(graph, OracleBackend(), 0, 1, "furlongs"),
    ]
    message = "metric must be 'hops' or 'meters', got 'furlongs'"
    for call in calls:
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(WorldSpec(3, 3), TaskConfig("nearest_search", 1, 0), metric="furlongs")
    assert str(excinfo.value) == message


def pinned_route_scans(tmp_path):
    """(graph, start, goal, metric, candidates) of each pinned route scan."""
    generated, _ = generate_world(WorldSpec(8, 8, seed=11))
    generated.save(tmp_path / "world.json")
    world = Datagraph.load(tmp_path / "world.json")

    def detour(start, goal, waypoint):
        head = world.shortest_path(start, waypoint, traversable_only=True)
        return head + world.shortest_path(waypoint, goal, traversable_only=True)[1:]

    shortest = world.shortest_path(0, 63, traversable_only=True)
    # hops picks 0-1-5 (2 hops, 20 m) and meters 0-2-3-5 (3 hops, 3 m); 0-6-5
    # is shortest by both but holds a hazard, and 0-4 is closed
    edges = [(0, 1, 10.0), (1, 5, 10.0), (0, 2, 1.0), (2, 3, 1.0), (3, 5, 1.0),
             (0, 4, 1.0, False), (4, 5, 1.0), (0, 6, 1.0), (6, 5, 1.0)]
    built = build_graph(7, edges, objects={6: [hazard(0, (6.0, 0.0, 0.0))]})
    built_routes = [[0, 6, 5], [0, 2, 3, 5], [0, 1, 5]]
    scans = []
    for metric in ("hops", "meters"):
        scans += [
            (world, 0, 63, metric, None),
            (world, 5, 58, metric, None),
            (world, 0, 63, metric, [shortest, detour(0, 63, 7), detour(0, 63, 56)]),
            (built, 0, 5, metric, None),
            (built, 0, 5, metric, built_routes),
        ]
    return scans


# from the parent of the change that made route scans call the scan loop directly
ROUTE_SCANS_DIGEST = "9d45e1f5fdaec4d5d1431827914aca74d6b6a65243f75810527db5579478cb67"


def test_route_scan_report_json_is_stable(tmp_path):
    graph = grid2x3(objects={3: [hazard(0, (1.0, 1.0, 0.0))]})
    a = run_route_scan(graph, OracleBackend(), 0, 5).to_json()
    b = run_route_scan(graph, OracleBackend(), 0, 5).to_json()
    assert a == b
    # every scan through the oracle (cache_hits null), then through one shared cache
    texts = []
    for backend in (OracleBackend(), CachingBackend(OracleBackend())):
        for graph, start, goal, metric, candidates in pinned_route_scans(tmp_path):
            texts.append(run_route_scan(graph, backend, start, goal, metric, candidates).to_json())
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == ROUTE_SCANS_DIGEST


def test_route_scan_checks_each_pair_once_and_computes_no_hit_distance(monkeypatch):
    graph = grid2x3(objects={3: [hazard(0, (1.0, 1.0, 0.0))], 4: [hazard(1, (0.0, 2.0, 0.0))]})
    calls = {"nearest": 0, "edge_length": 0}
    for name in calls:
        real = getattr(Datagraph, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Datagraph, name, counting)
    routes = [[0, 1, 3, 5], [0, 2, 4, 5], [0, 2, 3, 5], [0, 1, 3, 2, 4, 5]]
    report = run_route_scan(graph, OracleBackend(), 0, 5, candidate_routes=routes)
    assert [entry.hazard_nodes for entry in report.entries] == [(3,), (4,), (3,), (3, 4)]
    assert calls == {"nearest": 0, "edge_length": sum(len(route) - 1 for route in routes)}


# --- run_aggregate -----------------------------------------------------------------


COUNT_Q = Query("count extinguishers", Predicate(label_equals="extinguisher"), "count")


def test_aggregate_clean_world_matches_truth():
    spec = WorldSpec(5, 5, seed=3, objects_per_room_mean=2.0, boundary_duplicate_prob=0.0)
    graph, ground_truth = generate_world(spec)
    report = run_aggregate(graph, OracleBackend(), COUNT_Q, 0.5, ground_truth)
    assert report.true_count == ground_truth.count_matching(COUNT_Q.predicate)
    assert report.aggregate.raw_total == report.aggregate.deduped_total == report.true_count
    assert report.count_error == 0


def test_aggregate_duplicated_world_recovers_truth():
    spec = WorldSpec(6, 6, seed=9, objects_per_room_mean=3.0, boundary_duplicate_prob=1.0)
    graph, ground_truth = generate_world(spec)
    dup_count = sum(
        1
        for i in ground_truth.instances
        if i.duplicate_of is not None and i.label == "extinguisher"
    )
    report = run_aggregate(graph, OracleBackend(), COUNT_Q, 0.5, ground_truth)
    assert report.aggregate.raw_total == report.true_count + dup_count
    assert report.aggregate.deduped_total == report.true_count
    assert report.count_error == 0
    if dup_count:
        radius_zero = run_aggregate(graph, OracleBackend(), COUNT_Q, 0.0, ground_truth)
        assert radius_zero.aggregate.deduped_total == radius_zero.aggregate.raw_total
        assert radius_zero.aggregate.raw_total > radius_zero.true_count
