from __future__ import annotations

import json
from dataclasses import replace

import pytest

import datagraph.harness
import datagraph.worldgen
from datagraph import (
    CachingBackend,
    ConfigError,
    Datagraph,
    ExperimentConfig,
    OracleBackend,
    Predicate,
    Query,
    RouteError,
    SceneObject,
    TaskConfig,
    WorldFiles,
    WorldSpec,
    derive_seed,
    generate_world,
    run_aggregate,
    run_compare,
    run_route_scan,
)
from datagraph.harness import BackendConfig, CSV_HEADER
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


def test_shared_cache_needs_a_saved_world():
    # inline worlds change per trial but reuse node ids, so a shared cache would cross worlds
    with pytest.raises(ConfigError, match="shared_cache"):
        compare_config(shared_cache=True)
    with pytest.raises(ConfigError, match="shared_cache"):
        ExperimentConfig.from_json_dict(
            {
                "world": {"format_version": 1, "grid_w": 3, "grid_h": 3},
                "tasks": {"kind": "nearest_search"},
                "shared_cache": True,
            }
        )
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
    # one hop scan per trial from the task generator, one meters scan when scoring by meters
    expected = ["hops", "meters"] if metric == "meters" else ["hops"]
    assert [m for m, _ in scans] == expected * 4
    hop_optima = [result[1] for m, result in scans if m == "hops"]
    assert [row.optimal_hops for row in report.rows_for("proximity")] == hop_optima
    assert [row.optimal_hops for row in report.rows_for("brute_force")] == hop_optima
    assert all(row.found_is_closest for row in report.rows_for("proximity"))


def test_keyfob_trials_find_the_unique_fob():
    config = compare_config(
        world=WorldSpec(6, 6, seed=5, objects_per_room_mean=2.0),
        tasks=TaskConfig("keyfob_match", 8, 17),
    )
    report = run_compare(config)
    assert report.error_count == 0
    proximity = report.rows_for("proximity")
    assert len(proximity) == 8
    assert all(row.found_is_closest for row in proximity)
    assert report.summary["proximity"]["closest_rate"] == 1.0


def test_brute_force_full_scan_reflects_world_size():
    config = compare_config(
        world=WorldSpec(3, 3, seed=21, objects_per_room_mean=1.5),
        tasks=TaskConfig("nearest_search", 3, 5),
    )
    report = run_compare(config)
    for row in report.rows_for("brute_force"):
        assert row.backend_calls == 9  # ingests every frame


def test_brute_force_stop_on_first_flag():
    config = compare_config(brute_force_stop_on_first=True)
    report = run_compare(config)
    for row in report.rows_for("brute_force"):
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


def test_route_kind_is_rejected_by_compare():
    config = compare_config(tasks=TaskConfig("route_hazard", 1, 0))
    with pytest.raises(ConfigError):
        run_compare(config)


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


def test_shared_cache_spans_trials_on_fixed_world(tmp_path):
    world = save_world(tmp_path, WorldSpec(3, 3, seed=8, objects_per_room_mean=2.0))
    config = compare_config(world=world, tasks=TaskConfig("nearest_search", 6, 2), shared_cache=True)
    shared = run_compare(config)
    fresh = run_compare(replace(config, shared_cache=False))
    assert shared.error_count == fresh.error_count == 0
    assert sum(r.cache_hits for r in shared.per_trial) > 0  # later trials repeat queries
    assert sum(r.cache_hits for r in fresh.per_trial) == 0

    def outcomes(report):
        return [
            (r.task_id, r.strategy, r.hops_of_found, r.meters_of_found, r.found_is_closest)
            for r in report.per_trial
        ]

    assert outcomes(shared) == outcomes(fresh)


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


def test_unreachable_goal_is_route_error():
    graph = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(RouteError):
        run_route_scan(graph, OracleBackend(), 0, 3)


@pytest.mark.parametrize("route", [[0, 1], [1, 3, 5], [], [0, 1, 3, 5, 3]])
def test_candidate_route_must_join_start_to_goal(route):
    backend = CachingBackend(OracleBackend())
    with pytest.raises(RouteError, match="does not join 0 to 5"):
        run_route_scan(grid2x3(), backend, 0, 5, candidate_routes=[[0, 1, 3, 5], route])
    assert backend.hits == backend.misses == 0  # checked before any scene is queried


def test_route_scan_report_json_is_stable():
    graph = grid2x3(objects={3: [hazard(0, (1.0, 1.0, 0.0))]})
    a = run_route_scan(graph, OracleBackend(), 0, 5).to_json()
    b = run_route_scan(graph, OracleBackend(), 0, 5).to_json()
    assert a == b


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
