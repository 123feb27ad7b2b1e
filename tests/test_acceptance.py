"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Each criterion is
checked at its stated size and tolerance against independent oracles
(queue BFS, exhaustive ground-truth scans, recorded fixtures).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from datagraph import (
    CachingBackend,
    Datagraph,
    ExperimentConfig,
    InvalidPathError,
    MalformedResponseError,
    OracleBackend,
    Predicate,
    Query,
    RemoteBackend,
    RemoteEndpointConfig,
    RemoteProtocolError,
    RemoteTimeoutError,
    TaskConfig,
    TaskUnavailableError,
    WorldSpec,
    brute_force_query,
    derive_seed,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    make_nearest_search_task,
    path_query,
    proximity_query_all,
    proximity_search_first,
    run_compare,
)
from datagraph.mock_remote import MockRemoteServer
from helpers import bfs_visit_order, edge_dict, random_connected_graph, random_decorated_graph

PROBE = Query("is anything here?", Predicate(label_equals="extinguisher"))


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - started
    if budget_s is not None and elapsed >= budget_s:
        print(f"FAIL criterion {number}: {label} (runtime {elapsed:.2f}s >= {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    budget_note = f", budget {budget_s:.0f}s" if budget_s is not None else ""
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s{budget_note})")


def _nearest_trial(index: int):
    """One seeded world (3x3 .. 10x10) plus a guaranteed nearest-search task."""
    grid_w = 3 + (index * 7) % 8
    grid_h = 3 + (index * 13) % 8
    for attempt in range(10):
        spec = WorldSpec(
            grid_w,
            grid_h,
            seed=derive_seed(1000, index, attempt),
            objects_per_room_mean=1.2,
        )
        graph, ground_truth = generate_world(spec)
        try:
            task = make_nearest_search_task(graph, ground_truth, derive_seed(2000, index, attempt))
        except TaskUnavailableError:
            continue
        return graph, ground_truth, task
    raise AssertionError(f"could not build nearest-search trial {index}")


_NEAREST_TRIALS: list = []


def nearest_trials():
    """200 shared trials, generated on first use inside a criterion's timer."""
    if not _NEAREST_TRIALS:
        _NEAREST_TRIALS.extend(_nearest_trial(i) for i in range(200))
    return _NEAREST_TRIALS


def test_criterion_1_bfs_order_conformance():
    with criterion(1, "BFS-order conformance on 500 random connected graphs", budget_s=10.0):
        for seed in range(500):
            graph = random_connected_graph(seed, max_nodes=200)
            result = proximity_query_all(graph, OracleBackend(), PROBE, 0)
            expected = bfs_visit_order(len(graph), edge_dict(graph), 0)
            assert list(result.visit_order) == expected, f"graph seed {seed} diverged"


def test_criterion_2_closest_instance_guarantee():
    with criterion(2, "closest-instance guarantee, hop and meter metrics, 200 worlds", budget_s=30.0):
        for graph, ground_truth, task in nearest_trials():
            oracle_hops = ground_truth_nearest(
                graph, ground_truth, task.agent_node, task.query.predicate, "hops"
            )
            found = proximity_search_first(graph, OracleBackend(), task.query, task.agent_node)
            assert oracle_hops is not None and found.first_satisfied is not None
            assert found.first_satisfied[1] == oracle_hops[1]  # exact, no tolerance

            oracle_meters = ground_truth_nearest(
                graph, ground_truth, task.agent_node, task.query.predicate, "meters"
            )
            found_m = proximity_search_first(
                graph, OracleBackend(), task.query, task.agent_node, metric="meters"
            )
            assert found_m.first_satisfied is not None
            assert found_m.first_satisfied[2] == oracle_meters[1]


def test_criterion_3_baseline_comparison():
    with criterion(3, "query-count formula exact + brute-force mean higher in >=19/20 batches", budget_s=60.0):
        # exact per-trial formula: calls = |{hops < d*}| + rank inside the hit level
        for graph, ground_truth, task in nearest_trials():
            result = proximity_search_first(graph, OracleBackend(), task.query, task.agent_node)
            hops = graph.hop_distances(task.agent_node)
            match_nodes = {
                inst.home_node
                for inst in ground_truth.instances
                if inst.label == task.query.predicate.label_equals and inst.home_node in hops
            }
            d_star = min(hops[v] for v in match_nodes)
            below = sum(1 for d in hops.values() if d < d_star)
            level = sorted(v for v, d in hops.items() if d == d_star)
            rank = next(i for i, v in enumerate(level, start=1) if v in match_nodes)
            assert result.total_backend_calls == below + rank

        batches_won = 0
        for batch in range(20):
            config = ExperimentConfig(
                world=WorldSpec(6, 6, seed=derive_seed(4000, batch), objects_per_room_mean=1.5),
                tasks=TaskConfig("nearest_search", 25, derive_seed(3000, batch)),
            )
            report = run_compare(config)
            assert report.error_count == 0
            proximity_mean = report.summary["proximity"]["mean_backend_calls"]
            brute_mean = report.summary["brute_force"]["mean_backend_calls"]
            if proximity_mean < brute_mean:
                batches_won += 1
        assert batches_won >= 19, f"proximity mean lower in only {batches_won}/20 batches"


def test_criterion_4_response_multiset_equivalence():
    with criterion(4, "brute-force vs proximity response multisets on 100 worlds"):
        for index in range(100):
            spec = WorldSpec(
                4 + index % 4, 3 + index % 5, seed=derive_seed(5000, index), objects_per_room_mean=1.5
            )
            graph, _ = generate_world(spec)
            agent = index % len(graph)
            brute = brute_force_query(graph, OracleBackend(), PROBE, agent)
            prox = proximity_query_all(graph, OracleBackend(), PROBE, agent)
            canon = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
            assert sorted(map(canon, brute.responses)) == sorted(map(canon, prox.responses))


def test_criterion_5_path_querying():
    with criterion(5, "path queries visit exactly the route; invalid paths rejected; cached rerun free"):
        pair_count = 0
        for world_index in range(10):
            spec = WorldSpec(5, 5, seed=derive_seed(6000, world_index), objects_per_room_mean=1.0)
            graph, _ = generate_world(spec)
            hops_from_0 = graph.hop_distances(0)
            far_pair = next(
                ((0, v) for v, d in hops_from_0.items() if d >= 2), None
            )
            if far_pair is not None:
                with pytest.raises(InvalidPathError):
                    path_query(graph, OracleBackend(), PROBE, list(far_pair))
            rng_pairs = [
                (derive_seed(6100, world_index, k) % len(graph),
                 derive_seed(6200, world_index, k) % len(graph))
                for k in range(10)
            ]
            for start, goal in rng_pairs:
                route = graph.shortest_path(start, goal)
                assert route is not None
                result = path_query(graph, OracleBackend(), PROBE, route)
                assert list(result.visit_order) == route
                assert [r.node for r in result.responses] == route
                pair_count += 1
            cached = CachingBackend(OracleBackend())
            route = graph.shortest_path(0, len(graph) - 1)
            first = path_query(graph, cached, PROBE, route)
            rerun = path_query(graph, cached, PROBE, route)
            assert first.total_backend_calls == len(route)
            assert rerun.total_backend_calls == 0
        assert pair_count == 100


def test_criterion_6_keyfob_mission():
    with criterion(6, "100 keyfob missions find the unique matching fob's node, always closest"):
        for index in range(100):
            for attempt in range(20):
                spec = WorldSpec(
                    6, 6, seed=derive_seed(7000, index, attempt), objects_per_room_mean=2.0
                )
                graph, ground_truth = generate_world(spec)
                try:
                    task = make_keyfob_task(graph, ground_truth, derive_seed(7500, index, attempt))
                    break
                except TaskUnavailableError:
                    continue
            else:
                raise AssertionError(f"no keyfob world for mission {index}")
            matching = [
                inst
                for inst in ground_truth.physical_instances()
                if inst.label == "keyfob"
                and ("number", inst.attributes.get("number")) in task.query.predicate.attribute_equals
            ]
            assert len(matching) == 1
            result = proximity_search_first(graph, OracleBackend(), task.query, task.agent_node)
            assert result.first_satisfied is not None
            found_node = result.first_satisfied[0]
            assert found_node == matching[0].home_node
            oracle = ground_truth_nearest(
                graph, ground_truth, task.agent_node, task.query.predicate, "hops"
            )
            assert result.first_satisfied[1] == oracle[1]


def test_criterion_7_aggregation_recovers_ground_truth():
    count_query = Query("count extinguishers", Predicate(label_equals="extinguisher"), "count")
    with criterion(7, "dedup at 0.5 m recovers exact counts on 100 duplicated worlds"):
        from datagraph import aggregate_count

        worlds_with_duplicates = 0
        for index in range(100):
            spec = WorldSpec(
                6,
                6,
                seed=derive_seed(8000, index),
                objects_per_room_mean=3.0,
                boundary_duplicate_prob=0.3,
            )
            graph, ground_truth = generate_world(spec)
            true_count = ground_truth.count_matching(count_query.predicate)
            dup_count = sum(
                1
                for inst in ground_truth.instances
                if inst.duplicate_of is not None and inst.label == "extinguisher"
            )
            merged = aggregate_count(graph, OracleBackend(), count_query, dedup_radius_m=0.5)
            assert merged.deduped_total == true_count  # 100% of trials, exact
            raw = aggregate_count(graph, OracleBackend(), count_query, dedup_radius_m=0.0)
            assert raw.deduped_total == raw.raw_total
            if dup_count:
                worlds_with_duplicates += 1
                assert raw.raw_total > true_count
            else:
                assert raw.raw_total == true_count
        assert worlds_with_duplicates >= 50  # the scenario actually exercises duplicates


def test_criterion_8_determinism_and_round_trip(tmp_path):
    with criterion(8, "save/load identity on 100 graphs; reports byte-identical across runs"):
        for seed in range(100):
            graph = random_decorated_graph(seed=derive_seed(9000, seed), max_nodes=30)
            path = tmp_path / f"g{seed}.json"
            graph.save(path)
            assert Datagraph.load(path) == graph

        config = ExperimentConfig(
            world=WorldSpec(5, 5, seed=31, objects_per_room_mean=2.0),
            tasks=TaskConfig("nearest_search", 6, 13),
            report_formats=("json",),
        )
        docs = []
        for run in ("first", "second"):
            out = tmp_path / run
            run_compare(replace(config, output_dir=str(out)))
            doc = json.loads((out / "compare.json").read_text())
            for row in doc["per_trial"]:
                row["wall_time_ms"] = None
            for stats in doc["summary"].values():
                stats["total_wall_time_ms"] = None
            docs.append(json.dumps(doc, sort_keys=False))
        assert docs[0] == docs[1]


def test_criterion_9_remote_adapter_conformance():
    with criterion(9, "remote fixtures: verdict, timeout, protocol, malformed; in-flight cap held"):
        from datagraph import Node, Pose, Snapshot

        node = Node(0, Pose((0.0, 0.0, 0.0)), Snapshot())
        query = Query("any keyfob?", Predicate(label_equals="keyfob"))

        success_body = {
            "satisfied": True,
            "objects": [{"label": "keyfob", "attributes": {"number": "42"}}],
            "text": "a keyfob is present",
        }
        with MockRemoteServer(body=success_body) as server:
            response = RemoteBackend(
                RemoteEndpointConfig(base_url=server.base_url, timeout_ms=2000)
            ).answer(node, query)
        assert response.satisfied is True
        assert [m.label for m in response.matches] == ["keyfob"]

        with MockRemoteServer(delay_s=0.8) as server:
            backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=100))
            with pytest.raises(RemoteTimeoutError):
                backend.answer(node, query)

        with MockRemoteServer(status=500, body={"error": "exploded"}) as server:
            backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=2000))
            with pytest.raises(RemoteProtocolError) as protocol_error:
                backend.answer(node, query)
        assert protocol_error.value.status == 500

        with MockRemoteServer(raw_body=b"<html>not json</html>") as server:
            backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=2000))
            with pytest.raises(MalformedResponseError):
                backend.answer(node, query)

        with MockRemoteServer(delay_s=0.1) as server:
            backend = RemoteBackend(
                RemoteEndpointConfig(base_url=server.base_url, timeout_ms=5000, max_in_flight=3)
            )
            threads = [
                threading.Thread(target=lambda: backend.answer(node, query)) for _ in range(10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(server.requests) == 10
            assert server.max_concurrent_seen <= 3
