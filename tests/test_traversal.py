from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import datagraph
from datagraph import (
    BackendError,
    CachingBackend,
    Datagraph,
    DedupUnavailableError,
    ExperimentConfig,
    InvalidPathError,
    MissingNodeError,
    OracleBackend,
    Predicate,
    Query,
    QueryResponse,
    SceneObject,
    TaskConfig,
    TraversalAbortedError,
    WorldSpec,
    aggregate_count,
    brute_force_query,
    generate_world,
    ground_truth_nearest,
    path_query,
    proximity_query_all,
    proximity_search_first,
    run_compare,
)
from datagraph.graph import _collector_paused
from helpers import (
    bfs_visit_order,
    build_graph,
    eager_geodesic_distances,
    eager_hop_distances,
    eager_shortest_path,
    edge_dict,
    heap_dijkstra,
    queue_bfs_levels,
    random_connected_graph,
)

FIND_KEYFOB = Query("find a keyfob", Predicate(label_equals="keyfob"))
FIND_CHAIR = Query("find a chair", Predicate(label_equals="chair"))


def keyfob(instance_id, pos=(0.0, 0.0, 0.0), number=None):
    attrs = {"number": number} if number else {}
    return SceneObject("keyfob", attrs, pos, instance_id)


def reference_hit(graph, agent, v):
    """``(v, hops, meters)`` from the eager reference BFS and Dijkstra; None
    for both distances when ``agent`` cannot reach ``v``."""
    return v, eager_hop_distances(graph, agent).get(v), eager_geodesic_distances(graph, agent).get(v)


def grid3x3():
    edges = []
    for j in range(3):
        for i in range(3):
            v = j * 3 + i
            if i + 1 < 3:
                edges.append((v, v + 1))
            if j + 1 < 3:
                edges.append((v, v + 3))
    positions = [(float(v % 3), float(v // 3), 0.0) for v in range(9)]
    return build_graph(9, edges, positions=positions)


# --- proximity_query_all ------------------------------------------------------------


def test_single_node_graph():
    g = build_graph(1, [], objects={0: [keyfob(1)]})
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0)
    assert result.visit_order == (0,)
    assert result.total_backend_calls == 1
    assert result.first_satisfied == (0, 0, 0.0)


def test_level_tie_break_ascending_ids():
    g = build_graph(3, [(0, 1), (1, 2)])
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 1)
    assert result.visit_order == (1, 0, 2)


def test_grid_levels_from_corner_match_independent_bfs():
    g = grid3x3()
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0)
    levels = queue_bfs_levels(9, edge_dict(g), 0)
    assert [levels[v] for v in result.visit_order] == [0, 1, 1, 2, 2, 2, 3, 3, 4]
    assert list(result.visit_order) == bfs_visit_order(9, edge_dict(g), 0)


def test_unreachable_nodes_not_queried():
    g = build_graph(4, [(0, 1), (2, 3)], objects={2: [keyfob(1)]})
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0)
    assert result.visit_order == (0, 1)
    assert result.first_satisfied is None


def test_responses_align_with_visit_order():
    g = grid3x3()
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 4)
    assert len(result.responses) == len(result.visit_order) == 9
    assert len(set(result.visit_order)) == 9
    for response, v in zip(result.responses, result.visit_order):
        assert response.node == v


def test_unknown_agent_is_missing_node():
    g = grid3x3()
    with pytest.raises(MissingNodeError):
        proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 99)


def test_meters_metric_uses_dijkstra_order():
    # hop order from 0 would visit 1 before 2; meters order must not
    g = build_graph(3, [(0, 1, 10.0), (0, 2, 3.0), (1, 2, 3.0)], objects={1: [keyfob(1)]})
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0, metric="meters")
    assert result.visit_order == (0, 2, 1)
    assert result.first_satisfied == reference_hit(g, 0, 1) == (1, 1, 6.0)


def test_meter_order_ties_only_on_equal_float_sums():
    # 0.1 + 0.2 is the float 0.30000000000000004, so node 2 is farther than node 3
    g = build_graph(4, [(0, 1, 0.1), (1, 2, 0.2), (0, 3, 0.3)])
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0, metric="meters")
    assert result.visit_order == (0, 1, 3, 2)
    # dyadic lengths sum exactly, so nodes 2 and 3 tie and go by ascending id
    g = build_graph(4, [(0, 1, 0.25), (1, 2, 0.5), (0, 3, 0.75)])
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0, metric="meters")
    assert result.visit_order == (0, 1, 2, 3)


def test_a_node_that_ties_its_own_predecessor_is_visited_after_it():
    # 1e16 + 1.0 rounds to 1e16: nodes 1 and 2 tie, but 1 is reached only through 2
    g = build_graph(3, [(0, 2, 1e16), (2, 1, 1.0)])
    result = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0, metric="meters")
    assert result.visit_order == (0, 2, 1)


@pytest.mark.parametrize("hit, expected", [(0, (0, 0, 0.0)), (2, (2, 1, 1e16)), (1, (1, 2, 1e16))])
def test_hit_distances_under_absorbing_meter_lengths(hit, expected):
    # 1e16 + 1.0 rounds to 1e16: both metrics read the distances the kernels settle
    g = build_graph(3, [(0, 2, 1e16), (2, 1, 1.0)], objects={hit: [keyfob(1)]})
    assert reference_hit(g, 0, hit) == expected
    for metric in ("hops", "meters"):
        assert proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0, metric).first_satisfied == expected
        assert proximity_search_first(g, OracleBackend(), FIND_KEYFOB, 0, metric).first_satisfied == expected
    assert brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=0).first_satisfied == expected


class ExplodingBackend:
    def __init__(self, explode_at):
        self.explode_at = explode_at

    def answer(self, node, query):
        if node.id == self.explode_at:
            raise BackendError(f"backend died at {node.id}")
        return OracleBackend().answer(node, query)


def test_backend_error_aborts_with_partial_result():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(TraversalAbortedError) as excinfo:
        proximity_query_all(g, ExplodingBackend(explode_at=1), FIND_KEYFOB, 0)
    err = excinfo.value
    assert err.node_id == 1
    assert err.partial.visit_order == (0,)
    assert err.partial.first_satisfied is None
    assert isinstance(err.__cause__, BackendError)


def test_partial_result_of_an_aborted_traversal_reports_its_hit():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], objects={1: [keyfob(1)]})
    with pytest.raises(TraversalAbortedError) as excinfo:
        proximity_query_all(g, ExplodingBackend(explode_at=3), FIND_KEYFOB, 0, metric="meters")
    assert excinfo.value.partial.visit_order == (0, 1, 2)
    assert excinfo.value.partial.first_satisfied == reference_hit(g, 0, 1) == (1, 1, 1.0)


# --- proximity_search_first ------------------------------------------------------------


def test_hit_in_agent_node_costs_one_call():
    g = build_graph(3, [(0, 1), (1, 2)], objects={1: [keyfob(1)]})
    result = proximity_search_first(g, OracleBackend(), FIND_KEYFOB, 1)
    assert result.total_backend_calls == 1
    assert result.stopped_early is True
    assert result.first_satisfied == (1, 0, 0.0)
    assert result.visit_order == (1,)


def test_no_hit_equals_full_traversal():
    g = grid3x3()
    first = proximity_search_first(g, OracleBackend(), FIND_KEYFOB, 0)
    full = proximity_query_all(g, OracleBackend(), FIND_KEYFOB, 0)
    assert first == full
    assert first.stopped_early is False
    assert first.first_satisfied is None


def test_truncates_immediately_after_hit():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], objects={2: [keyfob(1)]})
    result = proximity_search_first(g, OracleBackend(), FIND_KEYFOB, 0)
    assert result.visit_order == (0, 1, 2)
    assert result.stopped_early is True
    assert result.first_satisfied == (2, 2, 2.0)
    assert result.visit_order[-1] == result.first_satisfied[0]


def test_a_hit_on_the_last_node_of_the_order_still_counts_as_stopping_early():
    # nothing is left to cut, yet the flag reports the stop on the first hit
    g = build_graph(2, [(0, 1)], objects={1: [keyfob(1)]})
    for result in (
        proximity_search_first(g, OracleBackend(), FIND_KEYFOB, 0),
        brute_force_query(g, OracleBackend(), FIND_KEYFOB, 0, stop_on_first=True),
    ):
        assert result.visit_order == (0, 1)
        assert result.stopped_early is True


def test_seeded_world_hit_is_nearest_by_hops():
    spec = WorldSpec(grid_w=8, grid_h=5, seed=424242, objects_per_room_mean=1.0)
    graph, ground_truth = generate_world(spec)
    labels = sorted({i.label for i in ground_truth.physical_instances()})
    assert labels, "world must contain objects"
    for agent in (0, 17, 39):
        for label in labels:
            query = Query(f"find {label}", Predicate(label_equals=label))
            result = proximity_search_first(graph, OracleBackend(), query, agent)
            oracle = ground_truth_nearest(graph, ground_truth, agent, query.predicate, "hops")
            if oracle is None:
                assert result.first_satisfied is None
            else:
                assert result.first_satisfied is not None
                assert result.first_satisfied[1] == oracle[1]


# --- path_query ---------------------------------------------------------------------


def test_path_query_visits_path_in_order():
    g = build_graph(3, [(0, 1), (1, 2)])
    result = path_query(g, OracleBackend(), FIND_KEYFOB, [0, 1, 2])
    assert result.visit_order == (0, 1, 2)
    assert [r.node for r in result.responses] == [0, 1, 2]
    assert result.stopped_early is False


def test_path_query_reports_the_hit_relative_to_the_path_start():
    # the path walks round the square, but node 3 is one edge from its start
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3, 5.0)], objects={3: [keyfob(1)]})
    result = path_query(g, OracleBackend(), FIND_KEYFOB, [0, 1, 2, 3, 2])
    assert result.visit_order == (0, 1, 2, 3, 2)
    assert result.first_satisfied == reference_hit(g, 0, 3) == (3, 1, 3.0)


def test_path_query_hit_along_a_long_route_matches_the_reference_searches():
    graph, _ = generate_world(WorldSpec(grid_w=12, grid_h=10, seed=8))
    for metric in ("hops", "meters"):
        route = graph.shortest_path(0, len(graph) - 1, metric)
        result = path_query(graph, OracleBackend(), FIND_CHAIR, route)
        assert result.first_satisfied is not None
        assert result.first_satisfied == reference_hit(graph, 0, result.first_satisfied[0])


def test_path_query_rejects_non_adjacent_pair():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidPathError) as excinfo:
        path_query(g, OracleBackend(), FIND_KEYFOB, [0, 2])
    assert excinfo.value.pair == (0, 2)


def test_path_query_rejects_unknown_node():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(MissingNodeError):
        path_query(g, OracleBackend(), FIND_KEYFOB, [0, 1, 7])


def test_path_query_rejects_empty_path():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError):
        path_query(g, OracleBackend(), FIND_KEYFOB, [])


def test_path_query_repeated_node_queried_per_occurrence():
    g = build_graph(2, [(0, 1)])
    result = path_query(g, OracleBackend(), FIND_KEYFOB, [0, 1, 0])
    assert result.visit_order == (0, 1, 0)
    assert result.total_backend_calls == 3


def test_cached_rerun_of_identical_path_is_free():
    g = build_graph(3, [(0, 1), (1, 2)], objects={2: [keyfob(1)]})
    backend = CachingBackend(OracleBackend())
    first = path_query(g, backend, FIND_KEYFOB, [0, 1, 2])
    second = path_query(g, backend, FIND_KEYFOB, [0, 1, 2])
    assert first.total_backend_calls == 3
    assert second.total_backend_calls == 0
    assert [r.node for r in second.responses] == [0, 1, 2]
    assert backend.hits == 3


def test_cache_also_collapses_repeats_inside_one_path():
    g = build_graph(2, [(0, 1)])
    backend = CachingBackend(OracleBackend())
    result = path_query(g, backend, FIND_KEYFOB, [0, 1, 0, 1])
    assert len(result.responses) == 4
    assert result.total_backend_calls == 2


# --- brute_force_query ------------------------------------------------------------------


def test_brute_force_queries_everything_in_id_order():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    result = brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=2)
    assert result.visit_order == (0, 1, 2, 3, 4)
    assert result.total_backend_calls == 5
    assert result.stopped_early is False


def test_brute_force_stop_on_first_ignores_agent_position():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], objects={0: [keyfob(1)]})
    for agent in range(4):
        result = brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=agent, stop_on_first=True)
        assert result.total_backend_calls == 1
        assert result.first_satisfied[0] == 0


def test_brute_force_reports_distances_relative_to_agent():
    g = build_graph(3, [(0, 1), (1, 2)], objects={0: [keyfob(1)], 2: [keyfob(2)]})
    result = brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=2)
    assert result.first_satisfied == reference_hit(g, 2, 0) == (0, 2, 2.0)
    result = brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=0)
    assert result.first_satisfied == (0, 0, 0.0)


def test_brute_force_hit_far_from_agent_matches_the_reference_searches():
    graph, _ = generate_world(WorldSpec(grid_w=9, grid_h=7, seed=5))
    uneven = Datagraph(graph.nodes(), [(e.a, e.b, e.traversable, e.length_m * (1 + (e.a * 7 + e.b) % 5))
                                       for e in graph.edges()])
    agent = len(graph) - 1
    for g in (graph, uneven):
        for stop_on_first in (False, True):
            result = brute_force_query(g, OracleBackend(), FIND_CHAIR, agent, stop_on_first)
            hit = result.first_satisfied[0]
            assert reference_hit(g, agent, hit)[1] >= 5
            assert result.first_satisfied == reference_hit(g, agent, hit)


def test_brute_force_covers_disconnected_nodes():
    g = build_graph(3, [(0, 1)], objects={2: [keyfob(1)]})
    result = brute_force_query(g, OracleBackend(), FIND_KEYFOB, agent=0)
    assert result.visit_order == (0, 1, 2)
    assert result.first_satisfied == reference_hit(g, 0, 2) == (2, None, None)  # unreachable from agent


def test_multiset_equivalence_with_proximity():
    graph = random_connected_graph(seed=99, max_nodes=30)
    # give some nodes objects by rebuilding a decorated world instead
    spec = WorldSpec(grid_w=5, grid_h=4, seed=7, objects_per_room_mean=2.0)
    graph, _ = generate_world(spec)
    query = FIND_KEYFOB
    brute = brute_force_query(graph, OracleBackend(), query, agent=3)
    prox = proximity_query_all(graph, OracleBackend(), query, agent=3)
    key = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
    assert sorted(map(key, brute.responses)) == sorted(map(key, prox.responses))


# --- aggregate_count ---------------------------------------------------------------------


COUNT_EXT = Query("how many extinguishers", Predicate(label_equals="extinguisher"), "count")


def ext(instance_id, pos):
    return SceneObject("extinguisher", {}, pos, instance_id)


def test_aggregate_distinct_objects_radius_zero():
    g = build_graph(
        3,
        [(0, 1), (1, 2)],
        objects={0: [ext(0, (0, 0, 0))], 1: [ext(1, (5, 0, 0))], 2: [ext(2, (9, 0, 0))]},
    )
    report = aggregate_count(g, OracleBackend(), COUNT_EXT, dedup_radius_m=0.0)
    assert report.raw_total == 3
    assert report.deduped_total == 3
    assert report.per_node_counts == {0: 1, 1: 1, 2: 1}
    assert report.merged_groups == ()


def test_aggregate_merges_identical_position_duplicate():
    shared = ext(0, (0.9, 0.0, 0.0))
    dup = ext(1, (0.9, 0.0, 0.0))
    g = build_graph(2, [(0, 1)], objects={0: [shared], 1: [dup]})
    report = aggregate_count(g, OracleBackend(), COUNT_EXT, dedup_radius_m=0.5)
    assert report.raw_total == 2
    assert report.deduped_total == 1
    assert len(report.merged_groups) == 1
    assert {node for node, _ in report.merged_groups[0]} == {0, 1}


def test_aggregate_offset_duplicates_merge_within_radius():
    # boundary duplicates registered 0.3 m apart across the wall
    g = build_graph(
        2,
        [(0, 1)],
        objects={
            0: [ext(0, (1.0, 0.0, 0.0)), ext(2, (0.2, 3.0, 0.0))],
            1: [ext(1, (1.3, 0.0, 0.0))],
        },
    )
    report = aggregate_count(g, OracleBackend(), COUNT_EXT, dedup_radius_m=0.5)
    assert report.raw_total == 3
    assert report.deduped_total == 2


def test_aggregate_radius_zero_disables_merging_even_for_exact_duplicates():
    shared = ext(0, (0.0, 0.0, 0.0))
    dup = ext(1, (0.0, 0.0, 0.0))
    g = build_graph(2, [(0, 1)], objects={0: [shared], 1: [dup]})
    report = aggregate_count(g, OracleBackend(), COUNT_EXT, dedup_radius_m=0.0)
    assert report.deduped_total == report.raw_total == 2


def test_aggregate_requires_count_mode():
    g = build_graph(1, [])
    with pytest.raises(ValueError):
        aggregate_count(g, OracleBackend(), FIND_KEYFOB, 0.5)


@pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_aggregate_refuses_a_negative_or_non_finite_radius(radius):
    g = build_graph(2, [(0, 1)], objects={0: [ext(0, (0, 0, 0))], 1: [ext(1, (0, 0, 0))]})
    with pytest.raises(ValueError, match="dedup_radius_m must be finite and non-negative"):
        aggregate_count(g, OracleBackend(), COUNT_EXT, radius)


def test_aggregate_label_and_attributes_gate_merging():
    a = SceneObject("keyfob", {"number": "1"}, (0.0, 0.0, 0.0), 0)
    b = SceneObject("keyfob", {"number": "2"}, (0.1, 0.0, 0.0), 1)
    g = build_graph(2, [(0, 1)], objects={0: [a], 1: [b]})
    query = Query("count keyfobs", Predicate(label_equals="keyfob"), "count")
    report = aggregate_count(g, OracleBackend(), query, dedup_radius_m=0.5)
    assert report.deduped_total == 2  # attributes differ; never merged


class PositionlessBackend:
    """Simulates a remote backend: counts without coordinates."""

    def answer(self, node, query):
        matches = tuple(
            SceneObject(o.label, o.attributes, None, -1) for o in node.snapshot.objects
        )
        return QueryResponse(node.id, bool(matches), matches, len(matches), "remote", 1)


def test_aggregate_without_positions_errors_unless_radius_zero():
    g = build_graph(2, [(0, 1)], objects={0: [ext(0, (0, 0, 0))], 1: [ext(1, (1, 0, 0))]})
    with pytest.raises(DedupUnavailableError):
        aggregate_count(g, PositionlessBackend(), COUNT_EXT, dedup_radius_m=0.5)
    report = aggregate_count(g, PositionlessBackend(), COUNT_EXT, dedup_radius_m=0.0)
    assert report.raw_total == report.deduped_total == 2


@pytest.mark.parametrize("k", [0, 4, 8])
def test_aggregate_aborts_with_the_counts_before_the_failing_node(k):
    g, _ = generate_world(WorldSpec(3, 3, seed=5))
    with pytest.raises(TraversalAbortedError) as excinfo:
        aggregate_count(g, ExplodingBackend(explode_at=k), COUNT_EXT, dedup_radius_m=0.5)
    err = excinfo.value
    assert err.node_id == k
    assert err.partial.visit_order == tuple(range(k))
    assert err.partial.responses == tuple(OracleBackend().answer(g.node(v), COUNT_EXT) for v in range(k))
    assert err.partial.total_backend_calls == k
    assert err.partial.first_satisfied is None
    assert err.partial.stopped_early is False
    assert isinstance(err.__cause__, BackendError) and str(err.__cause__) == f"backend died at {k}"


class StaleIdBackend(ExplodingBackend):
    """Answers every scene under node id 99, as a backend with stale ids would."""

    def answer(self, node, query):
        response = super().answer(node, query)
        return QueryResponse(99, response.satisfied, response.matches, response.count, response.text, 1)


def test_aggregate_keys_each_answer_by_the_node_it_visited():
    shared = (0.5, 0.0, 0.0)
    g = build_graph(3, [(0, 1), (1, 2)], objects={0: [ext(0, shared)], 1: [ext(1, shared)], 2: [ext(2, (9, 0, 0))]})
    report = aggregate_count(g, StaleIdBackend(explode_at=None), COUNT_EXT, dedup_radius_m=0.5)
    assert report.per_node_counts == {0: 1, 1: 1, 2: 1}
    assert [[node for node, _ in group] for group in report.merged_groups] == [[0, 1]]
    with pytest.raises(TraversalAbortedError) as excinfo:
        aggregate_count(g, StaleIdBackend(explode_at=2), COUNT_EXT, dedup_radius_m=0.5)
    partial = excinfo.value.partial
    assert partial.visit_order == (0, 1)
    assert [r.node for r in partial.responses] == [0, 1]


def test_aggregate_stops_at_the_first_node_that_fails_or_does_not_itemize():
    g = build_graph(3, [(0, 1), (1, 2)], objects={1: [ext(0, (0, 0, 0))]})

    class CountOnly(ExplodingBackend):
        def answer(self, node, query):
            response = super().answer(node, query)
            return QueryResponse(node.id, response.satisfied, (), response.count, "", 1)

    with pytest.raises(TraversalAbortedError) as excinfo:
        aggregate_count(g, CountOnly(explode_at=0), COUNT_EXT, dedup_radius_m=0.5)
    assert excinfo.value.partial.visit_order == ()
    # node 1 counts a match it does not list, and node 2 is never queried
    with pytest.raises(DedupUnavailableError, match="node 1 reported 1 matches but itemized 0"):
        aggregate_count(g, CountOnly(explode_at=2), COUNT_EXT, dedup_radius_m=0.5)


def test_aggregate_single_linkage_chains():
    # three detections in a chain, each neighbor within radius: one cluster
    objs = {
        0: [ext(0, (0.0, 0.0, 0.0))],
        1: [ext(1, (0.4, 0.0, 0.0))],
        2: [ext(2, (0.8, 0.0, 0.0))],
    }
    g = build_graph(3, [(0, 1), (1, 2)], objects=objs)
    report = aggregate_count(g, OracleBackend(), COUNT_EXT, dedup_radius_m=0.5)
    assert report.deduped_total == 1
    assert len(report.merged_groups[0]) == 3


# --- determinism & properties ----------------------------------------------------------


def test_traversals_are_byte_deterministic():
    spec = WorldSpec(grid_w=6, grid_h=6, seed=11, objects_per_room_mean=1.5)
    graph, _ = generate_world(spec)
    query = FIND_KEYFOB
    runs = [proximity_query_all(graph, OracleBackend(), query, agent=8) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [brute_force_query(graph, OracleBackend(), query, agent=8) for _ in range(2)]
    assert runs[0] == runs[1]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_property_visit_order_matches_queue_bfs(seed):
    graph = random_connected_graph(seed, max_nodes=40)
    result = proximity_query_all(graph, OracleBackend(), FIND_KEYFOB, 0)
    assert list(result.visit_order) == bfs_visit_order(len(graph), edge_dict(graph), 0)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_property_query_count_bound(seed):
    spec = WorldSpec(grid_w=5, grid_h=5, seed=seed, objects_per_room_mean=0.8)
    graph, ground_truth = generate_world(spec)
    labels = sorted({i.label for i in ground_truth.physical_instances()})
    if not labels:
        return
    label = labels[seed % len(labels)]
    agent = seed % len(graph)
    query = Query(f"find {label}", Predicate(label_equals=label))
    result = proximity_search_first(graph, OracleBackend(), query, agent)
    hops = graph.hop_distances(agent)
    match_nodes = {
        i.home_node
        for i in ground_truth.instances
        if i.label == label and i.home_node in hops
    }
    if not match_nodes:
        assert result.stopped_early is False
        assert result.total_backend_calls == len(hops)
        return
    d_star = min(hops[v] for v in match_nodes)
    below = sum(1 for v in hops.values() if v < d_star)
    level = sorted(v for v, d in hops.items() if d == d_star)
    hits_in_level = [v for v in level if v in match_nodes]
    rank = level.index(hits_in_level[0]) + 1
    assert result.first_satisfied[0] == hits_in_level[0]
    assert result.first_satisfied[1] == d_star
    assert result.total_backend_calls == below + rank


# Generated worlds from 6x6 to 100x100 rooms, each with and without boundary
# duplicates; the larger ones hold fewer objects, so that searches run far.
FORMULA_WORLDS = [
    WorldSpec(6, 6, seed=1),
    WorldSpec(6, 6, seed=2, boundary_duplicate_prob=0.5),
    WorldSpec(16, 16, seed=3, objects_per_room_mean=0.3),
    WorldSpec(16, 16, seed=4, objects_per_room_mean=0.3, boundary_duplicate_prob=0.5),
    WorldSpec(40, 40, seed=5, objects_per_room_mean=0.05),
    WorldSpec(40, 40, seed=6, objects_per_room_mean=0.05, boundary_duplicate_prob=0.5),
    WorldSpec(100, 100, seed=7, objects_per_room_mean=0.01),
    WorldSpec(100, 100, seed=8, objects_per_room_mean=0.01, boundary_duplicate_prob=0.5),
]


def formula_calls(dist, homes):
    """The query-count formula: nodes closer than the nearest hit, plus the
    hit's rank by id within its distance tie; with no reachable hit, every
    reachable node. Returns the count and the hit."""
    reachable = [v for v in homes if v in dist]
    if not reachable:
        return len(dist), None
    nearest = min(dist[v] for v in reachable)
    hit = min(v for v in reachable if dist[v] == nearest)
    closer = sum(1 for d in dist.values() if d < nearest)
    return closer + sorted(v for v, d in dist.items() if d == nearest).index(hit) + 1, hit


@pytest.mark.parametrize("spec", FORMULA_WORLDS, ids=lambda spec: f"{spec.grid_w}x{spec.grid_h}-seed{spec.seed}")
def test_query_count_formula_against_a_reference_bfs_and_dijkstra(spec):
    """Distances come from a queue BFS and a heap Dijkstra over ``graph.edges()``,
    hits from the ground truth: nothing here runs the graph's own kernels."""
    graph, ground_truth = generate_world(spec)
    n, edges = len(graph), edge_dict(graph)
    labels = sorted({inst.label for inst in ground_truth.instances}) + ["nothing"]
    for agent in (0, (spec.seed * 7919) % n):
        reference = {"hops": queue_bfs_levels(n, edges, agent), "meters": heap_dijkstra(n, edges, agent)}
        for label in labels:
            query = Query(f"find {label}", Predicate(label_equals=label))
            homes = {inst.home_node for inst in ground_truth.instances if inst.label == label}
            for metric, dist in reference.items():
                calls, hit = formula_calls(dist, homes)
                result = proximity_search_first(graph, OracleBackend(), query, agent, metric)
                assert result.total_backend_calls == calls, (agent, label, metric)
                if hit is None:
                    assert result.first_satisfied is None
                else:
                    node, hops, meters = result.first_satisfied
                    assert node == hit and (hops if metric == "hops" else meters) == dist[hit]
            blind = brute_force_query(graph, OracleBackend(), query, agent, stop_on_first=True)
            first = min(homes, default=None)  # ids are dense, so its rank by id is the id itself
            assert blind.total_backend_calls == (n if first is None else first + 1)
            assert (blind.first_satisfied or (None,))[0] == first


# Generated grids rebuilt with uneven edges and closed doors, where long runs
# of ties, large heaps and a traversable subgraph that differs from the full
# graph all occur: one 100² world with sparse objects and one 316². Each also
# names the (metric, traversable_only) cases of its path check: the eager
# descent builds a full map per call, about 1 s at 316²
ALL_PATH_CASES = [(metric, only) for metric in ("hops", "meters") for only in (False, True)]
UNEVEN_WORLDS = [
    pytest.param(WorldSpec(100, 100, seed=31, objects_per_room_mean=0.01), ALL_PATH_CASES, id="100x100"),
    pytest.param(WorldSpec(316, 316, seed=32, objects_per_room_mean=0.002),
                 [("hops", False), ("meters", True)], id="316x316"),
]


def uneven_world(spec):
    """``generate_world(spec)`` rebuilt through ``Datagraph(nodes, rows)``, each
    edge's length L drawn from L, L/2, 1.5L, L plus a uniform draw in [0, 1)
    and 0.1 + 0.2, and about one edge in ten closed. Returns the graph, its
    ground truth and its ``(a, b, traversable, length_m)`` rows."""
    graph, ground_truth = generate_world(spec)
    rng = np.random.default_rng(spec.seed)
    edges = graph.edges()
    picks = rng.integers(0, 5, len(edges)).tolist()
    draws = rng.uniform(0.0, 1.0, len(edges)).tolist()
    closed = (rng.random(len(edges)) < 0.1).tolist()
    rows = [
        (e.a, e.b, not shut, (e.length_m, e.length_m / 2, 1.5 * e.length_m, e.length_m + draw, 0.1 + 0.2)[pick])
        for e, pick, draw, shut in zip(edges, picks, draws, closed)
    ]
    return Datagraph(graph.nodes(), rows), ground_truth, rows


@pytest.mark.parametrize("spec, path_cases", UNEVEN_WORLDS)
@_collector_paused()  # as run_compare runs: collections walk the world's tuples and free nothing
def test_query_counts_and_paths_at_scale_with_uneven_edges_and_closed_doors(spec, path_cases):
    """The query-count formula, the traversable-only maps in key order, and
    ``nearest`` against a queue BFS and a heap Dijkstra over the drawn rows;
    ``shortest_path`` against the eager descent. Nothing here runs the
    graph's own kernels as a reference."""
    graph, ground_truth, rows = uneven_world(spec)
    n = len(graph)
    every = {(a, b): length for a, b, _, length in rows}
    kept = {(a, b): length for a, b, traversable, length in rows if traversable}
    assert 0 < len(every) - len(kept) < len(every) / 5
    labels = sorted({inst.label for inst in ground_truth.instances})[:5] + ["nothing"]
    assert len(labels) == 6
    agents = (0, (spec.seed * 7919) % n)
    for agent in agents:
        full = {"hops": queue_bfs_levels(n, every, agent), "meters": heap_dijkstra(n, every, agent)}
        # no sum absorbs an edge, so the heap pops in (meters, id) order
        assert list(full["meters"]) == sorted(full["meters"], key=lambda v: (full["meters"][v], v))
        for label in labels:
            query = Query(f"find {label}", Predicate(label_equals=label))
            homes = {inst.home_node for inst in ground_truth.instances if inst.label == label}
            for metric, dist in full.items():
                calls, hit = formula_calls(dist, homes)
                result = proximity_search_first(graph, OracleBackend(), query, agent, metric)
                assert result.total_backend_calls == calls, (agent, label, metric)
                if hit is None:
                    assert result.first_satisfied is None and graph.nearest(agent, homes, metric) is None
                else:
                    assert result.first_satisfied == (hit, full["hops"][hit], full["meters"][hit])
                    assert graph.nearest(agent, homes, metric) == (hit, dist[hit])
        hops, meters = queue_bfs_levels(n, kept, agent), heap_dijkstra(n, kept, agent)
        assert list(graph.hop_distances(agent, traversable_only=True).items()) == sorted(
            hops.items(), key=lambda item: (item[1], item[0]))
        assert list(graph.geodesic_distances(agent, traversable_only=True).items()) == list(meters.items())
    goal = max(hops, key=lambda v: (hops[v], v))  # the farthest node the second agent reaches through doors
    for metric, traversable_only in path_cases:
        expected = eager_shortest_path(graph, agents[1], goal, metric, traversable_only)
        assert graph.shortest_path(agents[1], goal, metric, traversable_only) == expected, (metric, traversable_only)


# Edge lengths for the formula on random graphs: dyadic sums are exact and tie
# often; 0.1 + 0.2 rounds past 0.3; 1e16 next to 1.0 absorbs the short edge,
# so a node can tie its own predecessor and pop after a higher id.
FORMULA_LENGTHS = {
    "dyadic": st.sampled_from([0.25, 0.5, 1.0]),
    "non-dyadic": st.sampled_from([0.1, 0.2, 0.3]),
    "absorbing": st.sampled_from([1e16, 1.0]),
}


@st.composite
def formula_cases(draw):
    """``(family, n, edges, homes, agent)``: a random graph of up to 24 nodes,
    not always connected, with ``(a, b, length, traversable)`` edges whose
    lengths come from one family, and the nodes that hold a keyfob."""
    n = draw(st.integers(1, 24))
    family = draw(st.sampled_from(sorted(FORMULA_LENGTHS)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
        unique_by=lambda p: (min(p), max(p)),
    ))
    edges = [(a, b, draw(FORMULA_LENGTHS[family]), draw(st.booleans())) for a, b in pairs]
    return family, n, edges, draw(st.sets(st.integers(0, n - 1), max_size=3)), draw(st.integers(0, n - 1))


def check_query_count_formula(case):
    """A first-hit search spends one query per node the reference reaches
    before the first keyfob, plus one; with none reachable, one per node.

    The references run over the drawn edges (only the traversable ones with
    ``traversable_only``), never over the graph: the queue BFS in (hops, id)
    order and the heap Dijkstra in pop order. Unless a sum absorbs an edge,
    those pops follow (meters, id), so the count is nodes closer than the hit
    plus the hit's rank by id in its tie. Traversals take no
    ``traversable_only``, so with it the graph's own map is checked."""
    family, n, edges, homes, agent = case
    graph = build_graph(n, edges, objects={v: [keyfob(v)] for v in homes})
    for traversable_only in (False, True):
        kept = {(a, b): length for a, b, length, traversable in edges if traversable or not traversable_only}
        hops, meters = queue_bfs_levels(n, kept, agent), heap_dijkstra(n, kept, agent)
        orders = {"hops": sorted(hops, key=lambda v: (hops[v], v)), "meters": list(meters)}
        if family != "absorbing":
            assert orders["meters"] == sorted(meters, key=lambda v: (meters[v], v))
        for metric, order in orders.items():
            hit = next((v for v in order if v in homes), None)
            calls = len(order) if hit is None else order.index(hit) + 1
            if traversable_only:
                visits = list((graph.hop_distances if metric == "hops" else graph.geodesic_distances)(agent, True))
                assert visits[:calls] == order[:calls]
            else:
                result = proximity_search_first(graph, OracleBackend(), FIND_KEYFOB, agent, metric)
                assert result.total_backend_calls == calls, (metric, result.visit_order, order)
                assert result.first_satisfied == (None if hit is None else (hit, hops[hit], meters[hit]))


@given(formula_cases())
@settings(max_examples=300, deadline=None)
def test_property_query_count_formula_on_random_graphs(case):
    check_query_count_formula(case)


def _meter_kernel_with_descending_ties(self, source, dist):
    """A planted fault: the meter kernel popping equal sums by descending id."""
    adj = self._pairs
    best, heap = {source: 0.0}, [(0.0, -source)]
    while heap:
        d, v = heappop(heap)
        v = -v
        if v in dist:
            continue
        dist[v] = d
        yield d, v
        for w, length_m in adj[v]:
            if w not in dist and (w not in best or d + length_m < best[w]):
                best[w] = d + length_m
                heappush(heap, (best[w], -w))


def test_the_formula_check_catches_a_kernel_that_breaks_ties_by_descending_id(monkeypatch):
    def fails(case):
        try:
            check_query_count_formula(case)
        except AssertionError:
            return True
        return False

    monkeypatch.setattr(Datagraph, "_meter_kernel", _meter_kernel_with_descending_ties)
    search = settings(max_examples=1000, database=None, derandomize=True, phases=[Phase.generate])
    case = find(formula_cases(), fails, settings=search)
    monkeypatch.undo()
    check_query_count_formula(case)  # only the fault failed it


# SHA-256 over visit_order, total_backend_calls and first_satisfied of
# proximity_search_first and proximity_query_all for a keyfob query, from every
# agent of three saved worlds, by hops and by meters, as the traversal ordered
# them with its own BFS and Dijkstra, before the distance maps became the order
PINNED_VISIT_ORDERS_DIGEST = "3abdfe1726240a0c0cbdd8650de104f2fda7ce84919ea631d04b25be8ab04b56"


class FixedAnswers:
    """Answers looked up by node id, so a test can replay the oracle's
    answers for many traversals without recomputing them per visit."""

    def __init__(self, answers):
        self.answers = answers

    def answer(self, node, query):
        return self.answers[node.id]


def test_visit_orders_of_saved_worlds_are_pinned(tmp_path):
    specs = [
        WorldSpec(grid_w=6, grid_h=6, seed=42),
        WorldSpec(grid_w=12, grid_h=1, seed=5, boundary_duplicate_prob=0.6, objects_per_room_mean=4.0),
        WorldSpec(grid_w=24, grid_h=24, seed=3),
    ]
    digest = hashlib.sha256()
    for spec in specs:
        graph, _ = generate_world(spec)
        graph.save(tmp_path / "world.json")
        graph = Datagraph.load(tmp_path / "world.json")
        oracle = OracleBackend()
        backend = FixedAnswers([oracle.answer(node, FIND_KEYFOB) for node in graph.nodes()])
        for metric in ("hops", "meters"):
            for search in (proximity_search_first, proximity_query_all):
                for agent in range(len(graph)):
                    result = search(graph, backend, FIND_KEYFOB, agent, metric)
                    seen = [result.visit_order, result.total_backend_calls, result.first_satisfied]
                    digest.update(json.dumps(seen).encode())
    assert digest.hexdigest() == PINNED_VISIT_ORDERS_DIGEST


# SHA-256 of run_compare reports, as report_digest reads them, for a config
# per metric and one keyfob config, computed before graphs had one constructor
PINNED_REPORTS = {
    "hops": (
        ExperimentConfig(WorldSpec(6, 6, seed=42), TaskConfig("nearest_search", 12, 1)),
        "46f8a371e0383eaf77c9772af4b65ebfec22dec8e397f07b9109218822cdb972",
    ),
    "meters": (
        ExperimentConfig(WorldSpec(9, 7, seed=8, boundary_duplicate_prob=0.3),
                         TaskConfig("nearest_search", 12, 2), metric="meters"),
        "cc86123d114d8e7f03c8119272f5d54cafb210ebbce8a9610949da47fc65b0bb",
    ),
    "keyfob": (
        ExperimentConfig(WorldSpec(6, 6, seed=5, objects_per_room_mean=2.0),
                         TaskConfig("keyfob_match", 8, 3), brute_force_stop_on_first=True),
        "884616bc830334a19a333aafa6cc67c72b1e05f1ed26c79abe9cf5eb5716ef51",
    ),
}


def report_digest(report) -> str:
    """SHA-256 of a report's JSON with its wall-clock fields nulled."""
    doc = json.loads(report.to_json())
    for row in doc["per_trial"]:
        row["wall_time_ms"] = None
    for stats in doc["summary"].values():
        stats["total_wall_time_ms"] = None
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_compare_reports_are_pinned(name):
    config, digest = PINNED_REPORTS[name]
    assert report_digest(run_compare(config)) == digest


# run in a fresh interpreter: saves a world to argv[1], then prints its
# digest (pinned below, from before graphs had one constructor) and each
# pinned report's, then records a run of 60 inline worlds to argv[2]
SCRIPT_WORLD_DIGEST = "1930f43991c433dd43916c28f360256bbd1e7b3265ad5bd4d014adec3f7e8ccd"
DETERMINISM_SCRIPT = """
import hashlib, sys
from datagraph import BackendConfig, ExperimentConfig, TaskConfig, WorldSpec, generate_world, run_compare
from test_traversal import PINNED_REPORTS, report_digest
generate_world(WorldSpec(20, 20, seed=9, boundary_duplicate_prob=0.3))[0].save(sys.argv[1])
with open(sys.argv[1], "rb") as saved:
    print(hashlib.sha256(saved.read()).hexdigest())
for config, _ in PINNED_REPORTS.values():
    print(report_digest(run_compare(config)))
run_compare(ExperimentConfig(WorldSpec(6, 6, seed=3), TaskConfig("nearest_search", 60, 1),
                             BackendConfig(record_path=sys.argv[2])))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    path = os.pathsep.join([str(Path(datagraph.__file__).parents[1]), str(Path(__file__).parent)])
    runs = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        world, store = tmp_path / f"world-{hash_seed}.json", tmp_path / f"store-{hash_seed}.json"
        done = subprocess.run([sys.executable, "-c", DETERMINISM_SCRIPT, str(world), str(store)],
                              env=env, capture_output=True, text=True, check=True)
        runs.append((world.read_bytes(), store.read_bytes(), done.stdout))
    assert runs[0] == runs[1]
    assert runs[0][2].split() == [SCRIPT_WORLD_DIGEST] + [digest for _, digest in PINNED_REPORTS.values()]


# --- laziness: which searches build a full distance map -----------------------------


@pytest.fixture
def full_map_calls(monkeypatch):
    """Counts of the calls to each full distance map, by its method name."""
    calls = {"hop_distances": 0, "geodesic_distances": 0}
    for name in calls:
        real = getattr(Datagraph, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Datagraph, name, counting)
    return calls


def test_only_the_visit_order_builds_a_full_map(full_map_calls):
    graph, ground_truth = generate_world(WorldSpec(grid_w=12, grid_h=12, seed=4))
    none = {"hop_distances": 0, "geodesic_distances": 0}
    for metric, full_map in (("hops", "hop_distances"), ("meters", "geodesic_distances")):
        for query in (FIND_CHAIR, Query("find a unicorn", Predicate(label_equals="unicorn"))):
            result = proximity_search_first(graph, OracleBackend(), query, 70, metric)
            assert full_map_calls == {**none, full_map: 1}, (metric, query.text)
            full_map_calls[full_map] = 0
            if result.first_satisfied is not None:
                assert result.first_satisfied == reference_hit(graph, 70, result.first_satisfied[0])
            else:
                assert query.text == "find a unicorn" and len(result.visit_order) == len(graph)
    route = graph.shortest_path(0, len(graph) - 1, "meters")
    assert graph.shortest_path(0, len(graph) - 1, "hops", traversable_only=True) is not None
    result = path_query(graph, OracleBackend(), FIND_CHAIR, route)
    assert result.first_satisfied == reference_hit(graph, 0, result.first_satisfied[0])
    for stop_on_first in (False, True):
        result = brute_force_query(graph, OracleBackend(), FIND_CHAIR, 70, stop_on_first)
        assert result.first_satisfied == reference_hit(graph, 70, result.first_satisfied[0])
    for metric in ("hops", "meters"):
        assert ground_truth_nearest(graph, ground_truth, 70, FIND_CHAIR.predicate, metric) is not None
    assert full_map_calls == none
