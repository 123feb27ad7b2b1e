"""The backends' agreement: every traversal gives the oracle's outcome
through each other backend.

The remote leg sends each traversal through ``RemoteBackend`` to an endpoint
that answers as the oracle does, and compares visit order, call counts and
verdicts. Remote answers carry no positions or instance ids, so matched
objects are not compared there. A count query is answered with its count
alone, as an endpoint that counts without itemizing would answer it.

The cache and replay legs send each traversal through
``CachingBackend(OracleBackend())`` and through a ``ReplayStore`` that was
recorded, saved and loaded back, on the world as generated and on the same
world saved and reloaded with ``load_world_files``. They compare everything
the oracle's traversal gives, matched objects included, except the
backend-call accounting, which a cache hit and a replay set to zero.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    CachingBackend,
    OracleBackend,
    Predicate,
    Query,
    RemoteBackend,
    RemoteEndpointConfig,
    ReplayStore,
    RecordingBackend,
    SceneObject,
    Snapshot,
    WorldSpec,
    aggregate_count,
    brute_force_query,
    generate_world,
    path_query,
    proximity_query_all,
    proximity_search_first,
)
from datagraph.backends import oracle_answer
from datagraph.harness import (
    HAZARD_QUERY,
    BackendConfig,
    ExperimentConfig,
    TaskConfig,
    WorldFiles,
    load_world_files,
    run_compare,
    run_route_scan,
)
from datagraph.mock_remote import MockRemoteServer
from datagraph.worldgen import default_catalog


@pytest.fixture(scope="module")
def endpoint():
    """A mock endpoint answering each query text it is given as the oracle
    would, and the map from those texts to their queries."""
    queries: dict[str, Query] = {}

    def handler(request):
        query = queries[request["query_text"]]
        objects = tuple(SceneObject.from_json_dict(doc) for doc in request["objects_hint"])
        answer = oracle_answer(Snapshot(objects, request["payload_ref"]), query)
        doc = {"satisfied": answer.satisfied, "count": answer.count, "text": answer.text}
        if query.mode != "count":
            doc["objects"] = [{"label": obj.label, "attributes": dict(obj.attributes)} for obj in answer.matches]
        return 200, doc

    with MockRemoteServer(handler=handler) as server:
        yield server.base_url, queries


def outcome(result):
    """What a remote traversal must share with the oracle's."""
    return (
        result.visit_order,
        result.total_backend_calls,
        [(r.backend_calls, r.satisfied, r.count) for r in result.responses],
        result.first_satisfied,
        result.stopped_early,
    )


def draw_case(data):
    """A small world, a find and a count query on one of its labels (or on none),
    and every traversal of the find query, as functions of a backend."""
    spec = WorldSpec(
        grid_w=data.draw(st.integers(6, 12), label="grid_w"),
        grid_h=data.draw(st.integers(6, 12), label="grid_h"),
        boundary_duplicate_prob=data.draw(st.sampled_from([0.0, 0.3]), label="boundary_duplicate_prob"),
        seed=data.draw(st.integers(0, 10_000), label="seed"),
    )
    graph, truth = generate_world(spec)
    instances = truth.physical_instances()
    label = data.draw(st.sampled_from(sorted({i.label for i in instances}) + ["unicorn"]), label="label")
    clauses = ()
    with_attributes = [i for i in instances if i.label == label and i.attributes]
    if with_attributes and data.draw(st.booleans(), label="attribute clause"):
        attributes = data.draw(st.sampled_from(with_attributes)).attributes
        key = data.draw(st.sampled_from(sorted(attributes)))
        clauses = ((key, attributes[key]),)
    predicate = Predicate(label_equals=label, attribute_equals=clauses)
    find = Query(f"where is a {label} with {clauses}?", predicate)
    count = Query(f"how many {label} with {clauses}?", predicate, mode="count")
    agent = data.draw(st.integers(0, len(graph) - 1), label="agent")
    metric = data.draw(st.sampled_from(["hops", "meters"]), label="metric")
    goal = data.draw(st.integers(0, len(graph) - 1), label="goal")
    path = graph.shortest_path(agent, goal, metric)
    runs = [
        lambda graph, backend: proximity_search_first(graph, backend, find, agent, metric),
        lambda graph, backend: proximity_query_all(graph, backend, find, agent, metric),
        lambda graph, backend: brute_force_query(graph, backend, find, agent, stop_on_first=True),
        lambda graph, backend: brute_force_query(graph, backend, find, agent, stop_on_first=False),
    ]
    if path is not None:
        runs.append(lambda graph, backend: path_query(graph, backend, find, path))
    return graph, truth, find, count, runs


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_remote_traversals_match_the_oracle(endpoint, data):
    base_url, queries = endpoint
    graph, _, find, count, runs = draw_case(data)
    queries.update({find.text: find, count.text: count})
    config = RemoteEndpointConfig(base_url, timeout_ms=5000)
    with RemoteBackend(config, forward_annotations=True) as remote:
        for run in runs:
            assert outcome(run(graph, remote)) == outcome(run(graph, OracleBackend()))
        remote_counts = aggregate_count(graph, remote, count, 0.0)
    oracle_counts = aggregate_count(graph, OracleBackend(), count, 0.0)
    assert remote_counts.per_node_counts == oracle_counts.per_node_counts
    assert (remote_counts.raw_total, remote_counts.deduped_total) == (
        oracle_counts.raw_total,
        oracle_counts.deduped_total,
    )


def full_outcome(result):
    """Everything a traversal gives but its backend-call accounting."""
    return (
        result.visit_order,
        [(r.node, r.satisfied, r.count, r.text, r.matches) for r in result.responses],
        result.first_satisfied,
        result.stopped_early,
    )


def count_outcome(report):
    return report.per_node_counts, report.raw_total, report.deduped_total, report.merged_groups


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_cached_and_replayed_traversals_match_the_oracle(tmp_path_factory, data):
    graph, truth, find, count, runs = draw_case(data)
    directory = tmp_path_factory.mktemp("world")
    files = WorldFiles(str(directory / "world.json"), str(directory / "truth.json"))
    graph.save(files.path)
    truth.save(files.ground_truth_path)
    reloaded, reloaded_truth = load_world_files(files)
    assert (reloaded, reloaded_truth) == (graph, truth)
    expected = [full_outcome(run(graph, OracleBackend())) for run in runs]
    expected_counts = count_outcome(aggregate_count(graph, OracleBackend(), count, 1.0))

    recorder = RecordingBackend(OracleBackend())
    for run in runs:
        run(graph, recorder)
    aggregate_count(graph, recorder, count, 1.0)
    recorder.store.save(directory / "store.json")
    store = ReplayStore.load(directory / "store.json")
    assert store == recorder.store

    for world in (graph, reloaded):
        cache = CachingBackend(OracleBackend())  # later traversals are served from the cache
        for backend in (cache, store):
            results = [run(world, backend) for run in runs]
            assert [full_outcome(result) for result in results] == expected
            calls = sum(result.total_backend_calls for result in results)
            # a cache hit and a replayed answer cost no call
            assert calls == (sum(len(result.responses) for result in results) - cache.hits if backend is cache else 0)
            assert count_outcome(aggregate_count(world, backend, count, 1.0)) == expected_counts


# Two labels, so the compare tasks repeat a query: on a saved world a shared
# cache then hits, and across inline worlds, which share node ids, a replay
# key must tell their scenes apart. The gas canisters are the route hazards.
REPORT_SPEC = WorldSpec(
    grid_w=8,
    grid_h=8,
    catalog=tuple(entry for entry in default_catalog() if entry.label in ("chair", "gas_canister")),
    seed=11,
)
REPORT_QUERIES = [
    HAZARD_QUERY,
    *(Query(f"find the nearest {label}", Predicate(label_equals=label)) for label in ("chair", "gas_canister")),
]


def untimed_rows(report):
    """The report's rows with the wall clock nulled and the call accounting
    left out, and that accounting as ``(backend_calls, cache_hits)`` a row."""
    rows = [replace(row, wall_time_ms=None, backend_calls=None, cache_hits=None) for row in report.per_trial]
    return rows, [(row.backend_calls, row.cache_hits) for row in report.per_trial]


@pytest.mark.parametrize("saved", [True, False], ids=["saved-world", "inline-worlds"])
def test_compare_reports_match_the_oracle(endpoint, tmp_path, saved):
    base_url, queries = endpoint
    queries.update((query.text, query) for query in REPORT_QUERIES)
    world = REPORT_SPEC
    if saved:
        graph, truth = generate_world(REPORT_SPEC)
        world = WorldFiles(str(tmp_path / "world.json"), str(tmp_path / "truth.json"))
        graph.save(world.path)
        truth.save(world.ground_truth_path)

    def compare(backend, **options):
        return run_compare(ExperimentConfig(world, TaskConfig("nearest_search", count=4, seed=5), backend, **options))

    store_path = str(tmp_path / "store.json")
    oracle = compare(BackendConfig(record_path=store_path), cache_enabled=False)
    assert oracle.error_count == 0
    expected_rows, expected_calls = untimed_rows(oracle)
    remote = RemoteEndpointConfig(base_url, timeout_ms=5000)
    reports = {
        "remote": compare(BackendConfig("remote", remote=remote, forward_annotations=True), cache_enabled=False),
        "cache": compare(BackendConfig(), shared_cache=True),
        "replay": compare(BackendConfig("replay", store_path=store_path), cache_enabled=False),
    }
    calls = {}
    for name, report in reports.items():
        rows, calls[name] = untimed_rows(report)
        assert rows == expected_rows, name
    assert calls["remote"] == expected_calls
    assert [backend_calls + hits for backend_calls, hits in calls["cache"]] == [c for c, _ in expected_calls]
    assert calls["replay"] == [(0, 0)] * len(expected_calls)
    assert sum(hits for _, hits in calls["cache"]) > 0  # hits to account for


def test_route_scans_match_the_oracle(endpoint, tmp_path):
    base_url, queries = endpoint
    queries[HAZARD_QUERY.text] = HAZARD_QUERY
    graph, _ = generate_world(REPORT_SPEC)
    w, start, goal = REPORT_SPEC.grid_w, 0, len(graph) - 1
    # the shortest route between two corners, and one through each other corner
    routes = [graph.shortest_path(start, goal, "meters")] + [
        graph.shortest_path(start, corner)[:-1] + graph.shortest_path(corner, goal) for corner in (w - 1, goal - w + 1)
    ]

    def scan(backend):
        return run_route_scan(graph, backend, start, goal, "meters", routes)

    recorder = RecordingBackend(OracleBackend())
    oracle = scan(recorder)
    recorder.store.save(tmp_path / "store.json")
    with RemoteBackend(RemoteEndpointConfig(base_url, timeout_ms=5000), forward_annotations=True) as remote:
        reports = {
            "remote": scan(remote),
            "cache": scan(CachingBackend(OracleBackend())),
            "replay": scan(ReplayStore.load(tmp_path / "store.json")),
        }
    assert any(entry.hazard_count for entry in oracle.entries)
    for name, report in reports.items():
        assert (report.entries, report.selected_index) == (oracle.entries, oracle.selected_index), name
    assert reports["remote"].total_backend_calls == oracle.total_backend_calls
    cache = reports["cache"]
    assert cache.cache_hits > 0  # every route starts at the same scene
    assert cache.total_backend_calls + cache.cache_hits == oracle.total_backend_calls
    assert reports["replay"].total_backend_calls == 0
