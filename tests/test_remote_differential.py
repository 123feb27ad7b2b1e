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
from datagraph.harness import WorldFiles, load_world_files
from datagraph.mock_remote import MockRemoteServer


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
