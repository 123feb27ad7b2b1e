"""The remote leg of the backends' agreement: every traversal sent through
``RemoteBackend`` to an endpoint that answers as the oracle does gives the
oracle's visit order, call counts and verdicts.

Remote answers carry no positions or instance ids, so matched objects are
not compared. A count query is answered with its count alone, as an
endpoint that counts without itemizing would answer it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    OracleBackend,
    Predicate,
    Query,
    RemoteBackend,
    RemoteEndpointConfig,
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


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_remote_traversals_match_the_oracle(endpoint, data):
    base_url, queries = endpoint
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
    queries.update({find.text: find, count.text: count})
    agent = data.draw(st.integers(0, len(graph) - 1), label="agent")
    metric = data.draw(st.sampled_from(["hops", "meters"]), label="metric")
    goal = data.draw(st.integers(0, len(graph) - 1), label="goal")
    path = graph.shortest_path(agent, goal, metric)
    runs = [
        lambda backend: proximity_search_first(graph, backend, find, agent, metric),
        lambda backend: proximity_query_all(graph, backend, find, agent, metric),
        lambda backend: brute_force_query(graph, backend, find, agent, stop_on_first=True),
        lambda backend: brute_force_query(graph, backend, find, agent, stop_on_first=False),
    ]
    if path is not None:
        runs.append(lambda backend: path_query(graph, backend, find, path))
    config = RemoteEndpointConfig(base_url, timeout_ms=5000)
    with RemoteBackend(config, forward_annotations=True) as remote:
        for run in runs:
            assert outcome(run(remote)) == outcome(run(OracleBackend()))
        remote_counts = aggregate_count(graph, remote, count, 0.0)
    oracle_counts = aggregate_count(graph, OracleBackend(), count, 0.0)
    assert remote_counts.per_node_counts == oracle_counts.per_node_counts
    assert (remote_counts.raw_total, remote_counts.deduped_total) == (
        oracle_counts.raw_total,
        oracle_counts.deduped_total,
    )
