from __future__ import annotations

import threading

import pytest

from datagraph import (
    MalformedResponseError,
    Node,
    Pose,
    Predicate,
    Query,
    RemoteBackend,
    RemoteEndpointConfig,
    RemoteProtocolError,
    RemoteTimeoutError,
    SceneObject,
    Snapshot,
)
from datagraph.mock_remote import MockRemoteServer

QUERY = Query("is there a keyfob with number 42?", Predicate(label_equals="keyfob"))


def make_node(node_id=3, payload_ref="scene://basement/3"):
    objs = (SceneObject("keyfob", {"number": "42"}, (1.0, 2.0, 0.0), 7),)
    return Node(node_id, Pose((0.0, 0.0, 0.0)), Snapshot(objs, payload_ref))


def config_for(server, **overrides):
    return RemoteEndpointConfig(base_url=server.base_url, timeout_ms=2000, **overrides)


def test_success_verdict_is_mapped():
    body = {
        "satisfied": True,
        "objects": [{"label": "keyfob", "attributes": {"number": "42"}}],
        "text": "there is a keyfob",
    }
    with MockRemoteServer(body=body) as server:
        response = RemoteBackend(config_for(server)).answer(make_node(), QUERY)
    assert response.satisfied is True
    assert len(response.matches) == 1
    match = response.matches[0]
    assert match.label == "keyfob"
    assert match.attributes == {"number": "42"}
    assert match.instance_id == -1
    assert match.world_position is None
    assert response.count == 1
    assert response.backend_calls == 1
    with MockRemoteServer(body={"satisfied": False, "text": "no"}) as server:
        response = RemoteBackend(config_for(server)).answer(make_node(), QUERY)
    assert (response.satisfied, response.matches, response.count, response.text) == (False, (), 0, "no")


def test_request_follows_wire_format():
    with MockRemoteServer() as server:
        backend = RemoteBackend(config_for(server, auth_token="sesame"))
        backend.answer(make_node(node_id=5), QUERY)
        request = server.requests[0]
    assert request.path == "/query"
    assert request.headers.get("Authorization") == "Bearer sesame"
    assert request.body == {
        "query_text": QUERY.text,
        "mode": "find",
        "node_id": 5,
        "payload_ref": "scene://basement/3",
        "objects_hint": None,
    }


def test_annotation_forwarding_includes_objects_hint():
    with MockRemoteServer() as server:
        backend = RemoteBackend(config_for(server), forward_annotations=True)
        backend.answer(make_node(), QUERY)
        hint = server.requests[0].body["objects_hint"]
    assert hint == [
        {
            "label": "keyfob",
            "attributes": {"number": "42"},
            "world_position": [1.0, 2.0, 0.0],
            "instance_id": 7,
        }
    ]


def test_timeout_raises_timeout_error():
    with MockRemoteServer(delay_s=1.0) as server:
        backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=100))
        with pytest.raises(RemoteTimeoutError):
            backend.answer(make_node(), QUERY)


def test_server_error_raises_protocol_error():
    with MockRemoteServer(status=500, body={"oops": True}) as server:
        with pytest.raises(RemoteProtocolError) as excinfo:
            RemoteBackend(config_for(server)).answer(make_node(), QUERY)
    assert excinfo.value.status == 500


def test_malformed_body_raises_malformed_response():
    with MockRemoteServer(raw_body=b"this is not json {") as server:
        with pytest.raises(MalformedResponseError):
            RemoteBackend(config_for(server)).answer(make_node(), QUERY)


def test_missing_verdict_field_is_malformed_not_false():
    with MockRemoteServer(body={"text": "no verdict here"}) as server:
        with pytest.raises(MalformedResponseError):
            RemoteBackend(config_for(server)).answer(make_node(), QUERY)


def test_bad_count_type_is_malformed():
    with MockRemoteServer(body={"satisfied": True, "count": "three"}) as server:
        with pytest.raises(MalformedResponseError):
            RemoteBackend(config_for(server)).answer(make_node(), QUERY)


def test_connection_refused_is_protocol_error():
    config = RemoteEndpointConfig(base_url="http://127.0.0.1:1", timeout_ms=500)
    with pytest.raises(RemoteProtocolError):
        RemoteBackend(config).answer(make_node(), QUERY)


def test_max_in_flight_never_exceeded():
    with MockRemoteServer(delay_s=0.15) as server:
        backend = RemoteBackend(config_for(server, max_in_flight=3))
        node = make_node()
        errors = []

        def worker():
            try:
                backend.answer(node, QUERY)
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(server.requests) == 9
        assert server.max_concurrent_seen <= 3
        assert server.max_concurrent_seen >= 2  # the limit was actually exercised


def test_config_validation():
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="", timeout_ms=100)
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="http://x", max_in_flight=0)
