from __future__ import annotations

import gc
import http.client
import threading
import time
import tracemalloc

import pytest
import requests

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
from datagraph.backends import MAX_TIMEOUT_MS
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


@pytest.mark.parametrize(
    "token, forward",
    [(None, False), ("sesame", False), (None, True)],
    ids=["no-token", "token", "annotations"],
)
def test_request_matches_what_session_post_sends(monkeypatch, tmp_path, token, forward):
    monkeypatch.setenv("NETRC", str(tmp_path / "no-netrc"))
    node = make_node()
    body = {
        "query_text": QUERY.text,
        "mode": "find",
        "node_id": node.id,
        "payload_ref": node.snapshot.payload_ref,
        "objects_hint": [obj.to_json_dict() for obj in node.snapshot.objects] if forward else None,
    }
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    with MockRemoteServer() as server:
        RemoteBackend(config_for(server, auth_token=token), forward_annotations=forward).answer(node, QUERY)
        with requests.Session() as session:
            session.post(server.base_url + "/query", json=body, headers=headers).close()
        ours, reference = server.requests
    assert ours.path == reference.path == "/query"
    assert ours.headers == reference.headers
    assert ours.raw_body == reference.raw_body


def test_token_wins_over_netrc(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password secret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    with MockRemoteServer() as server:
        RemoteBackend(config_for(server, auth_token="sesame")).answer(make_node(), QUERY)
        RemoteBackend(config_for(server)).answer(make_node(), QUERY)  # no token: netrc applies
        with_token, without_token = server.requests
    assert with_token.headers["Authorization"] == "Bearer sesame"
    assert without_token.headers["Authorization"] == "Basic YWxpY2U6c2VjcmV0"  # alice:secret


def test_environment_settings_are_merged_once_per_backend():
    class CountingSession(requests.Session):
        merges = 0

        def merge_environment_settings(self, *args):
            self.merges += 1
            return super().merge_environment_settings(*args)

    with MockRemoteServer() as server, CountingSession() as session:
        backend = RemoteBackend(config_for(server), session=session)
        node = make_node()
        for _ in range(50):
            backend.answer(node, QUERY)
        assert len(server.requests) == 50
    assert session.merges == 1


def test_http_proxy_from_the_environment_is_read_when_the_backend_is_built(monkeypatch):
    for name in ("http_proxy", "NO_PROXY", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    with MockRemoteServer() as proxy, MockRemoteServer() as server:
        monkeypatch.setenv("HTTP_PROXY", proxy.base_url)
        backend = RemoteBackend(config_for(server))
        monkeypatch.delenv("HTTP_PROXY")
        backend.answer(make_node(), QUERY)
        assert server.requests == []
        assert [r.path for r in proxy.requests] == [server.base_url + "/query"]


def test_redirect_is_a_protocol_error_and_not_followed():
    with MockRemoteServer(status=307, headers={"Location": "/query"}) as server:
        with pytest.raises(RemoteProtocolError) as excinfo:
            RemoteBackend(config_for(server)).answer(make_node(), QUERY)
        assert len(server.requests) == 1
    assert excinfo.value.status == 307


def test_recorded_request_parses_headers_and_body_when_read():
    with MockRemoteServer() as server:
        host, port = server.base_url.removeprefix("http://").split(":")
        for body in [b'{"node_id": 4}', b"not json {", b"\xff\xfe"]:
            conn = http.client.HTTPConnection(host, int(port), timeout=2)
            conn.putrequest("POST", "/query")
            conn.putheader("X-Repeated", "first")
            conn.putheader("x-repeated", "second")
            conn.putheader("X-Folded", "one", "two")
            conn.putheader("Content-Length", str(len(body)))
            conn.endheaders(body)
            assert conn.getresponse().status == 200
            conn.close()
        requests = server.requests
    headers = requests[0].headers
    # the first value wins for a repeated name, under each spelling of it
    assert (headers["X-Repeated"], headers["x-repeated"]) == ("first", "first")
    assert headers["X-Folded"] == "one\r\n\ttwo"
    assert headers["Content-Length"] == "14"
    assert [r.body for r in requests] == [{"node_id": 4}, None, None]
    assert [r.raw_body for r in requests] == [b'{"node_id": 4}', b"not json {", b"\xff\xfe"]
    assert {r.path for r in requests} == {"/query"}


def test_request_log_keeps_under_800_bytes_a_request():
    with MockRemoteServer() as server:
        backend = RemoteBackend(config_for(server, max_in_flight=1))
        node = make_node()
        for _ in range(20):  # warm up the connection and the interpreter's caches
            backend.answer(node, QUERY)
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(300):
                backend.answer(node, QUERY)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(server.requests) == 320
    assert retained / 300 < 800


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


@pytest.mark.parametrize(
    "obj",
    [{"label": 5}, {"label": "keyfob", "attributes": 5}, {"label": "keyfob", "attributes": {"number": 42}}],
    ids=["label-int", "attributes-int", "attribute-value-int"],
)
def test_bad_object_fields_are_malformed(obj):
    with MockRemoteServer(body={"satisfied": True, "objects": [obj]}) as server:
        with pytest.raises(MalformedResponseError, match="bad object in response"):
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
        assert server.connections_seen <= 3  # the pool reuses its connections


def test_one_backend_sends_all_its_calls_over_one_connection():
    with MockRemoteServer() as server:
        backend = RemoteBackend(config_for(server))
        node = make_node()
        for _ in range(50):
            backend.answer(node, QUERY)
        assert len(server.requests) == 50
        assert server.connections_seen == 1


def test_a_late_answer_never_reaches_the_next_call():
    release = threading.Event()
    seen = []

    def handler(body):
        seen.append(body["node_id"])
        if len(seen) == 1:
            release.wait(5)  # only the first request is late
        return 200, {"satisfied": False, "text": f"node {body['node_id']}"}

    with MockRemoteServer(handler=handler) as server:
        backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=200))
        with pytest.raises(RemoteTimeoutError):
            backend.answer(make_node(node_id=1), QUERY)
        release.set()
        response = backend.answer(make_node(node_id=2), QUERY)
        assert server.connections_seen == 2  # the timed-out connection was dropped
    assert (response.node, response.text) == (2, "node 2")
    assert seen == [1, 2]


def test_stop_ends_every_handler_thread_while_a_session_is_open():
    before = set(threading.enumerate())
    with requests.Session() as session:
        server = MockRemoteServer().start()
        RemoteBackend(config_for(server), session=session).answer(make_node(), QUERY)
        assert len(set(threading.enumerate()) - before) == 2  # serve_forever and one handler
        server.stop()
        assert set(threading.enumerate()) <= before


def test_stop_does_not_wait_out_a_delay():
    outcome = []
    with requests.Session() as session:
        server = MockRemoteServer(delay_s=60).start()
        backend = RemoteBackend(RemoteEndpointConfig(server.base_url, timeout_ms=120_000), session=session)

        def call():
            try:
                outcome.append(backend.answer(make_node(), QUERY))
            except RemoteProtocolError as exc:  # the connection was shut under the call
                outcome.append(exc)

        client = threading.Thread(target=call)
        client.start()
        try:
            deadline = time.monotonic() + 5
            while not server.requests and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.requests, "the request never reached the server"
        finally:
            started = time.monotonic()
            server.stop()
            stopped_in = time.monotonic() - started
            client.join(10)
    assert stopped_in < 5
    assert not client.is_alive()
    assert len(outcome) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="", timeout_ms=100)
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="http://x", timeout_ms=0)
    with pytest.raises(ValueError):
        RemoteEndpointConfig(base_url="http://x", max_in_flight=0)
    # a fractional max_in_flight would leave the semaphore uncapped
    for name in ("timeout_ms", "max_in_flight"):
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                RemoteEndpointConfig(base_url="http://x", **{name: value})


def test_timeout_is_at_most_a_day():
    """A socket turns its timeout into a time_t deadline, which overflows
    near 10**13 ms; the one-day bound lies far below that and still works."""
    for value in (MAX_TIMEOUT_MS + 1, 10**13, 10**20):
        with pytest.raises(ValueError, match=rf"timeout_ms must be from 1 to 86400000 \(one day\), got {value}"):
            RemoteEndpointConfig(base_url="http://x", timeout_ms=value)
    with MockRemoteServer() as server:
        backend = RemoteBackend(RemoteEndpointConfig(base_url=server.base_url, timeout_ms=MAX_TIMEOUT_MS))
        assert backend.answer(make_node(), QUERY).satisfied is False
