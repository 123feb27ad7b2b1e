"""In-process mock of the remote query endpoint, for conformance tests.

Binds an ephemeral loopback port and answers ``POST /query`` with a
configurable canned verdict, raw bytes, error status, or per-request
callback. It records every request it sees and tracks the peak number of
concurrent requests so client-side in-flight limits can be asserted.
"""

from __future__ import annotations

import email
import json
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@dataclass(slots=True)
class RecordedRequest:
    """One request the server saw: its path, header lines and raw body.

    Only those three are kept, so a long run's log stays small. ``headers``
    and ``body`` are parsed each time they are read: the first value wins
    for a repeated header name, and ``body`` is None for an empty body or
    one that is not JSON.
    """

    path: str
    header_text: str
    raw_body: bytes = b""

    @property
    def headers(self) -> dict[str, str]:
        return dict(email.message_from_string(self.header_text, _class=HTTPMessage))

    @property
    def body(self) -> dict | None:
        try:
            return json.loads(self.raw_body) if self.raw_body else None
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            return None


@dataclass
class MockBehavior:
    """What the server does with each request; mutable between requests."""

    status: int = 200
    body: dict | None = None  # defaults to an unsatisfied verdict
    raw_body: bytes | None = None  # overrides body; served verbatim
    delay_s: float = 0.0
    headers: dict[str, str] = field(default_factory=dict)  # extra response headers
    handler: object = None  # callable(request_dict) -> (status, body_dict)
    request_log: list[RecordedRequest] = field(default_factory=list)


class MockRemoteServer:
    """Loopback HTTP server implementing the remote wire format."""

    def __init__(self, **behavior_kwargs):
        self.behavior = MockBehavior(**behavior_kwargs)
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_concurrent_seen = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # keep test output clean
                pass

            def do_POST(self):
                outer._enter()
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    header_text = "".join([f"{k}: {v}\r\n" for k, v in self.headers.items()])
                    request = RecordedRequest(self.path, header_text, self.rfile.read(length))
                    with outer._lock:
                        outer.behavior.request_log.append(request)
                    behavior = outer.behavior
                    if behavior.delay_s:
                        time.sleep(behavior.delay_s)
                    if behavior.handler is not None:
                        status, doc = behavior.handler(request.body)
                        payload = json.dumps(doc).encode("utf-8")
                    elif behavior.raw_body is not None:
                        status, payload = behavior.status, behavior.raw_body
                    else:
                        doc = behavior.body
                        if doc is None:
                            doc = {"satisfied": False, "text": "nothing here"}
                        status, payload = behavior.status, json.dumps(doc).encode("utf-8")
                    try:
                        self.send_response(status)
                        self.send_header("Content-Type", "application/json")
                        self.send_header("Content-Length", str(len(payload)))
                        for name, value in behavior.headers.items():
                            self.send_header(name, value)
                        self.end_headers()
                        self.wfile.write(payload)
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # client gave up (timeout tests)
                finally:
                    outer._exit()

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def _enter(self):
        with self._lock:
            self._in_flight += 1
            self.max_concurrent_seen = max(self.max_concurrent_seen, self._in_flight)

    def _exit(self):
        with self._lock:
            self._in_flight -= 1

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[RecordedRequest]:
        return self.behavior.request_log

    def start(self) -> MockRemoteServer:
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> MockRemoteServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
