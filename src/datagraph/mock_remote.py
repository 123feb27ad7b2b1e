"""In-process mock of the remote query endpoint, for conformance tests.

Binds an ephemeral loopback port and answers ``POST /query`` with a
configurable canned verdict, raw bytes, error status, or per-request
callback. It records every request it sees and tracks the peak number of
concurrent requests so client-side in-flight limits can be asserted.

It speaks HTTP/1.1 and keeps each connection open, so a client that pools
its connections sends all its requests over one; ``connections_seen``
counts the connections accepted. ``stop()`` closes every connection still
open, cuts short any ``delay_s`` wait, and returns once each connection's
handler thread has ended.
"""

from __future__ import annotations

import email
import json
import socket
import threading
from dataclasses import dataclass, field
from http.client import HTTPMessage
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@dataclass(slots=True)
class RecordedRequest:
    """One request the server saw: its path, header lines and raw body.

    Only those three are kept, and requests with an equal path or equal
    header lines share one string, so a long run's log stays small.
    ``headers`` and ``body`` are parsed each time they are read: the first
    value wins for a repeated header name, and ``body`` is None for an empty
    body or one that is not JSON.
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


# how often serve_forever looks for a shutdown request; stop() waits up to this long
_POLL_INTERVAL_S = 0.05


class _Server(ThreadingHTTPServer):
    """Serves each connection on its own thread and keeps the open ones.

    ``server_close`` shuts down every connection still open, which ends its
    handler's wait for a next request, and joins every handler thread.
    """

    def __init__(self, handler_class):
        super().__init__(("127.0.0.1", 0), handler_class)
        self._connections_lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self.connections_seen = 0

    def process_request(self, request, client_address):
        # a daemon, as in ThreadingHTTPServer: a server never stopped does not hold up exit
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address), daemon=True
        )
        with self._connections_lock:
            self.connections_seen += 1
            self._open.add(request)
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
        thread.start()

    def shutdown_request(self, request):
        # leave the set before the socket is closed, so server_close never
        # shuts down a closed socket
        with self._connections_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._connections_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client already reset it
                    pass
            handlers = self._handlers
        for thread in handlers:
            thread.join()


class MockRemoteServer:
    """Loopback HTTP server implementing the remote wire format."""

    def __init__(self, **behavior_kwargs):
        self.behavior = MockBehavior(**behavior_kwargs)
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._in_flight = 0
        self.max_concurrent_seen = 0
        # one copy of each distinct path and header text, which most requests repeat
        self._texts: dict[str, str] = {}
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # one handler thread serves a whole connection
            # headers and body go out in two sends; without this, Nagle's
            # algorithm holds the body until the client's delayed ACK
            disable_nagle_algorithm = True

            def log_message(self, *args):  # keep test output clean
                pass

            def handle(self):
                try:
                    super().handle()
                except ConnectionError:  # the client gave up (timeout tests): end the connection
                    pass

            def do_POST(self):
                outer._enter()
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                    header_text = "".join([f"{k}: {v}\r\n" for k, v in self.headers.items()])
                    raw_body = self.rfile.read(length)
                    with outer._lock:
                        texts = outer._texts
                        path = texts.setdefault(self.path, self.path)
                        request = RecordedRequest(path, texts.setdefault(header_text, header_text), raw_body)
                        outer.behavior.request_log.append(request)
                    behavior = outer.behavior
                    if behavior.delay_s:
                        outer._stopping.wait(behavior.delay_s)
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
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    for name, value in behavior.headers.items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(payload)
                finally:
                    outer._exit()

        self._server = _Server(Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )

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

    @property
    def connections_seen(self) -> int:
        """How many TCP connections the server has accepted."""
        return self._server.connections_seen

    def start(self) -> MockRemoteServer:
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close every open connection; return once their threads end."""
        self._stopping.set()
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()

    def __enter__(self) -> MockRemoteServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
