"""In-process mock of the remote query endpoint, for conformance tests.

Binds an ephemeral loopback port and answers ``POST /query`` with a
configurable canned verdict, raw bytes, error status, or per-request
callback. It records every request it sees and tracks the peak number of
concurrent requests so client-side in-flight limits can be asserted.

It speaks HTTP/1.1 from one lean request loop per connection: the request
line and header lines are read under http.server's limits, the body by its
``Content-Length``, and each reply (status line, headers and body) goes out
in one write. It keeps each connection open, so a client that pools its
connections sends all its requests over one, and pipelined requests are
answered in order; ``connections_seen`` counts the connections accepted. It
closes a connection after an HTTP/1.0 request, after a ``Connection: close``
request or reply header, and after each error reply. The error replies have
an empty body: 400 for a bad request line or a ``Content-Length`` that is
not ASCII digits, 413 for a ``Content-Length`` over 64 MiB (``_MAX_BODY``,
far above any request the library sends, and checked before the body is
read), 414 for a request line over 65,536 bytes, 431 for a header line over
that or more than 100 header lines, 501 for a method other than POST and 505
for HTTP/2 or later. ``Expect: 100-continue`` gets ``100 Continue`` first.
``stop()`` shuts down the listening socket and every connection still open,
cuts short any ``delay_s`` wait, and returns once each of its threads has
ended.
"""

from __future__ import annotations

import email
import json
import re
import socket
import threading
from dataclasses import dataclass, field
from http import HTTPStatus
from http.client import HTTPMessage

# http.server's limits: bytes in a request or header line, and header lines
# counted with the blank line that ends them
_MAX_LINE = 65536
_MAX_HEADERS = 100
# the longest request body read; reading allocates the declared length up front
_MAX_BODY = 64 * 1024 * 1024
_END_OF_HEADERS = (b"\r\n", b"\n", b"")
# what the email parser takes for a header name; a line without one ends the headers
_HEADER_NAME = re.compile(r"[!-9;-~]+")
_REASONS = {status.value: status.phrase for status in HTTPStatus}


@dataclass(frozen=True, slots=True)
class RecordedRequest:
    """One request the server saw: its path, header lines and raw body.

    Only those three are kept. Equal requests share one record, and records
    with an equal path or equal header lines share one string, so a long
    run's log stays small. ``headers`` and ``body`` are parsed each time they
    are read: the first value wins for a repeated header name, and ``body``
    is None for an empty body or one that is not JSON.
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


def _http_version(word: str) -> tuple[int, int] | None:
    """``HTTP/<major>.<minor>`` as http.server reads it, or None if it is not one."""
    numbers = word[5:].split(".") if word.startswith("HTTP/") else ()
    if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
        return None
    return int(numbers[0]), int(numbers[1])


def _read_headers(rfile) -> tuple[str, dict[str, str]] | None:
    """One request's header lines, read up to the blank line that ends them.

    Returns them as ``name: value`` lines, as http.server's email parser
    reads them (blanks after the colon dropped, a line that opens with a
    blank kept as part of the field before it), and the first value of each
    lower-cased name. None for a line or a count past http.server's limits.
    """
    fields: list[list[str]] = []
    ended = False
    for _ in range(_MAX_HEADERS):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return None
        if line in _END_OF_HEADERS:
            break
        if ended:
            continue
        text = line.decode("latin-1")
        if text[0] in " \t":
            if fields:
                fields[-1][1] += text
            continue
        name, colon, value = text.partition(":")
        if colon and _HEADER_NAME.fullmatch(name):
            fields.append([name, value.lstrip(" \t")])
        else:
            ended = True
    else:
        return None
    first: dict[str, str] = {}
    lines = []
    for name, value in fields:
        value = value.rstrip("\r\n")
        first.setdefault(name.lower(), value)
        lines.append(f"{name}: {value}\r\n")
    return "".join(lines), first


def _refuse(sock: socket.socket, status: int) -> bool:
    """Send an error reply, which closes the connection; False, to end it."""
    sock.sendall(f"HTTP/1.1 {status} {_REASONS[status]}\r\nConnection: close\r\nContent-Length: 0\r\n\r\n".encode())
    return False


class MockRemoteServer:
    """Loopback HTTP server implementing the remote wire format."""

    def __init__(self, **behavior_kwargs):
        self.behavior = MockBehavior(**behavior_kwargs)
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._in_flight = 0
        self.max_concurrent_seen = 0
        self.connections_seen = 0  # TCP connections accepted
        # one copy of each distinct path, header text and request, which most requests repeat
        self._shared: dict = {}
        self._open: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._accept, daemon=True)

    def _accept(self):
        """Serve each accepted connection on its own thread until stop()."""
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                if self._stopping.is_set():  # stop() shut the listener down
                    return
                continue  # the client gave up before it was accepted
            # a daemon, so a server never stopped does not hold up exit
            thread = threading.Thread(target=self._serve, args=(sock,), daemon=True)
            with self._lock:
                self.connections_seen += 1
                self._open.add(sock)
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(thread)
            thread.start()

    def _serve(self, sock: socket.socket):
        """Answer one connection's requests in order until one ends it."""
        try:
            # a 100 Continue or pipelined replies are several writes; without
            # this, Nagle's algorithm holds a later one until the client's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as rfile:
                while self._answer(sock, rfile):
                    pass
        except OSError:  # the client reset the connection, or stop() shut it down
            pass
        finally:
            # leave the set before the socket is closed, so stop() never shuts down a closed socket
            with self._lock:
                self._open.discard(sock)
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:  # the client already reset it
                pass
            sock.close()

    def _answer(self, sock: socket.socket, rfile) -> bool:
        """Read one request and answer it; False once the connection should close."""
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return _refuse(sock, 414)
        words = line.decode("latin-1").split()
        if not words:  # the client closed the connection, or sent a blank line
            return False
        version = _http_version(words[-1]) if len(words) >= 3 else None
        if version is not None and version >= (2, 0):
            return _refuse(sock, 505)
        if version is None or len(words) > 3:
            return _refuse(sock, 400)
        method, path = words[0], words[1]
        if path.startswith("//"):  # as http.server reads it: a path, not a host
            path = "/" + path.lstrip("/")
        headers = _read_headers(rfile)
        if headers is None:
            return _refuse(sock, 431)
        header_text, first = headers
        keep_open = version >= (1, 1)
        connection = first.get("connection", "").lower()
        if connection in ("close", "keep-alive"):
            keep_open = connection == "keep-alive"
        if version >= (1, 1) and first.get("expect", "").lower() == "100-continue":
            sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method != "POST":
            return _refuse(sock, 501)
        length = first.get("content-length", "0").strip()
        if not (length.isascii() and length.isdecimal()):  # ASCII digits only, as HTTP writes a length
            return _refuse(sock, 400)
        digits = length.lstrip("0") or "0"
        # measured by its digits first: int() refuses a string of over 4,300 digits
        size = int(digits) if len(digits) <= len(str(_MAX_BODY)) else _MAX_BODY + 1
        if size > _MAX_BODY:
            return _refuse(sock, 413)
        self._enter()
        try:
            raw_body = rfile.read(size)
            with self._lock:
                shared = self._shared
                request = RecordedRequest(
                    shared.setdefault(path, path), shared.setdefault(header_text, header_text), raw_body
                )
                request = shared.setdefault(request, request)
                self.behavior.request_log.append(request)
            behavior = self.behavior
            if behavior.delay_s:
                self._stopping.wait(behavior.delay_s)
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
            head = [
                f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            ]
            for name, value in behavior.headers.items():
                head.append(f"{name}: {value}\r\n")
                if name.lower() == "connection" and value.lower() in ("close", "keep-alive"):
                    keep_open = value.lower() == "keep-alive"
            head.append("\r\n")
            sock.sendall("".join(head).encode("latin-1") + payload)
        finally:
            self._exit()
        return keep_open

    def _enter(self):
        with self._lock:
            self._in_flight += 1
            self.max_concurrent_seen = max(self.max_concurrent_seen, self._in_flight)

    def _exit(self):
        with self._lock:
            self._in_flight -= 1

    @property
    def base_url(self) -> str:
        host, port = self._listener.getsockname()
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[RecordedRequest]:
        return self.behavior.request_log

    def start(self) -> MockRemoteServer:
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close every open connection; return once every thread has ended."""
        self._stopping.set()
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the accept thread
        self._thread.join()
        self._listener.close()
        with self._lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client already reset it
                    pass
            threads = self._threads
        for thread in threads:
            thread.join()

    def __enter__(self) -> MockRemoteServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
