"""Pluggable query backends: the per-node answer engines behind traversals.

Three tiers are provided so every experiment can run hermetically while real
multimodal models stay pluggable:

* :class:`OracleBackend` answers deterministically from snapshot annotations
  by exact predicate matching.
* :class:`ReplayStore` holds answers keyed to the scene they came from; a
  loaded store replays them, and :class:`RecordingBackend` captures one.
* :class:`RemoteBackend` speaks the HTTP wire format to an external endpoint.

:class:`CachingBackend`, a recorder, wraps any of them and answers repeat
queries about one scene from its own store.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import os
import re
import socket
import ssl
import threading
import weakref
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Iterator, Protocol
from urllib.parse import urlsplit

import requests
import urllib3

from . import output
from .errors import (
    GraphParseError,
    MalformedResponseError,
    RemoteProtocolError,
    RemoteTimeoutError,
    ReplayMissError,
)
from .graph import (
    Node,
    NodeId,
    SceneObject,
    Snapshot,
    _check_bool,
    _check_id,
    _document,
    _is_integer,
    _KindError,
    _object_text,
    _record,
)

if TYPE_CHECKING:
    from .worldgen import GroundTruthInstance

QUERY_MODES = ("find", "count", "assess_hazard")


@dataclass(frozen=True)
class Predicate:
    """Machine-checkable stand-in for a natural-language query.

    All present clauses must hold (conjunction): an optional label match,
    case-insensitive on both sides, plus exact (key, value) attribute matches.
    """

    label_equals: str | None = None
    attribute_equals: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not isinstance(self.label_equals, (str, type(None))):
            raise ValueError(f"predicate label_equals must be a string or None, got {self.label_equals!r}")
        clauses = self.attribute_equals
        if isinstance(clauses, dict):
            clauses = clauses.items()
        # None means no clause; a string holds no pairs, even an empty one
        pairs = isinstance(clauses, Iterable) and not isinstance(clauses, (str, bytes, bytearray))
        clauses = tuple(clauses) if pairs else ()
        if not (pairs or self.attribute_equals is None) or not all(
                isinstance(clause, (tuple, list)) and len(clause) == 2 for clause in clauses):
            raise ValueError(f"predicate attribute_equals must be (key, value) pairs, got {self.attribute_equals!r}")
        clauses = tuple((str(k), str(v)) for k, v in clauses)
        object.__setattr__(self, "attribute_equals", clauses)
        if self.label_equals is None and not clauses:
            raise ValueError("predicate needs at least one clause")
        if self.label_equals == "":
            raise ValueError("predicate label must be non-empty: no object has an empty label")

    @cached_property
    def label_key(self) -> str | None:
        """The label clause as matched and hashed: lowercased, or None."""
        return self.label_equals.lower() if self.label_equals is not None else None

    def canonical_dict(self) -> dict:
        """Stable form: lowercased label, attribute clauses sorted by key."""
        return {
            "label": self.label_key,
            "attrs": sorted(list(pair) for pair in self.attribute_equals),
        }


@dataclass(frozen=True)
class Query:
    """Natural-language text plus the structured predicate the oracle checks."""

    text: str
    predicate: Predicate
    mode: str = "find"

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"query text must be a string, got {self.text!r}")
        if not self.text:
            raise ValueError("query text must be non-empty")
        if not isinstance(self.predicate, Predicate):
            raise ValueError(f"query predicate must be a Predicate, got {self.predicate!r}")
        if self.mode not in QUERY_MODES:
            raise ValueError(f"mode must be one of {QUERY_MODES}, got {self.mode!r}")

    @cached_property
    def canonical_key(self) -> str:
        """:func:`canonical_query_key` of this query, computed once."""
        return canonical_query_key(self)


@_record
class QueryResponse:
    """One backend answer for one node.

    ``backend_calls`` counts real backend invocations this response cost:
    1 for a live answer, 0 when served from a cache or replay store.
    A traversal builds one per scene query, so ``__init__`` sets each field
    once, and converts ``matches`` to a tuple only when it is not one.
    """

    node: NodeId
    satisfied: bool
    matches: tuple[SceneObject, ...]
    count: int
    text: str
    backend_calls: int

    def __init__(self, node, satisfied, matches=(), count=0, text="", backend_calls=1):
        matches = matches if type(matches) is tuple else tuple(matches)
        QueryResponse._init(self, node, satisfied, matches, count, text, backend_calls)

    def _with(self, node: NodeId, backend_calls: int) -> QueryResponse:
        """This answer with ``node`` and ``backend_calls`` replaced, as
        ``dataclasses.replace`` would make it, without its per-call field walk."""
        return QueryResponse(node, self.satisfied, self.matches, self.count, self.text, backend_calls)

    to_json_dict = _document

    @classmethod
    def from_json_dict(cls, doc: dict) -> QueryResponse:
        """A recorded response, each field checked here rather than in
        ``__post_init__``, which runs once per scene query."""
        satisfied, text = _check_bool(doc["satisfied"], "satisfied"), doc.get("text", "")
        if not isinstance(text, str):
            raise _KindError(f"text must be a string, got {text!r}")
        count = _check_id(doc.get("count", 0), "count")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return cls(
            node=_check_id(doc["node"], "node"),
            satisfied=satisfied,
            matches=tuple(SceneObject.from_json_dict(o) for o in doc.get("matches", [])),
            count=count,
            text=text,
            backend_calls=_check_id(doc.get("backend_calls", 1), "backend_calls"),
        )


# The longest remote timeout: one day. A socket timeout becomes a deadline in
# the platform's time_t, and a larger one (about 10**13 ms on 64-bit Linux)
# overflows it, so the first call would end in an OverflowError.
MAX_TIMEOUT_MS = 86_400_000


@dataclass(frozen=True)
class RemoteEndpointConfig:
    base_url: str
    timeout_ms: int = 10_000
    max_in_flight: int = 4
    auth_token: str | None = None

    def __post_init__(self):
        for name in ("timeout_ms", "max_in_flight"):
            object.__setattr__(self, name, _check_id(getattr(self, name), name))
        try:
            url = urlsplit(self.base_url) if isinstance(self.base_url, str) else None
        except ValueError:  # an unclosed IPv6 bracket
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")
        try:
            url.port
        except ValueError as exc:  # not a number, or above 65535
            raise ValueError(f"base_url {self.base_url!r} has a bad port: {exc}") from None
        if "?" in self.base_url or "#" in self.base_url:  # either would move the /query appended to the path
            raise ValueError(f"base_url {self.base_url!r} must not hold a query or a fragment")
        try:  # the host as requests prepares it, then as the socket layer encodes it to look it up
            urlsplit(requests.Request("POST", self.base_url).prepare().url).hostname.encode("idna")
        except (requests.exceptions.InvalidURL, UnicodeError) as exc:
            raise ValueError(f"base_url {self.base_url!r} has a bad host: {exc}") from None
        # the token is sent as a header line, which holds Latin-1 text and no line break
        token = self.auth_token
        if token is not None:
            if not isinstance(token, str):
                raise ValueError(f"auth_token must be a string, got {token!r}")
            if "\r" in token or "\n" in token:
                raise ValueError("auth_token must not hold a line break")
            try:
                token.encode("latin-1")
            except UnicodeEncodeError:
                raise ValueError(f"auth_token must be Latin-1 text, got {token!r}") from None
        if not 1 <= self.timeout_ms <= MAX_TIMEOUT_MS:
            raise ValueError(
                f"timeout_ms must be from 1 to {MAX_TIMEOUT_MS} (one day), got {self.timeout_ms}"
            )
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


class QueryBackend(Protocol):
    """Anything that can answer a query about one node's scene."""

    def answer(self, node: Node, query: Query) -> QueryResponse: ...


# --- canonical hashing --------------------------------------------------------


def canonical_query_key(query: Query) -> str:
    """Stable 16-hex-digit digest of a query.

    Invariant under attribute-clause reordering and label casing, so cache
    and replay keys survive cosmetic query rewrites.
    """
    payload = {
        "mode": query.mode,
        "text": query.text,
        "predicate": query.predicate.canonical_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# --- oracle -------------------------------------------------------------------


def _matching(predicate: Predicate, objects) -> list:
    """The objects for which every clause of ``predicate`` holds, in order.

    The one predicate matcher: the oracle, :func:`predicate_eval` and the
    ground-truth scans all call it. Labels compare case-insensitively, as
    :func:`canonical_query_key` treats label casing as cosmetic. It reads
    the clauses once and walks the objects in one loop, since the oracle
    calls it once per scene query.
    """
    label = predicate.label_key
    clauses = predicate.attribute_equals
    matches = []
    for obj in objects:
        if label is not None and obj.label.lower() != label:
            continue
        attributes = obj.attributes
        for key, value in clauses:
            if attributes.get(key) != value:
                break
        else:
            matches.append(obj)
    return matches


def predicate_eval(predicate: Predicate, obj: SceneObject | GroundTruthInstance) -> bool:
    """True iff every clause of the predicate holds for the object."""
    return bool(_matching(predicate, (obj,)))


def oracle_answer(snapshot: Snapshot, query: Query, node: NodeId = -1) -> QueryResponse:
    """Deterministic stand-in for a multimodal model call on one scene.

    Matches are returned in snapshot order. ``satisfied`` is count > 0 for
    every mode; ``assess_hazard`` behaves like ``find`` over the predicate.
    """
    matches = _matching(query.predicate, snapshot.objects)
    if not matches:
        return QueryResponse(node, False, (), 0, "no matching objects", 1)
    count = len(matches)
    if query.mode == "count":
        text = f"counted {count} matching object(s)"
    else:
        text = f"found {count} matching object(s): {', '.join(obj.label for obj in matches)}"
    return QueryResponse(node, True, tuple(matches), count, text, 1)


class OracleBackend:
    """Answers by exact predicate matching over snapshot annotations."""

    def answer(self, node: Node, query: Query) -> QueryResponse:
        return oracle_answer(node.snapshot, query, node=node.id)


# --- record / replay -----------------------------------------------------------


def _response_text(response: QueryResponse) -> str:
    """One record of a saved replay store (see :func:`output.save_document`)."""
    matches = output.array([_object_text(obj, "        ") for obj in response.matches], "      ")
    return (
        '{\n      "node": ' + output.atom(response.node)
        + ',\n      "satisfied": ' + output.atom(response.satisfied)
        + ',\n      "matches": ' + matches
        + ',\n      "count": ' + output.atom(response.count)
        + ',\n      "text": ' + output.string(response.text)
        + ',\n      "backend_calls": ' + output.atom(response.backend_calls)
        + "\n    }"
    )


class ReplayStore:
    """Answers keyed to their scene by :meth:`key_for`, JSON-persistable.

    The one answer store: a cache and a recorder fill one, and a loaded one
    replays. The first answer stored under a key wins.
    """

    FORMAT_VERSION = 2

    def __init__(self) -> None:
        self._responses: dict[str, QueryResponse] = {}

    @staticmethod
    def key_for(node: Node, query: Query) -> str:
        """``"<node id>:<scene digest>:<query hash>"``: generated worlds reuse
        node ids, and empty rooms share a digest, so the key needs both."""
        return f"{node.id}:{node.snapshot.digest}:{query.canonical_key}"

    def __len__(self) -> int:
        return len(self._responses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplayStore):
            return NotImplemented
        return self._responses == other._responses

    def record(self, node: Node, query: Query, response: QueryResponse) -> None:
        self._responses.setdefault(self.key_for(node, query), response)

    def get(self, node: Node, query: Query) -> QueryResponse | None:
        """The stored answer, costing no backend call, or None."""
        response = self._responses.get(self.key_for(node, query))
        return None if response is None else response._with(response.node, 0)

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.get(node, query)
        if response is None:
            raise ReplayMissError(node.id, node.snapshot.digest, query.canonical_key)
        return response

    def to_json_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "responses": {
                key: self._responses[key].to_json_dict() for key in sorted(self._responses)
            },
        }

    def save(self, destination) -> None:
        """Write the store document to a path.

        The file holds ``json.dumps(self.to_json_dict(), indent=2)`` plus a
        newline, written one response at a time in key order, and it replaces
        ``destination`` atomically (:func:`output.save_document`). A path that
        cannot be written is an :class:`OutputError`.
        """
        records = (
            output.string(key) + ": " + _response_text(self._responses[key])
            for key in sorted(self._responses)
        )
        output.save_document(destination, self.FORMAT_VERSION, [("responses", "{}", records)])

    @classmethod
    def load(cls, source) -> ReplayStore:
        """Read a store document from a path (:func:`output.read_document`)."""
        doc = output.read_document(source, GraphParseError, cls.FORMAT_VERSION)
        store = cls()
        responses = doc.get("responses")
        if not isinstance(responses, dict):
            raise GraphParseError("replay store: 'responses' must be an object")
        for key, resp_doc in responses.items():
            try:
                store._responses[key] = QueryResponse.from_json_dict(resp_doc)
            except (KeyError, TypeError, ValueError) as exc:
                raise GraphParseError(f"replay store entry {key!r}: {exc}") from exc
        return store


class RecordingBackend:
    """Delegates to an inner backend and puts every answer into its own ``store``."""

    def __init__(self, inner: QueryBackend):
        self.inner = inner
        self.store = ReplayStore()

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.inner.answer(node, query)  # errors propagate, unrecorded
        self.store.record(node, query, response)
        return response


# --- caching ---------------------------------------------------------------------


class CachingBackend(RecordingBackend):
    """Per-session unbounded cache: a recorder that answers repeats from its store.

    Never changes response content, only the backend_calls accounting.
    Concurrent identical requests may both reach the inner backend (one or
    two calls are both acceptable); the first stored answer wins, so the
    store is never corrupted.
    """

    def __init__(self, inner: QueryBackend):
        super().__init__(inner)
        self.hits = 0

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.store.get(node, query)
        if response is None:
            return RecordingBackend.answer(self, node, query)
        self.hits += 1
        return response


# --- remote adapter ------------------------------------------------------------


def _decoded(content: bytes, encoding: str) -> bytes:
    """A body sent with ``Content-Encoding: encoding``, decoded by urllib3,
    which decodes every coding the prepared ``Accept-Encoding`` header names."""
    known = (*urllib3.response.HTTPResponse.CONTENT_DECODERS, "identity")
    if any(coding.strip() not in known for coding in encoding.lower().split(",")):
        raise RemoteProtocolError(0, f"unsupported Content-Encoding {encoding!r}")
    try:
        return urllib3.response.HTTPResponse(io.BytesIO(content), headers={"Content-Encoding": encoding}).data
    except urllib3.exceptions.DecodeError as exc:
        raise RemoteProtocolError(0, f"response body is not valid {encoding}: {exc}") from exc


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    """Close every idle connection; one a call is using stays open."""
    while True:
        try:
            connection = connections.pop()
        except IndexError:
            return
        connection.close()


def _tls_context(verify: bool | str, cert: str | tuple[str, str] | None) -> ssl.SSLContext:
    """The TLS checks requests makes for its ``verify`` and ``cert`` settings."""
    if verify is False:
        context = ssl.create_default_context()
        context.check_hostname = False
        context.verify_mode = ssl.CERT_NONE
    else:
        bundle = requests.utils.DEFAULT_CA_BUNDLE_PATH if verify is True else verify
        if os.path.isdir(bundle):
            context = ssl.create_default_context(capath=bundle)
        else:
            context = ssl.create_default_context(cafile=bundle)
    if cert is not None:
        context.load_cert_chain(*((cert,) if isinstance(cert, str) else cert))
    return context


# http.client's limits on a response head, and http.server's on a request's:
# the bytes of one line, and its lines, the blank one that ends the head included
_MAX_LINE = 65_536
_MAX_HEAD_LINES = 100
_HEAD_ENDS = (b"\r\n", b"\n", b"")
# a header line without its line break: a name of the characters the email
# parser behind http.client takes for one, then the value, leading blanks left out
_FIELD = re.compile(rb"([!-9;-~]+):[ \t]*([^\r\n]*)")
_RECV_SIZE = 65_536


class _HTTPReader:
    """Reads HTTP/1.x messages off a socket, framed as ``http.client`` and
    ``http.server`` frame them but without the email parser they run on each
    head: the backend's answers with :meth:`read`, the mock endpoint's requests.

    :meth:`read` skips ``100 Continue`` responses and reads the status line,
    the header lines (at most 65,536 bytes a line and 100 lines a head, the
    blank one that ends it included, as in http.client), then the body:
    chunked, ``Content-Length`` or up to the close, and none for other 1xx,
    204 and 304. Where http.client lets a malformed head or chunk through,
    this reader refuses it: a header line that is not ``name: value`` (a
    folded one included), a CR inside a line, a chunk not followed by CRLF or
    of a negative size. Every framing fault is an :class:`http.client.HTTPException`.

    Bytes read past a message stay buffered. The backend gives each response
    its own reader, so they are never taken as the next response, and
    :attr:`unread` tells whether there were any; the mock keeps one reader a
    connection and reads pipelined requests off it.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._data = b""
        self._pos = 0

    @property
    def unread(self) -> bool:
        return self._pos < len(self._data)

    def read(self) -> tuple[int, bytes, bool, str | None]:
        """The status, the body, whether the connection closes after it (as
        ``HTTPResponse.will_close``), and the ``Content-Encoding`` values
        joined as ``HTTPResponse.getheader`` joins them, or None."""
        version, status = self._status_line()
        while status == 100:
            self.head()
            version, status = self._status_line()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            http11 = False
        elif version.startswith("HTTP/1."):
            http11 = True
        else:
            raise http.client.UnknownProtocol(version)
        fields: dict[bytes, bytes] = {}
        encodings = []
        for name, value in self.fields(self.head()):
            name = name.lower()
            fields.setdefault(name, value)  # the first of a repeated name, as http.client reads it
            if name == b"content-encoding":
                encodings.append(value.decode("latin-1"))
        # from here on, http.client's HTTPResponse.begin and _check_close
        chunked = fields.get(b"transfer-encoding", b"").lower() == b"chunked"
        connection = fields.get(b"connection", b"").lower()
        if http11:
            will_close = b"close" in connection
        else:
            will_close = not (
                fields.get(b"keep-alive")
                or b"keep-alive" in connection
                or b"keep-alive" in fields.get(b"proxy-connection", b"").lower()
            )
        try:
            length = int(fields[b"content-length"].decode("latin-1"))
        except (KeyError, ValueError):
            length = -1
        if status in (204, 304) or status < 200:
            length = 0
        elif chunked or length < 0:  # chunked, or no usable length: read to the close
            length = None
        if not chunked and length is None:
            will_close = True
        if chunked:
            body = self._chunked()
        elif length is None:
            body = self._rest()
        else:
            body = self.exactly(length)
        return status, body, will_close, ", ".join(encodings) if encodings else None

    def line(self, what: str) -> bytes:
        """The next line with its LF, or what is left before the close."""
        end = self._data.find(b"\n", self._pos)
        while end < 0:
            buffered = len(self._data) - self._pos
            if buffered > _MAX_LINE:
                raise http.client.LineTooLong(what)
            chunk = self._sock.recv(_RECV_SIZE)
            if not chunk:
                line, self._pos = self._data[self._pos:], len(self._data)
                return line
            self._data, self._pos = self._data[self._pos:] + chunk, 0
            end = self._data.find(b"\n", buffered)
        line, self._pos = self._data[self._pos:end + 1], end + 1
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong(what)
        return line

    def _status_line(self) -> tuple[str, int]:
        """The version and status of the next status line, checked as http.client checks them."""
        line = self.line("status line").decode("latin-1")
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise http.client.BadStatusLine(line)
        try:
            status = int(parts[1])
        except ValueError:
            raise http.client.BadStatusLine(line) from None
        if not 100 <= status <= 999:
            raise http.client.BadStatusLine(line)
        return parts[0], status

    def head(self) -> list[bytes]:
        """The header lines up to the blank line or the close that ends the
        head, each without its line break."""
        lines = []
        while True:
            line = self.line("header line")
            if len(lines) == _MAX_HEAD_LINES:  # this is line 101, blank or not
                raise http.client.HTTPException(f"got more than {_MAX_HEAD_LINES} headers")
            if line in _HEAD_ENDS:
                return lines
            lines.append(line.removesuffix(b"\n").removesuffix(b"\r"))

    @staticmethod
    def fields(lines: list[bytes]) -> Iterator[tuple[bytes, bytes]]:
        """The name and value of each header line, in turn; a line that is
        not ``name: value`` is an HTTPException."""
        for line in lines:
            match = _FIELD.fullmatch(line)
            if match is None:
                raise http.client.HTTPException(f"malformed header line {line!r}")
            yield match.groups()

    def exactly(self, size: int) -> bytes:
        """The next ``size`` bytes; the close before them is an IncompleteRead."""
        data = self._data[self._pos:self._pos + size]
        self._pos += len(data)
        parts, missing = [data], size - len(data)
        while missing:  # receive no byte past them
            chunk = self._sock.recv(min(missing, _RECV_SIZE))
            if not chunk:
                raise http.client.IncompleteRead(b"".join(parts), missing)
            parts.append(chunk)
            missing -= len(chunk)
        return data if len(parts) == 1 else b"".join(parts)

    def _rest(self) -> bytes:
        """Every byte up to the close."""
        parts = [self._data[self._pos:]]
        self._pos = len(self._data)
        while chunk := self._sock.recv(_RECV_SIZE):
            parts.append(chunk)
        return b"".join(parts)

    def _chunked(self) -> bytes:
        """A chunked body, its chunk extensions and trailer read and dropped."""
        parts = []
        while True:
            line = self.line("chunk size")
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise http.client.IncompleteRead(b"".join(parts))
            if size == 0:
                break
            parts.append(self.exactly(size))
            if self.exactly(2) != b"\r\n":
                raise http.client.HTTPException("chunk data not followed by CRLF")
        while self.line("trailer line") not in _HEAD_ENDS:
            pass
        return b"".join(parts)


class RemoteBackend:
    """HTTP adapter speaking the wire format to a live model endpoint.

    POSTs ``{base_url}/query`` and maps the structured verdict into a
    :class:`QueryResponse`. Never fabricates a verdict: timeouts, non-2xx
    statuses (redirects included, which are not followed), and malformed
    bodies all raise. At most ``max_in_flight`` requests are in flight at any
    moment, and the backend holds at most that many keep-alive connections
    of its own. :meth:`close` (or leaving a ``with`` block) closes the idle
    ones; a backend that is garbage-collected closes them too.

    ``requests`` only prepares the request, once, when the backend is built:
    the session's headers, cookies and auth (or a ``~/.netrc`` entry), the
    bearer token, and the proxy, CA bundle and client certificate settings
    from the session and the environment are read then, not per call. As in
    ``session.post``, a ``REQUESTS_CA_BUNDLE`` (or ``CURL_CA_BUNDLE``) in the
    environment overrides a session's ``verify = False`` unless the session's
    ``trust_env`` is off. The
    request head is built then too, and :mod:`http.client` writes it: the
    request line, the ``Host`` header and the prepared headers in their
    order. The session's transport adapter for the URL gives the request
    target and the proxy's credentials header, as ``session.post`` takes
    them; that adapter sends nothing. Each call sends that head, its
    ``Content-Length`` and the body
    ``session.post(json=...)`` would send in one write. :mod:`http.client`
    only opens each connection: TCP with the timeout, TLS, and the
    ``CONNECT`` tunnel through an ``https://`` endpoint's proxy. The answer
    is read by the backend's own HTTP/1.x reader: a ``Content-Length``,
    chunked or close-delimited body, no body for 1xx, 204 and 304, and a
    skipped ``100 Continue``, within http.client's limits of 65,536 bytes a
    line and 99 header lines. A malformed or short answer is a
    :class:`RemoteProtocolError` with status 0. A connection is kept for the
    next call unless the answer closes it (as http.client's ``will_close``
    decides) or bytes follow the answer. The session's response hooks are
    not run. A
    configured token always wins over ``~/.netrc``; without one, netrc
    applies as in requests. A body sent with a ``Content-Encoding`` is
    decoded by urllib3, whose codings (gzip and deflate, and br or zstd where
    their modules are installed) are the ones the prepared
    ``Accept-Encoding`` header advertises; any other coding is a
    :class:`RemoteProtocolError` with status 0.
    """

    def __init__(
        self,
        config: RemoteEndpointConfig,
        forward_annotations: bool = False,
        session: requests.Session | None = None,
    ):
        self.config = config
        self.forward_annotations = forward_annotations
        session = session if session is not None else requests.Session()
        self._url = config.base_url.rstrip("/") + "/query"

        def bearer(request):  # any auth, this one too, keeps requests from reading ~/.netrc
            request.headers["Authorization"] = f"Bearer {config.auth_token}"
            return request

        auth = bearer if config.auth_token is not None else None
        prepared = session.prepare_request(requests.Request("POST", self._url, auth=auth))
        settings = session.merge_environment_settings(self._url, {}, None, None, None)
        adapter = session.get_adapter(self._url)  # names the target and proxy headers; it sends nothing
        # the body's own Content-Length replaces the empty one prepared here,
        # and the JSON Content-Type joins unless the session sets its own
        headers = prepared.headers.copy()
        headers.pop("Content-Length", None)
        headers.setdefault("Content-Type", "application/json")
        url = urlsplit(prepared.url)
        https = url.scheme == "https"
        address, self._tunnel = (url.hostname, url.port or (443 if https else 80)), None
        proxy = requests.utils.select_proxy(prepared.url, settings["proxies"])
        if proxy is not None:
            try:  # a host the socket layer can encode to look it up (None has no encode), and a port
                proxy_url = urlsplit(requests.utils.prepend_scheme_if_needed(proxy, "http"))
                proxy_url.hostname.encode("idna"), proxy_url.port
            except (ValueError, AttributeError):  # urllib3's LocationParseError and UnicodeError are ValueErrors
                raise RemoteProtocolError(0, f"proxy for {self._url}: not a URL with a valid host and port") from None
            if proxy_url.scheme != "http":
                shown = proxy_url._replace(netloc=proxy_url.netloc.rpartition("@")[2]).geturl()  # no credentials
                raise RemoteProtocolError(0, f"proxy {shown} for {self._url}: only http:// proxies are supported")
            try:
                proxy_headers = adapter.proxy_headers(proxy)
            except UnicodeEncodeError:  # sent as a header line, which holds Latin-1 text
                raise RemoteProtocolError(0, f"proxy for {self._url}: credentials must be Latin-1 text") from None
            if https:  # a CONNECT tunnel through the proxy, TLS inside it
                self._tunnel = (*address, proxy_headers)
            else:  # the proxy takes the absolute URL, which request_url gives
                headers.update(proxy_headers)
            address = (proxy_url.hostname, proxy_url.port or 80)
        timeout_s = config.timeout_ms / 1000.0
        if https:
            try:
                context = _tls_context(settings["verify"], settings["cert"])
            except OSError as exc:  # a CA bundle or certificate that cannot be read
                raise RemoteProtocolError(0, f"TLS settings for {self._url}: {exc}") from exc
            self._new_connection = partial(
                http.client.HTTPSConnection, *address, timeout=timeout_s, context=context
            )
        else:
            self._new_connection = partial(http.client.HTTPConnection, *address, timeout=timeout_s)
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)
        self._in_flight = threading.BoundedSemaphore(config.max_in_flight)
        # every call sends this head, its Content-Length and the body in one
        # write; http.client writes the head to a connection that never opens
        connection, sent = self._connection(), []
        connection.send = sent.append
        connection.putrequest("POST", adapter.request_url(prepared, settings["proxies"]), skip_accept_encoding=True)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders()
        self._head = b"".join(sent).removesuffix(b"\r\n") + b"Content-Length: "

    def _connection(self) -> http.client.HTTPConnection:
        """An idle connection that still reads as open, or a new unconnected one."""
        while True:
            try:
                connection = self._idle.pop()
            except IndexError:  # none idle
                break
            # readable while idle: the server closed it, or sent what no request asked for
            if not urllib3.util.wait_for_read(connection.sock, timeout=0):
                return connection
            connection.close()
        connection = self._new_connection()
        if self._tunnel is not None:
            connection.set_tunnel(*self._tunnel)
        return connection

    def answer(self, node: Node, query: Query) -> QueryResponse:
        body = {
            "query_text": query.text,
            "mode": query.mode,
            "node_id": node.id,
            "payload_ref": node.snapshot.payload_ref,
            "objects_hint": (
                [obj.to_json_dict() for obj in node.snapshot.objects]
                if self.forward_annotations
                else None
            ),
        }
        payload = json.dumps(body, allow_nan=False).encode()  # the bytes requests sends for json=body
        request = b"%s%d\r\n\r\n%s" % (self._head, len(payload), payload)
        with self._in_flight:
            connection = self._connection()
            try:
                if connection.sock is None:
                    connection.connect()
                    # without this, Nagle's algorithm holds the tail of a request
                    # longer than one segment until the server's delayed ACK
                    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                connection.sock.sendall(request)
                reader = _HTTPReader(connection.sock)
                status, content, will_close, encoding = reader.read()
            except TimeoutError as exc:
                connection.close()  # a late answer must never reach the next call
                raise RemoteTimeoutError(
                    f"no answer from {self._url} within {self.config.timeout_ms} ms"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                raise RemoteProtocolError(0, f"request to {self._url} failed: {exc}") from exc
            if will_close or reader.unread:  # bytes past the answer: no request asked for them
                connection.close()
            else:
                self._idle.append(connection)
        if not 200 <= status < 300:
            raise RemoteProtocolError(status)
        if encoding is not None:
            content = _decoded(content, encoding)
        return self._parse_verdict(node.id, content)

    def close(self) -> None:
        """Close the backend's idle connections now rather than when it is
        garbage-collected. A later call opens a new one."""
        _close_all(self._idle)

    def __enter__(self) -> RemoteBackend:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _parse_verdict(node_id: NodeId, content: bytes) -> QueryResponse:
        try:
            doc = json.loads(content)
        except ValueError as exc:
            raise MalformedResponseError(f"response body is not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MalformedResponseError("response body must be a JSON object")
        satisfied = doc.get("satisfied")
        if not isinstance(satisfied, bool):
            raise MalformedResponseError("'satisfied' must be a boolean")
        raw_objects = doc.get("objects", [])
        if not isinstance(raw_objects, list):
            raise MalformedResponseError("'objects' must be an array when present")
        matches = []
        for obj_doc in raw_objects:
            if not isinstance(obj_doc, dict) or "label" not in obj_doc:
                raise MalformedResponseError("each object needs at least a 'label'")
            try:
                matches.append(
                    SceneObject(
                        label=obj_doc["label"],
                        attributes=obj_doc.get("attributes", {}),
                        world_position=None,  # remote answers carry no coordinates
                        instance_id=-1,
                    )
                )
            except ValueError as exc:
                raise MalformedResponseError(f"bad object in response: {exc}") from exc
        count = doc.get("count", len(matches))
        if not _is_integer(count) or count < 0:
            raise MalformedResponseError("'count' must be a non-negative integer")
        text = doc.get("text", "")
        if not isinstance(text, str):
            raise MalformedResponseError("'text' must be a string")
        return QueryResponse(
            node=node_id,
            satisfied=satisfied,
            matches=tuple(matches),
            count=count,
            text=text,
            backend_calls=1,
        )

