"""Pluggable query backends: the per-node answer engines behind traversals.

Three tiers are provided so every experiment can run hermetically while real
multimodal models stay pluggable:

* :class:`OracleBackend` answers deterministically from snapshot annotations
  by exact predicate matching.
* :class:`ReplayStore` holds answers keyed to the scene they came from; a
  loaded store replays them, and :class:`RecordingBackend` captures one.
* :class:`RemoteBackend` speaks the HTTP wire format to an external endpoint.

:class:`CachingBackend` wraps any of them and answers repeat queries about
one scene from its own store.
"""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import os
import socket
import ssl
import threading
import weakref
from base64 import b64encode
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Protocol
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
    _KindError,
    _object_text,
    _record,
    _slot_setters,
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
        clauses = self.attribute_equals
        if isinstance(clauses, dict):
            clauses = tuple(clauses.items())
        clauses = tuple((str(k), str(v)) for k, v in clauses or ())
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
        if not self.text:
            raise ValueError("query text must be non-empty")
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
        set_node, set_satisfied, set_matches, set_count, set_text, set_calls = _RESPONSE_SETTERS
        set_node(self, node)
        set_satisfied(self, satisfied)
        set_matches(self, matches if type(matches) is tuple else tuple(matches))
        set_count(self, count)
        set_text(self, text)
        set_calls(self, backend_calls)

    def _with(self, node: NodeId, backend_calls: int) -> QueryResponse:
        """This answer with ``node`` and ``backend_calls`` replaced, as
        ``dataclasses.replace`` would make it, without its per-call field walk."""
        return QueryResponse(node, self.satisfied, self.matches, self.count, self.text, backend_calls)

    def to_json_dict(self) -> dict:
        return {
            "node": self.node,
            "satisfied": self.satisfied,
            "matches": [obj.to_json_dict() for obj in self.matches],
            "count": self.count,
            "text": self.text,
            "backend_calls": self.backend_calls,
        }

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


_RESPONSE_SETTERS = _slot_setters(QueryResponse)

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
            _check_id(getattr(self, name), name)
        url = urlsplit(self.base_url) if isinstance(self.base_url, str) else None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")
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
    """Delegates to an inner backend and puts every answer into ``store``."""

    def __init__(self, inner: QueryBackend, store: ReplayStore | None = None):
        self.inner = inner
        self.store = store if store is not None else ReplayStore()

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.inner.answer(node, query)
        self.store.record(node, query, response)
        return response


# --- caching ---------------------------------------------------------------------


class CachingBackend:
    """Per-session unbounded cache: a :class:`ReplayStore` in front of ``inner``.

    Never changes response content, only the backend_calls accounting.
    Concurrent identical requests may both reach the inner backend (one or
    two calls are both acceptable); the first stored answer wins, so the
    store is never corrupted.
    """

    def __init__(self, inner: QueryBackend):
        self.inner = inner
        self.store = ReplayStore()
        self.hits = 0

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.store.get(node, query)
        if response is not None:
            self.hits += 1
            return response
        response = self.inner.answer(node, query)  # errors propagate, uncached
        self.store.record(node, query, response)
        return response


# --- remote adapter ------------------------------------------------------------


class _BearerAuth(requests.auth.AuthBase):
    """Sets the bearer header. As a request's auth it also stops requests from
    reading ``~/.netrc``, whose login would otherwise replace the token."""

    def __init__(self, token: str):
        self.header = f"Bearer {token}"

    def __call__(self, request):
        request.headers["Authorization"] = self.header
        return request


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


def _proxy_auth(proxy: str) -> dict[str, str]:
    """The ``Proxy-Authorization`` header for credentials in a proxy URL, as requests sends it."""
    username, password = requests.utils.get_auth_from_url(proxy)
    if not username:
        return {}
    credentials = b64encode(f"{username}:{password}".encode("latin-1")).decode()
    return {"Proxy-Authorization": f"Basic {credentials}"}


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
    from the session and the environment are read then, not per call. Each
    call then goes out over :mod:`http.client` with those headers and the
    body ``session.post(json=...)`` would send. A transport adapter mounted
    on the session is not used, and the session's response hooks are not
    run. A configured token always wins over ``~/.netrc``; without one,
    netrc applies as in requests. A body sent with a ``Content-Encoding`` is
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
        auth = _BearerAuth(config.auth_token) if config.auth_token is not None else None
        prepared = session.prepare_request(requests.Request("POST", self._url, auth=auth))
        settings = session.merge_environment_settings(self._url, {}, None, None, None)
        # the body's own Content-Length replaces the empty one prepared here,
        # and the JSON Content-Type joins unless the session sets its own
        headers = prepared.headers.copy()
        headers.pop("Content-Length", None)
        headers.setdefault("Content-Type", "application/json")
        self._headers = list(headers.items())
        self._target = prepared.path_url
        url = urlsplit(prepared.url)
        https = url.scheme == "https"
        host, port = url.hostname, url.port or (443 if https else 80)
        self._tunnel = None
        proxy = requests.utils.select_proxy(prepared.url, settings["proxies"])
        if proxy is not None:
            proxy_url = urlsplit(requests.utils.prepend_scheme_if_needed(proxy, "http"))
            if proxy_url.scheme != "http":
                raise RemoteProtocolError(0, f"proxy {proxy} for {self._url}: only http:// proxies are supported")
            proxy_headers = _proxy_auth(proxy)
            if https:  # a CONNECT tunnel through the proxy, TLS inside it
                self._tunnel = (host, port, proxy_headers)
            else:  # the proxy takes the absolute URL
                self._target = prepared.url
                self._headers += proxy_headers.items()
            host, port = proxy_url.hostname, proxy_url.port or 80
        timeout_s = config.timeout_ms / 1000.0
        if https:
            try:
                context = _tls_context(settings["verify"], settings["cert"])
            except OSError as exc:  # a CA bundle or certificate that cannot be read
                raise RemoteProtocolError(0, f"TLS settings for {self._url}: {exc}") from exc
            self._new_connection = partial(
                http.client.HTTPSConnection, host, port, timeout=timeout_s, context=context
            )
        else:
            self._new_connection = partial(http.client.HTTPConnection, host, port, timeout=timeout_s)
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)
        self._in_flight = threading.BoundedSemaphore(config.max_in_flight)

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
        with self._in_flight:
            connection = self._connection()
            try:
                if connection.sock is None:
                    connection.connect()
                    # headers and body go out in two sends; without this, Nagle's
                    # algorithm holds the body until the server's delayed ACK
                    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                connection.putrequest("POST", self._target, skip_accept_encoding=True)
                for name, value in self._headers:
                    connection.putheader(name, value)
                connection.putheader("Content-Length", str(len(payload)))
                connection.endheaders(payload)
                http_response = connection.getresponse()
                content = http_response.read()
            except TimeoutError as exc:
                connection.close()  # a late answer must never reach the next call
                raise RemoteTimeoutError(
                    f"no answer from {self._url} within {self.config.timeout_ms} ms"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                raise RemoteProtocolError(0, f"request to {self._url} failed: {exc}") from exc
            if not http_response.will_close:  # getresponse already closed one that will
                self._idle.append(connection)
        if not 200 <= http_response.status < 300:
            raise RemoteProtocolError(http_response.status)
        encoding = http_response.getheader("Content-Encoding")
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
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
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

