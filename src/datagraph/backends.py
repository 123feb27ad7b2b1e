"""Pluggable query backends: the per-node answer engines behind traversals.

Three tiers are provided so every experiment can run hermetically while real
multimodal models stay pluggable:

* :class:`OracleBackend` answers deterministically from snapshot annotations
  by exact predicate matching.
* :class:`ReplayBackend` / :class:`RecordingBackend` replay and capture
  recorded sessions keyed by (node id, canonical query hash).
* :class:`RemoteBackend` speaks the HTTP wire format to an external endpoint.

:class:`CachingBackend` wraps any of them and suppresses repeat calls for
identical (node, query) pairs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

import requests

from .errors import (
    GraphParseError,
    MalformedResponseError,
    RemoteProtocolError,
    RemoteTimeoutError,
    ReplayMissError,
)
from .graph import Node, NodeId, SceneObject, Snapshot

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

    def to_json_dict(self) -> dict:
        return {
            "label_equals": self.label_equals,
            "attribute_equals": [list(pair) for pair in self.attribute_equals],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> Predicate:
        return cls(
            label_equals=doc.get("label_equals"),
            attribute_equals=tuple((k, v) for k, v in doc.get("attribute_equals", [])),
        )


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

    def to_json_dict(self) -> dict:
        return {"text": self.text, "mode": self.mode, "predicate": self.predicate.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> Query:
        return cls(
            text=doc["text"],
            predicate=Predicate.from_json_dict(doc["predicate"]),
            mode=doc.get("mode", "find"),
        )


@dataclass(frozen=True)
class QueryResponse:
    """One backend answer for one node.

    ``backend_calls`` counts real backend invocations this response cost:
    1 for a live answer, 0 when served from a cache or replay store.
    """

    node: NodeId
    satisfied: bool
    matches: tuple[SceneObject, ...] = ()
    count: int = 0
    text: str = ""
    backend_calls: int = 1

    def __post_init__(self):
        object.__setattr__(self, "matches", tuple(self.matches))

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
        return cls(
            node=doc["node"],
            satisfied=doc["satisfied"],
            matches=tuple(SceneObject.from_json_dict(o) for o in doc.get("matches", [])),
            count=doc.get("count", 0),
            text=doc.get("text", ""),
            backend_calls=doc.get("backend_calls", 1),
        )


@dataclass(frozen=True)
class RemoteEndpointConfig:
    base_url: str
    timeout_ms: int = 10_000
    max_in_flight: int = 4
    auth_token: str | None = None

    def __post_init__(self):
        if not self.base_url:
            raise ValueError("base_url must be non-empty")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be >= 1")
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


def predicate_eval(predicate: Predicate, obj: SceneObject | GroundTruthInstance) -> bool:
    """True iff every clause of the predicate holds for the object.

    Labels compare case-insensitively, as :func:`canonical_query_key` treats
    label casing as cosmetic.
    """
    label = predicate.label_key
    if label is not None and obj.label.lower() != label:
        return False
    for key, value in predicate.attribute_equals:
        if obj.attributes.get(key) != value:
            return False
    return True


def oracle_answer(snapshot: Snapshot, query: Query, node: NodeId = -1) -> QueryResponse:
    """Deterministic stand-in for a multimodal model call on one scene.

    Matches are returned in snapshot order. ``satisfied`` is count > 0 for
    every mode; ``assess_hazard`` behaves like ``find`` over the predicate.
    """
    matches = tuple(obj for obj in snapshot.objects if predicate_eval(query.predicate, obj))
    count = len(matches)
    if count == 0:
        text = "no matching objects"
    elif query.mode == "count":
        text = f"counted {count} matching object(s)"
    else:
        labels = ", ".join(obj.label for obj in matches)
        text = f"found {count} matching object(s): {labels}"
    return QueryResponse(
        node=node,
        satisfied=count > 0,
        matches=matches,
        count=count,
        text=text,
        backend_calls=1,
    )


class OracleBackend:
    """Answers by exact predicate matching over snapshot annotations."""

    def answer(self, node: Node, query: Query) -> QueryResponse:
        return oracle_answer(node.snapshot, query, node=node.id)


# --- record / replay -----------------------------------------------------------


class ReplayStore:
    """Recorded responses keyed by ``"<node>:<query hash>"``, JSON-persistable."""

    FORMAT_VERSION = 1

    def __init__(self) -> None:
        self._responses: dict[str, QueryResponse] = {}

    @staticmethod
    def key_for(node_id: NodeId, query: Query) -> str:
        return f"{node_id}:{query.canonical_key}"

    def __len__(self) -> int:
        return len(self._responses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReplayStore):
            return NotImplemented
        return self._responses == other._responses

    def record(self, node_id: NodeId, query: Query, response: QueryResponse) -> None:
        self._responses[self.key_for(node_id, query)] = response

    def lookup(self, node_id: NodeId, query: Query) -> QueryResponse:
        key = self.key_for(node_id, query)
        try:
            return self._responses[key]
        except KeyError:
            raise ReplayMissError(node_id, query.canonical_key) from None

    def save(self, destination) -> None:
        doc = {
            "format_version": self.FORMAT_VERSION,
            "responses": {
                key: self._responses[key].to_json_dict() for key in sorted(self._responses)
            },
        }
        Path(destination).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, source) -> ReplayStore:
        text = Path(source).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("format_version") != cls.FORMAT_VERSION:
            raise GraphParseError("replay store: unsupported or missing format_version")
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


class ReplayBackend:
    """Serves only recorded responses; misses raise :class:`ReplayMissError`."""

    def __init__(self, store: ReplayStore):
        self.store = store

    def answer(self, node: Node, query: Query) -> QueryResponse:
        return replace(self.store.lookup(node.id, query), backend_calls=0)


class RecordingBackend:
    """Delegates to an inner backend and records every answer."""

    def __init__(self, inner: QueryBackend, store: ReplayStore | None = None):
        self.inner = inner
        self.store = store if store is not None else ReplayStore()

    def answer(self, node: Node, query: Query) -> QueryResponse:
        response = self.inner.answer(node, query)
        self.store.record(node.id, query, response)
        return response


# --- caching ---------------------------------------------------------------------


class CachingBackend:
    """Per-session unbounded cache keyed by (node id, canonical query hash).

    Never changes response content, only the backend_calls accounting.
    Concurrent identical requests may both hit the inner backend (one or two
    calls are both acceptable); the first stored entry wins so the cache is
    never corrupted.
    """

    def __init__(self, inner: QueryBackend):
        self.inner = inner
        self._cache: dict[tuple[NodeId, str], QueryResponse] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def answer(self, node: Node, query: Query) -> QueryResponse:
        key = (node.id, query.canonical_key)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                return replace(cached, backend_calls=0)
        response = self.inner.answer(node, query)  # errors propagate, uncached
        with self._lock:
            self._cache.setdefault(key, response)
            self.misses += 1
        return response


# --- remote adapter ------------------------------------------------------------


class RemoteBackend:
    """HTTP adapter speaking the wire format to a live model endpoint.

    POSTs ``{base_url}/query`` and maps the structured verdict into a
    :class:`QueryResponse`. Never fabricates a verdict: timeouts, non-2xx
    statuses, and malformed bodies all raise. At most ``max_in_flight``
    requests are in flight at any moment.
    """

    def __init__(
        self,
        config: RemoteEndpointConfig,
        forward_annotations: bool = False,
        session: requests.Session | None = None,
    ):
        self.config = config
        self.forward_annotations = forward_annotations
        self._session = session if session is not None else requests.Session()
        self._in_flight = threading.BoundedSemaphore(config.max_in_flight)

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
        headers = {}
        if self.config.auth_token is not None:
            headers["Authorization"] = f"Bearer {self.config.auth_token}"
        url = self.config.base_url.rstrip("/") + "/query"
        with self._in_flight:
            try:
                http_response = self._session.post(
                    url, json=body, headers=headers, timeout=self.config.timeout_ms / 1000.0
                )
            except requests.Timeout as exc:
                raise RemoteTimeoutError(
                    f"no answer from {url} within {self.config.timeout_ms} ms"
                ) from exc
            except requests.RequestException as exc:
                raise RemoteProtocolError(0, f"request to {url} failed: {exc}") from exc
        if not 200 <= http_response.status_code < 300:
            raise RemoteProtocolError(http_response.status_code)
        return self._parse_verdict(node.id, http_response)

    @staticmethod
    def _parse_verdict(node_id: NodeId, http_response) -> QueryResponse:
        try:
            doc = http_response.json()
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

