"""Spatial datagraph core: pose+snapshot nodes joined by neighboring-area edges.

A :class:`Datagraph` has a two-phase lifecycle. Hand-built graphs grow with
:meth:`Datagraph.add_node` and :meth:`Datagraph.add_edge`, then are frozen
with :meth:`Datagraph.seal`. Generated and loaded worlds are built in bulk
by one checked builder, :meth:`Datagraph._assemble`, which seals them.
Sealed graphs are immutable, safe to share across threads without locking,
and are the only graphs accepted by the distance and path queries. Every
query breaks ties deterministically (ascending node ids, lexicographically
smallest paths) so traversals are reproducible.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path

from .errors import (
    DuplicateEdgeError,
    GraphParseError,
    GraphStateError,
    GraphValidationError,
    InvalidLengthError,
    MissingNodeError,
    SelfLoopError,
)

NodeId = int

_QUAT_NORM_TOL = 1e-9


def _as_vec3(values, what: str) -> tuple[float, float, float]:
    try:
        vec = tuple(map(float, values))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be a 3-vector of numbers") from exc
    if len(vec) != 3:
        raise ValueError(f"{what} must have exactly 3 components, got {len(vec)}")
    x, y, z = vec
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{what} components must be finite, got {vec}")
    return vec


@dataclass(frozen=True)
class Pose:
    """A position in meters with an optional unit-quaternion orientation.

    Orientation is stored for payload forwarding but never affects distance
    computations; when absent it is treated as identity.
    """

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "position", _as_vec3(self.position, "position"))
        if self.orientation is not None:
            quat = tuple(float(c) for c in self.orientation)
            if len(quat) != 4:
                raise ValueError("orientation must be a (w, x, y, z) quaternion")
            norm = math.sqrt(sum(c * c for c in quat))
            if not math.isfinite(norm) or abs(norm - 1.0) > _QUAT_NORM_TOL:
                raise ValueError(f"quaternion norm {norm!r} is not within {_QUAT_NORM_TOL} of 1")
            object.__setattr__(self, "orientation", quat)


@dataclass(frozen=True)
class SceneObject:
    """An annotated object observed in a scene.

    ``instance_id`` exists for ground-truth bookkeeping only; backends that
    emulate a multimodal model must never consult it when answering.
    Detections reported by remote backends carry ``instance_id=-1`` and no
    world position.
    """

    label: str
    attributes: dict[str, str] = field(default_factory=dict)
    world_position: tuple[float, float, float] | None = None
    instance_id: int = -1

    def __post_init__(self):
        if not self.label:
            raise ValueError("object label must be non-empty")
        attrs = dict(self.attributes)
        for key, value in attrs.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(f"attributes must map str to str, got {key!r}: {value!r}")
        object.__setattr__(self, "attributes", attrs)
        if self.world_position is not None:
            object.__setattr__(
                self, "world_position", _as_vec3(self.world_position, "world_position")
            )

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "attributes": dict(self.attributes),
            "world_position": list(self.world_position) if self.world_position else None,
            "instance_id": self.instance_id,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> SceneObject:
        pos = doc.get("world_position")
        return cls(
            label=doc["label"],
            attributes=doc.get("attributes", {}),
            world_position=tuple(pos) if pos is not None else None,
            instance_id=doc.get("instance_id", -1),
        )


@dataclass(frozen=True)
class Snapshot:
    """The per-node scene record: annotated objects plus an opaque payload ref.

    ``payload_ref`` points at external scene data (a mesh, pointcloud, image
    set, ...). This library never dereferences it; it is only forwarded to
    remote backends.
    """

    objects: tuple[SceneObject, ...] = ()
    payload_ref: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class Node:
    id: NodeId
    pose: Pose
    snapshot: Snapshot


@dataclass(frozen=True)
class Edge:
    """Undirected edge between neighboring areas; ``a < b`` once stored."""

    a: NodeId
    b: NodeId
    traversable: bool = True
    length_m: float = 1.0

    def other(self, v: NodeId) -> NodeId:
        return self.b if v == self.a else self.a


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, naming the offending ids."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _edge_faults(edge: Edge, n: int) -> list[Violation]:
    """One edge's self-loop, missing-endpoint and (if both ends exist) length violations."""
    out = []
    if edge.a == edge.b:
        out.append(Violation("self-loop", f"edge on node {edge.a}"))
    if not (0 <= edge.a < n and 0 <= edge.b < n):
        out.append(Violation("edge-endpoint", f"edge {{{edge.a}, {edge.b}}} endpoint missing"))
    elif not (math.isfinite(edge.length_m) and edge.length_m > 0.0):
        out.append(Violation("edge-length", f"edge {{{edge.a}, {edge.b}}} has length {edge.length_m!r}"))
    return out


class Datagraph:
    """Immutable-after-build graph of (pose, snapshot) nodes.

    Node ids are dense, assigned in insertion order starting at 0, and never
    reused. Adjacency lists are kept sorted ascending by neighbor id, which
    anchors the deterministic tie-breaking of every traversal built on top.
    """

    def __init__(self) -> None:
        self._nodes: list[Node] = []
        self._adj: list[list[tuple[NodeId, Edge]]] = []
        self._edges: dict[tuple[NodeId, NodeId], Edge] = {}
        self._sealed = False

    # -- construction -------------------------------------------------------

    def add_node(self, pose: Pose, snapshot: Snapshot) -> NodeId:
        """Append a node and return its fresh id (= previous node count)."""
        self._require_unsealed()
        node_id = len(self._nodes)
        self._nodes.append(Node(node_id, pose, snapshot))
        self._adj.append([])
        return node_id

    def add_edge(
        self,
        a: NodeId,
        b: NodeId,
        traversable: bool = True,
        length_m: float | None = None,
    ) -> None:
        """Connect two existing nodes.

        When ``length_m`` is omitted the Euclidean distance between the
        endpoint positions is stored; coincident poses therefore need an
        explicit positive length.
        """
        self._require_unsealed()
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise SelfLoopError(a)
        key = (min(a, b), max(a, b))
        if key in self._edges:
            raise DuplicateEdgeError(a, b)
        if length_m is None:
            length_m = math.dist(self._nodes[a].pose.position, self._nodes[b].pose.position)
        length_m = float(length_m)
        if not (math.isfinite(length_m) and length_m > 0.0):
            raise InvalidLengthError(
                f"edge {{{a}, {b}}} length must be positive and finite, got {length_m!r}"
            )
        edge = Edge(key[0], key[1], bool(traversable), length_m)
        self._edges[key] = edge
        insort(self._adj[a], (b, edge), key=lambda item: item[0])
        insort(self._adj[b], (a, edge), key=lambda item: item[0])

    @classmethod
    def _assemble(cls, nodes, edges) -> tuple[Datagraph, list[Violation]]:
        """Build a sealed graph from :class:`Node` records in id order and
        ``(a, b, traversable, length_m)`` tuples, checking each edge once.

        Returns the graph and its violations, not raising them: repeated
        pairs first, then each new edge's :func:`_edge_faults` in input order.
        A faulty edge stays out of the graph. Appending both ends of the kept
        edges in ``(a, b)`` order leaves every adjacency list ascending.
        """
        n = len(nodes)
        duplicates: list[Violation] = []
        faults: list[Violation] = []
        seen: set[tuple[NodeId, NodeId]] = set()
        kept: dict[tuple[NodeId, NodeId], Edge] = {}
        for i, (a, b, traversable, length_m) in enumerate(edges):
            key = (a, b) if a < b else (b, a)
            if key in seen:
                duplicates.append(Violation("duplicate-edge", f"edges[{i}] repeats pair {key}"))
                continue
            seen.add(key)
            edge = Edge(key[0], key[1], traversable, length_m)
            found = _edge_faults(edge, n)
            faults.extend(found)
            if not found:
                kept[key] = edge
        graph = cls()
        graph._nodes = nodes
        graph._adj = [[] for _ in range(n)]
        for key in sorted(kept):
            edge = graph._edges[key] = kept[key]
            graph._adj[key[0]].append((key[1], edge))
            graph._adj[key[1]].append((key[0], edge))
        return graph.seal(), duplicates + faults

    def seal(self) -> Datagraph:
        """Freeze the graph; all further mutation raises. Idempotent."""
        if not self._sealed:
            self._nodes = tuple(self._nodes)  # type: ignore[assignment]
            self._adj = tuple(tuple(entries) for entries in self._adj)  # type: ignore[assignment]
            self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datagraph):
            return NotImplemented
        return (
            self._sealed == other._sealed
            and list(self._nodes) == list(other._nodes)
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else "building"
        return f"Datagraph(nodes={len(self._nodes)}, edges={len(self._edges)}, {state})"

    def node(self, v: NodeId) -> Node:
        self._check_node(v)
        return self._nodes[v]

    def nodes(self) -> tuple[Node, ...]:
        return tuple(self._nodes)

    def edges(self) -> tuple[Edge, ...]:
        """All edges, sorted by (a, b) for deterministic iteration."""
        return tuple(self._edges[key] for key in sorted(self._edges))

    def neighbors(self, v: NodeId, traversable_only: bool = False) -> list[NodeId]:
        """Adjacent node ids in ascending order."""
        self._require_sealed()
        self._check_node(v)
        return [w for w, e in self._adj[v] if e.traversable or not traversable_only]

    def adjacency(self, v: NodeId, traversable_only: bool = False) -> list[tuple[NodeId, Edge]]:
        """(neighbor id, edge) pairs in ascending neighbor order."""
        self._require_sealed()
        self._check_node(v)
        return [(w, e) for w, e in self._adj[v] if e.traversable or not traversable_only]

    def edge_between(self, a: NodeId, b: NodeId) -> Edge | None:
        self._require_sealed()
        self._check_node(a)
        self._check_node(b)
        return self._edges.get((min(a, b), max(a, b)))

    # -- distances & paths ------------------------------------------------------

    def hop_distances(self, source: NodeId, traversable_only: bool = False) -> dict[NodeId, int]:
        """Minimum edge counts from ``source``; unreachable nodes are absent."""
        self._require_sealed()
        self._check_node(source)
        dist: dict[NodeId, int] = {source: 0}
        queue: deque[NodeId] = deque([source])
        while queue:
            v = queue.popleft()
            for w, e in self._adj[v]:
                if traversable_only and not e.traversable:
                    continue
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def geodesic_distances(
        self, source: NodeId, traversable_only: bool = False
    ) -> dict[NodeId, float]:
        """Single-source shortest path lengths in meters (Dijkstra)."""
        self._require_sealed()
        self._check_node(source)
        dist: dict[NodeId, float] = {}
        best: dict[NodeId, float] = {source: 0.0}
        heap: list[tuple[float, NodeId]] = [(0.0, source)]
        while heap:
            d, v = heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            for w, e in self._adj[v]:
                if traversable_only and not e.traversable:
                    continue
                nd = d + e.length_m
                if w not in dist and (w not in best or nd < best[w]):
                    best[w] = nd
                    heappush(heap, (nd, w))
        return dist

    def shortest_path(
        self,
        a: NodeId,
        b: NodeId,
        metric: str = "hops",
        traversable_only: bool = False,
    ) -> list[NodeId] | None:
        """Minimal path from ``a`` to ``b`` under the chosen metric, or None.

        Among equally short paths the lexicographically smallest node-id
        sequence is returned. ``metric`` is ``"hops"`` or ``"meters"``.
        """
        self._require_sealed()
        self._check_node(a)
        self._check_node(b)
        if metric not in ("hops", "meters"):
            raise ValueError(f"metric must be 'hops' or 'meters', got {metric!r}")
        if metric == "hops":
            dist_to_goal: dict[NodeId, float] = dict(self.hop_distances(b, traversable_only))
        else:
            dist_to_goal = self.geodesic_distances(b, traversable_only)
        if a not in dist_to_goal:
            return None
        # Greedy descent toward the goal: among neighbors still on a shortest
        # path, the smallest id yields the lexicographically smallest sequence.
        path = [a]
        current = a
        while current != b:
            step_to_next = None
            for w, e in self._adj[current]:
                if traversable_only and not e.traversable:
                    continue
                if w not in dist_to_goal:
                    continue
                step = 1 if metric == "hops" else e.length_m
                if dist_to_goal[w] + step == dist_to_goal[current]:
                    step_to_next = w
                    break
            if step_to_next is None:  # pragma: no cover - Dijkstra guarantees a predecessor
                return None
            path.append(step_to_next)
            current = step_to_next
        return path

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Re-check every structural invariant; empty list means well-formed.

        Violations are data, not errors: this is the lint pass used by
        :meth:`load` and by the CLI's graph linter.
        """
        out: list[Violation] = []
        for index, node in enumerate(self._nodes):
            if node.id != index:
                out.append(Violation("node-id-density", f"node at index {index} has id {node.id}"))
            if not all(math.isfinite(c) for c in node.pose.position):
                out.append(Violation("pose-finite", f"node {node.id} position {node.pose.position}"))
            if node.pose.orientation is not None:
                norm = math.sqrt(sum(c * c for c in node.pose.orientation))
                if abs(norm - 1.0) > _QUAT_NORM_TOL:
                    out.append(Violation("orientation-norm", f"node {node.id} norm {norm!r}"))
            for obj in node.snapshot.objects:
                if not obj.label:
                    out.append(Violation("object-label", f"node {node.id} has an unlabeled object"))
                if obj.world_position is not None and not all(map(math.isfinite, obj.world_position)):
                    detail = f"node {node.id} object {obj.instance_id} at {obj.world_position}"
                    out.append(Violation("object-position", detail))
        n = len(self._nodes)
        for key, edge in self._edges.items():
            if key != (min(edge.a, edge.b), max(edge.a, edge.b)):
                out.append(Violation("edge-key", f"edge {edge} stored under key {key}"))
            out.extend(_edge_faults(edge, n))
        for v in range(n):
            entries = self._adj[v]
            ids = [w for w, _ in entries]
            if ids != sorted(ids):
                out.append(Violation("adjacency-order", f"node {v} adjacency {ids} not ascending"))
            if len(ids) != len(set(ids)):
                out.append(Violation("duplicate-edge", f"node {v} adjacency {ids} repeats a neighbor"))
            for w, edge in entries:
                if not 0 <= w < n:
                    out.append(Violation("edge-endpoint", f"node {v} adjacent to missing node {w}"))
                    continue
                if self._edges.get((min(v, w), max(v, w))) is not edge:
                    out.append(Violation("adjacency-edge", f"adjacency {v}->{w} disagrees with edge table"))
                if not any(u == v and back is edge for u, back in self._adj[w]):
                    out.append(Violation("adjacency-symmetry", f"{v} lists {w} but {w} does not list {v}"))
        return out

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        nodes = []
        for node in self._nodes:
            pose_doc: dict = {"position": list(node.pose.position)}
            if node.pose.orientation is not None:
                pose_doc["orientation"] = list(node.pose.orientation)
            snap_doc: dict = {"objects": [obj.to_json_dict() for obj in node.snapshot.objects]}
            if node.snapshot.payload_ref is not None:
                snap_doc["payload_ref"] = node.snapshot.payload_ref
            nodes.append({"id": node.id, "pose": pose_doc, "snapshot": snap_doc})
        edges = [
            {"a": e.a, "b": e.b, "traversable": e.traversable, "length_m": e.length_m}
            for e in self.edges()
        ]
        return {"format_version": 1, "nodes": nodes, "edges": edges}

    def save(self, destination) -> None:
        """Write the graph document (JSON) to a path. Requires a sealed graph."""
        if not self._sealed:
            raise GraphStateError("only sealed graphs can be saved")
        Path(destination).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_json_dict(cls, doc) -> Datagraph:
        """Rebuild a sealed graph from its document form.

        Structural problems surface as :class:`GraphValidationError` listing
        violations; shape/type problems surface as :class:`GraphParseError`
        naming the offending location.
        """
        if not isinstance(doc, dict):
            raise GraphParseError("top level: expected an object")
        version = doc.get("format_version")
        if version != 1:
            raise GraphParseError(f"format_version: expected 1, got {version!r}")
        raw_nodes = doc.get("nodes")
        raw_edges = doc.get("edges")
        if not isinstance(raw_nodes, list):
            raise GraphParseError("nodes: expected an array")
        if not isinstance(raw_edges, list):
            raise GraphParseError("edges: expected an array")

        violations: list[Violation] = []
        nodes: list[Node] = []
        for i, node_doc in enumerate(raw_nodes):
            where = f"nodes[{i}]"
            if not isinstance(node_doc, dict):
                raise GraphParseError(f"{where}: expected an object")
            node_id = node_doc.get("id")
            if not isinstance(node_id, int) or isinstance(node_id, bool):
                raise GraphParseError(f"{where}.id: expected an integer")
            if node_id != i:
                violations.append(
                    Violation("node-id-density", f"{where} has id {node_id}, expected {i}")
                )
            pose_doc = node_doc.get("pose")
            snap_doc = node_doc.get("snapshot")
            if not isinstance(pose_doc, dict):
                raise GraphParseError(f"{where}.pose: expected an object")
            if not isinstance(snap_doc, dict):
                raise GraphParseError(f"{where}.snapshot: expected an object")
            position = pose_doc.get("position")
            if not isinstance(position, list) or len(position) != 3:
                raise GraphParseError(f"{where}.pose.position: expected 3 numbers")
            orientation = pose_doc.get("orientation")
            if orientation is not None and (
                not isinstance(orientation, list) or len(orientation) != 4
            ):
                raise GraphParseError(f"{where}.pose.orientation: expected 4 numbers")
            raw_objects = snap_doc.get("objects", [])
            if not isinstance(raw_objects, list):
                raise GraphParseError(f"{where}.snapshot.objects: expected an array")
            payload_ref = snap_doc.get("payload_ref")
            if payload_ref is not None and not isinstance(payload_ref, str):
                raise GraphParseError(f"{where}.snapshot.payload_ref: expected a string")
            try:
                objects = tuple(SceneObject.from_json_dict(o) for o in raw_objects)
                pose = Pose(tuple(position), tuple(orientation) if orientation else None)
                nodes.append(Node(i, pose, Snapshot(objects, payload_ref)))
            except (KeyError, TypeError) as exc:
                raise GraphParseError(f"{where}: {exc}") from exc
            except ValueError as exc:
                raise GraphValidationError([Violation("node-data", f"{where}: {exc}")]) from exc

        edges = []
        for i, edge_doc in enumerate(raw_edges):
            where = f"edges[{i}]"
            if not isinstance(edge_doc, dict):
                raise GraphParseError(f"{where}: expected an object")
            try:
                a, b, traversable, length_m = (edge_doc[k] for k in ("a", "b", "traversable", "length_m"))
            except KeyError as exc:
                raise GraphParseError(f"{where}: missing field {exc}") from exc
            if not isinstance(a, int) or not isinstance(b, int) or isinstance(a, bool) or isinstance(b, bool):
                raise GraphParseError(f"{where}: endpoints must be integers")
            if not isinstance(traversable, bool):
                raise GraphParseError(f"{where}.traversable: expected a boolean")
            if not isinstance(length_m, (int, float)) or isinstance(length_m, bool):
                raise GraphParseError(f"{where}.length_m: expected a number")
            edges.append((a, b, traversable, float(length_m)))

        graph, built = cls._assemble(nodes, edges)
        violations += built + graph.validate()
        if violations:
            raise GraphValidationError(violations)
        return graph

    @classmethod
    def load(cls, source) -> Datagraph:
        """Read a graph document from a path."""
        text = Path(source).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        return cls.from_json_dict(doc)

    # -- internals -----------------------------------------------------------

    def _check_node(self, v: NodeId) -> None:
        if (
            not isinstance(v, numbers.Integral)
            or isinstance(v, bool)
            or not 0 <= v < len(self._nodes)
        ):
            raise MissingNodeError(v)

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise GraphStateError("graph is sealed; construction is over")

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise GraphStateError("graph must be sealed before it can be queried")
