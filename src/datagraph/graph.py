"""Spatial datagraph core: pose+snapshot nodes joined by neighboring-area edges.

A :class:`Datagraph` is built whole and never changes: its one constructor,
``Datagraph(nodes, edges)``, takes :class:`Node` records in id order and
``(a, b, traversable, length_m)`` edge tuples, checks each edge once, and
raises :class:`GraphValidationError` on any violation. World generation and
loading both call it, with the cyclic garbage collector paused
(:func:`_collector_paused`), and ``run_compare`` runs whole under the same
pause. Loading reads the document through :func:`output.read_document`, the
one reader of every input file, which also checks its ``format_version``.
Records built by hand check their own fields with one helper per kind of
field (ids, booleans, labels, attributes, numbers and number vectors), and
the constructor, the experiment config and the world spec use the same
helpers, so each check is written once. Generated poses and scene objects
are built unchecked, each once, through their ``_of``: world generation
checks its spec once (``WorldSpec`` and ``CatalogEntry`` hold those checks),
and every field it derives from that spec is valid by construction. The
loaders read a record of the kinds a saved document holds (int ids, a
non-empty str label, a dict of str to str, which they copy, three finite
floats, no orientation or payload ref) by testing those kinds inline and
building it through ``_of``; any other record goes through its checking
constructor, so every fault reads as the constructor words it. A graph is
safe to share across threads without locking. Every query breaks ties
deterministically (ascending node ids, lexicographically smallest paths) so
traversals are reproducible. The records are frozen, slotted dataclasses,
so they take no ``__dict__`` and no attribute beyond their fields.

No :class:`Edge` record is stored. The constructor builds the adjacency once,
in the form the kernels read: per node, a tuple of ascending neighbor ids and
an aligned tuple of ``(neighbor, length_m)`` pairs, each edge listed at both
ends, plus a traversable-only view of each (the very same tuples when no edge
is closed) and the set of closed pairs. Callers read edges from these tuples
through :attr:`Datagraph.edge_count` and :meth:`Datagraph.edge_length`, and
saving writes each edge's fields straight from them. :meth:`Datagraph.edges`
builds ``Edge`` records on each call (equal records, not the same objects),
and :meth:`Datagraph.validate` re-runs the constructor over the stored
tuples. ``Edge``, ``edges()`` and ``validate()`` remain because the benchmark
reads them; deleting them waits for a change to the benchmark.

Every distance comes from one frontier kernel per metric over the
adjacency (:meth:`Datagraph._frontier`): a level-synchronous BFS for hops,
which settles one hop level at a time, sorted by id, and Dijkstra for
meters, which settles one node at a time in ``(meters, id)`` pop order. A
kernel is a generator that only this class drives, each method advancing it
only as far as it reads. The full maps, :meth:`Datagraph.hop_distances` and
:meth:`Datagraph.geodesic_distances`, drain it, so their keys come out in
visit order. :meth:`Datagraph.shortest_path` stops once every node no
farther than its start has settled, and :meth:`Datagraph.nearest` once it
passes its first target; the ground-truth oracle and a traversal's hit
distances read the latter. :func:`by_metric` is the one check of a metric
name.
"""

from __future__ import annotations

import gc
import hashlib
import math
import numbers
from bisect import bisect_left
from contextlib import contextmanager
from collections import deque
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from heapq import heappop, heappush

from . import output
from .errors import GraphParseError, GraphValidationError, MissingNodeError

NodeId = int

_QUAT_NORM_TOL = 1e-9


class _KindError(ValueError):
    """A field holds the wrong kind of value: a string where a number belongs,
    a bool where an id belongs, a number too large for a float.

    It is a ``ValueError``, so code that builds records sees one. The world
    loader turns it into a :class:`GraphParseError`, and any other
    ``ValueError`` (a bad value of the right kind) into a violation.
    """


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector while a bulk builder runs.

    Generating or loading a world allocates tens of thousands of containers
    that form no cycles, so the collections those allocations set off free
    nothing, yet each full one walks every live object. The builders run
    with the collector off and turn it back on when they return or raise.
    If it is already off (the caller's choice, or an outer builder's pause)
    this does nothing, so nested builders pause once. The pause is
    process-wide: other threads' cyclic garbage waits until the build ends.

    ``run_compare`` runs whole under the pause, so its worlds, loaded or
    generated, are freed by reference counting before any collection walks
    them. That holds back no garbage that grows with the run: a remote call
    that times out leaves no reference cycles, since the remote backend
    reads each answer with its own reader, and a run's own cycles (its
    reports' JSON encoder) are as many for one trial as for many.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# The field checks: the record constructors and both loaders call these, so
# each check is written once. Each returns the checked value. A wrong kind of
# value raises _KindError, a bad value of the right kind ValueError.


def _is_integer(value) -> bool:
    """An int or other integral number, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_id(value, what: str) -> int:
    """An integer id as an int, which a document can hold; its range is the caller's business."""
    if type(value) is int:  # the common case, without the ABC check
        return value
    if not _is_integer(value):
        raise _KindError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise _KindError(f"{what} must be a boolean, got {value!r}")
    return value


def _check_label(value, what: str) -> str:
    if not isinstance(value, str):
        raise _KindError(f"{what} must be a string, got {value!r}")
    if not value:
        raise ValueError(f"{what} must be non-empty")
    return value


_NO_ATTRIBUTES: dict[str, str] = {}  # a default argument, never stored: the check copies it


def _check_attributes(value) -> dict[str, str]:
    """A copy of a str -> str mapping."""
    if not isinstance(value, dict):
        raise _KindError(f"attributes must map str to str, got {value!r}")
    for key, item in value.items():
        if not isinstance(key, str) or not isinstance(item, str):
            raise _KindError(f"attributes must map str to str, got {key!r}: {item!r}")
    return dict(value)


def _as_float(value, what: str) -> float:
    """A real number (not a bool or a string) as a float."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _KindError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _KindError(f"{what} is too large for a float") from None


def _as_floats(values, count: int, what: str) -> tuple[float, ...]:
    """A sequence of ``count`` numbers (see :func:`_as_float`) as a tuple of floats."""
    try:
        items = () if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        items = ()
    if len(items) != count:
        raise _KindError(f"{what} must be a sequence of {count} numbers, got {values!r}")
    return tuple([_as_float(c, f"{what} component") for c in items])


def _as_vec3(values, what: str) -> tuple[float, float, float]:
    """Three finite floats (see :func:`_as_floats`)."""
    try:
        x, y, z = values
    except (TypeError, ValueError):
        x = None
    if not (type(x) is float and type(y) is float and type(z) is float):  # else the fast path
        x, y, z = _as_floats(values, 3, what)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"{what} components must be finite, got {(x, y, z)}")
    return (x, y, z)


def _named_fields(record, doc: dict) -> dict:
    """The fields of the dataclass ``record`` that ``doc`` names, as keyword
    arguments: a field the document leaves out takes its default, which is
    written only on the dataclass, and a required one is a KeyError naming it."""
    named = {}
    for f in fields(record):
        if f.name in doc:
            named[f.name] = doc[f.name]
        elif f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(f.name)
    return named


# Each record sets each field once, in its own __init__: a generated __init__
# plus a __post_init__ would set checked or converted fields twice, and
# loading or generating a world builds thousands of records. World
# generation computes fields that are right by construction from a spec
# checked once, so it builds scene objects, ground-truth instances and poses
# through their unchecked ``_of``, which sets each field once and checks none.
# Both set the fields through the records' slot setters (:func:`_slot_setters`).


def _refuse_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record(cls):
    """``cls`` as a frozen, slotted dataclass with its own ``__init__``, on
    which every attribute set or delete raises ``FrozenInstanceError``.

    The ``__setattr__`` and ``__delattr__`` that ``dataclass(frozen=True,
    slots=True)`` writes call ``super()`` with the class that the slotted one
    replaced, so on CPython 3.11 setting a name that is not a field raised
    ``TypeError``; these two are assigned once the class exists.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    return cls


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot on a frozen, slotted record, in field order.

    They write past the frozen ``__setattr__`` as ``object.__setattr__`` does,
    at about 60 ns a field against its 100 ns (CPython 3.11), and generating
    a 32x32 world sets about 32,000 fields.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@_record
class Pose:
    """A position in meters with an optional unit-quaternion orientation.

    Orientation is stored for payload forwarding but never affects distance
    computations; when absent it is treated as identity.
    """

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float] | None

    def __init__(self, position, orientation=None):
        set_position, set_orientation = _POSE_SETTERS
        set_position(self, _as_vec3(position, "position"))
        if orientation is not None:
            orientation = _as_floats(orientation, 4, "orientation")
            norm = math.sqrt(sum(c * c for c in orientation))
            if not math.isfinite(norm) or abs(norm - 1.0) > _QUAT_NORM_TOL:
                raise ValueError(f"quaternion norm {norm!r} is not within {_QUAT_NORM_TOL} of 1")
        set_orientation(self, orientation)

    @classmethod
    def _of(cls, position: tuple[float, float, float]) -> Pose:
        """The unoriented pose at ``position``, three finite floats, unchecked."""
        pose = object.__new__(cls)
        set_position, set_orientation = _POSE_SETTERS
        set_position(pose, position)
        set_orientation(pose, None)
        return pose


@_record
class SceneObject:
    """An annotated object observed in a scene.

    ``instance_id`` exists for ground-truth bookkeeping only; backends that
    emulate a multimodal model must never consult it when answering.
    Detections reported by remote backends carry ``instance_id=-1`` and no
    world position.
    """

    label: str
    attributes: dict[str, str]
    world_position: tuple[float, float, float] | None
    instance_id: int

    def __init__(self, label, attributes=_NO_ATTRIBUTES, world_position=None, instance_id=-1):
        set_label, set_attributes, set_position, set_id = _OBJECT_SETTERS
        set_label(self, _check_label(label, "object label"))
        set_attributes(self, _check_attributes(attributes))
        if world_position is not None:
            world_position = _as_vec3(world_position, "world_position")
        set_position(self, world_position)
        set_id(self, _check_id(instance_id, "instance_id"))

    @classmethod
    def _of(cls, label: str, attributes: dict[str, str], world_position, instance_id: int) -> SceneObject:
        """The object of fields that ``__init__`` would store unchanged, unchecked.

        It keeps ``attributes`` itself, not a copy, so the caller hands over a
        dict that no other object holds.
        """
        obj = object.__new__(cls)
        set_label, set_attributes, set_position, set_id = _OBJECT_SETTERS
        set_label(obj, label)
        set_attributes(obj, attributes)
        set_position(obj, world_position)
        set_id(obj, instance_id)
        return obj

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "attributes": dict(self.attributes),
            "world_position": list(self.world_position) if self.world_position else None,
            "instance_id": self.instance_id,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> SceneObject:
        """The object a document holds, with its own copy of the attributes.

        An object that names each field, with a non-empty str label, a dict
        of str to str, three finite floats and an int id, is built unchecked;
        any other is read through ``__init__``, whose messages the loaders give.
        """
        try:
            label, attributes, instance_id = doc["label"], doc["attributes"], doc["instance_id"]
            x, y, z = doc["world_position"]
        except (KeyError, TypeError, ValueError):  # a field left out, null or of another kind
            pass
        else:
            # These tests are written out here, in the node loop of
            # Datagraph.from_json_dict and in GroundTruthInstance.from_json_dict
            # rather than shared through a helper: a call per record cost about
            # what the tests save. Three floats sum to a finite float only if
            # each is finite; a sum that overflows sends the object to the
            # checks, which accept it
            if (type(label) is str and label and type(attributes) is dict and type(instance_id) is int
                    and type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z)):
                for key in attributes:
                    if type(key) is not str or type(attributes[key]) is not str:
                        break
                else:
                    return cls._of(label, attributes.copy(), (x, y, z), instance_id)
        if not isinstance(doc, dict):
            raise _KindError(f"object must be a JSON object, got {doc!r}")
        return cls(
            doc["label"], doc.get("attributes", {}), doc.get("world_position"), doc.get("instance_id", -1)
        )


@_record
class Snapshot:
    """The per-node scene record: annotated objects plus an opaque payload ref.

    ``payload_ref`` points at external scene data (a mesh, pointcloud, image
    set, ...). This library never dereferences it; it is only forwarded to
    remote backends. ``digest`` names the scene's content for stored answers.
    """

    objects: tuple[SceneObject, ...]
    payload_ref: str | None
    _digest: str | None = field(init=False, repr=False, compare=False)

    def __init__(self, objects=(), payload_ref=None):
        if payload_ref is not None and not isinstance(payload_ref, str):
            raise _KindError(f"payload_ref must be a string, got {payload_ref!r}")
        set_objects, set_payload_ref, set_digest = _SNAPSHOT_SETTERS
        set_objects(self, tuple(objects))
        set_payload_ref(self, payload_ref)
        set_digest(self, None)

    @property
    def digest(self) -> str:
        """16 hex digits of SHA-256 over the saved text, computed on first use."""
        if self._digest is None:
            _SNAPSHOT_SETTERS[2](self, hashlib.sha256(_snapshot_text(self).encode()).hexdigest()[:16])
        return self._digest


@_record
class Node:
    id: NodeId
    pose: Pose
    snapshot: Snapshot

    def __init__(self, id, pose, snapshot):
        set_id, set_pose, set_snapshot = _NODE_SETTERS
        set_id(self, id)
        set_pose(self, pose)
        set_snapshot(self, snapshot)


@_record
class Edge:
    """Undirected edge between neighboring areas; ``a < b`` once stored."""

    a: NodeId
    b: NodeId
    traversable: bool
    length_m: float

    def __init__(self, a, b, traversable=True, length_m=1.0):
        set_a, set_b, set_traversable, set_length = _EDGE_SETTERS
        set_a(self, a)
        set_b(self, b)
        set_traversable(self, traversable)
        set_length(self, length_m)


_POSE_SETTERS = _slot_setters(Pose)
_OBJECT_SETTERS = _slot_setters(SceneObject)
_SNAPSHOT_SETTERS = _slot_setters(Snapshot)
_NODE_SETTERS = _slot_setters(Node)
_EDGE_SETTERS = _slot_setters(Edge)


@dataclass(frozen=True)
class Violation:
    """One failed structural invariant, naming the offending ids."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def _edge_fields(i: int, a, b, traversable, length_m) -> tuple[NodeId, NodeId, bool, float]:
    """The fields of ``edges[i]`` checked for kind: two int ids, a bool and a float length."""
    try:
        return (_check_id(a, "a"), _check_id(b, "b"), _check_bool(traversable, "traversable"),
                _as_float(length_m, "length_m"))
    except _KindError as exc:
        raise _KindError(f"edges[{i}]: {exc}") from None


# The records of a saved graph document, as output.save_document takes them.


def _object_text(obj: SceneObject, pad: str) -> str:
    """``obj.to_json_dict()`` as ``json.dumps(indent=2)`` writes it in a
    document, opened on a line indented by ``pad``; replay stores use it too."""
    inner = ",\n" + pad + "  "
    position = obj.world_position
    return (
        "{\n" + pad + '  "label": ' + output.string(obj.label)
        + inner + '"attributes": ' + output.mapping(obj.attributes, pad + "  ")
        + inner + '"world_position": ' + (output.floats(position, pad + "  ") if position else "null")
        + inner + '"instance_id": ' + output.atom(obj.instance_id)
        + "\n" + pad + "}"
    )


def _snapshot_text(snapshot: Snapshot) -> str:
    """The snapshot as its node's saved record holds it; its digest hashes this."""
    objects = output.array([_object_text(obj, "          ") for obj in snapshot.objects], "        ")
    if snapshot.payload_ref is not None:
        objects += ',\n        "payload_ref": ' + output.string(snapshot.payload_ref)
    return '{\n        "objects": ' + objects + "\n      }"


def _node_text(node: Node) -> str:
    pose = node.pose
    pose_text = '"position": ' + output.floats(pose.position, "        ")
    if pose.orientation is not None:
        pose_text += ',\n        "orientation": ' + output.floats(pose.orientation, "        ")
    return (
        '{\n      "id": ' + output.atom(node.id)
        + ',\n      "pose": {\n        ' + pose_text
        + '\n      },\n      "snapshot": ' + _snapshot_text(node.snapshot) + "\n    }"
    )


def _edge_text(row: tuple[NodeId, NodeId, bool, float]) -> str:
    """An edge's saved record, from its ``(a, b, traversable, length_m)``."""
    a, b, traversable, length_m = row
    return (
        '{\n      "a": ' + output.atom(a) + ',\n      "b": ' + output.atom(b)
        + ',\n      "traversable": ' + output.atom(traversable)
        + ',\n      "length_m": ' + float.__repr__(length_m) + "\n    }"
    )


def by_metric(metric: str, hops, meters):
    """``hops`` or ``meters``, as ``metric`` names; any other metric is a ``ValueError``."""
    if metric == "hops":
        return hops
    if metric == "meters":
        return meters
    raise ValueError(f"metric must be 'hops' or 'meters', got {metric!r}")


class Datagraph:
    """An immutable graph of (pose, snapshot) nodes, built whole.

    Node ids are dense: node ``i`` is the ``i``-th record. Edges are stored
    as each node's neighbor ids (``_ids``) and ``(neighbor, length_m)`` pairs
    (``_pairs``), both sorted ascending by neighbor id, which anchors the
    deterministic tie-breaking of traversals; ``_open_ids`` and
    ``_open_pairs`` keep only the traversable edges, and ``_closed`` holds
    the ``(a, b)``, ``a < b``, of the others.
    """

    def __init__(self, nodes, edges) -> None:
        """The graph of ``nodes``, :class:`Node` records in id order, joined by
        ``edges``, ``(a, b, traversable, length_m)`` tuples in any order and
        either way round; each edge is read and checked once.

        An edge field of the wrong kind (an id that is not an integer, a
        ``traversable`` that is not a bool, a length that is not a real
        number) is a ``ValueError`` naming its ``edges[i]``. Any other fault
        raises :class:`GraphValidationError` listing the violations: nodes out
        of id order, then repeated pairs, then each new edge's self-loop,
        missing endpoint and (if both ends exist) length, in input order.
        """
        nodes = tuple(nodes)
        n = len(nodes)
        violations = [
            Violation("node-id-density", f"nodes[{i}] has id {node.id}, expected {i}")
            for i, node in enumerate(nodes) if node.id != i
        ]
        faults: list[Violation] = []
        kept: dict[tuple[NodeId, NodeId], float] = {}
        closed: set[tuple[NodeId, NodeId]] = set()
        for i, (a, b, traversable, length_m) in enumerate(edges):
            if not (type(a) is int and type(b) is int and type(traversable) is bool
                    and type(length_m) is float):  # the common kinds skip the checks
                a, b, traversable, length_m = _edge_fields(i, a, b, traversable, length_m)
            key = (a, b) if a < b else (b, a)
            if key in kept:
                violations.append(Violation("duplicate-edge", f"edges[{i}] repeats pair {key}"))
                continue
            a, b = key
            if a == b:
                faults.append(Violation("self-loop", f"edge on node {a}"))
            if not (0 <= a < n and 0 <= b < n):
                faults.append(Violation("edge-endpoint", f"edge {{{a}, {b}}} endpoint missing"))
            elif not 0.0 < length_m < math.inf:  # also false for NaN
                faults.append(Violation("edge-length", f"edge {{{a}, {b}}} has length {length_m!r}"))
            kept[key] = length_m
            if not traversable:
                closed.add(key)
        violations += faults
        if violations:
            raise GraphValidationError(violations)
        pairs: list = [[] for _ in range(n)]
        for key in sorted(kept):  # appended in (a, b) order, every list comes out ascending
            a, b = key
            length_m = kept[key]
            pairs[a].append((b, length_m))
            pairs[b].append((a, length_m))
        del kept  # before the tuples below exist, which lowers the peak
        # tuples hold their entries inline, so the kernels sweep them faster
        self._nodes = nodes
        self._pairs = tuple(map(tuple, pairs))
        self._ids = tuple(tuple([w for w, _ in entries]) for entries in self._pairs)
        self._closed = frozenset(closed)
        self._open_pairs, self._open_ids = self._pairs, self._ids
        if closed:
            self._open_pairs = tuple(
                tuple([(w, length_m) for w, length_m in entries if ((v, w) if v < w else (w, v)) not in closed])
                for v, entries in enumerate(self._pairs)
            )
            self._open_ids = tuple(tuple([w for w, _ in entries]) for entries in self._open_pairs)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datagraph):
            return NotImplemented
        return (self._nodes, self._pairs, self._closed) == (other._nodes, other._pairs, other._closed)

    def __repr__(self) -> str:
        return f"Datagraph(nodes={len(self._nodes)}, edges={self.edge_count})"

    def node(self, v: NodeId) -> Node:
        self._check_node(v)
        return self._nodes[v]

    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._ids)) // 2

    def edge_length(self, a: NodeId, b: NodeId) -> float | None:
        """The length in meters of the edge joining ``a`` and ``b``, or None
        if they are not adjacent."""
        self._check_node(a)
        self._check_node(b)
        ids = self._ids[a]
        i = bisect_left(ids, b)
        return self._pairs[a][i][1] if i < len(ids) and ids[i] == b else None

    def edges(self) -> tuple[Edge, ...]:
        """All edges, sorted by (a, b), as records built on each call: two
        calls return equal records, not the same objects."""
        return tuple([Edge(a, b, traversable, length_m) for a, b, traversable, length_m in self._edge_rows()])

    # -- distances & paths ------------------------------------------------------

    def hop_distances(self, source: NodeId, traversable_only: bool = False) -> dict[NodeId, int]:
        """Minimum edge counts from ``source``; unreachable nodes are absent.

        The hop kernel drained: the keys come out in visit order, by hops,
        then by ascending id.
        """
        return self._drained("hops", source, traversable_only)

    def geodesic_distances(
        self, source: NodeId, traversable_only: bool = False
    ) -> dict[NodeId, float]:
        """Shortest path lengths in meters; unreachable nodes are absent.

        The meter kernel drained: the keys come out in visit order, the
        heap's ``(meters, id)`` pop order. That is by meters, then by
        ascending id, except that a node tying its own predecessor (through
        an edge too short to change the float sum) comes after it. Meters
        are float sums along each path, so two nodes tie only when their
        sums are equal floats (0.1 + 0.2 is not 0.3).
        """
        return self._drained("meters", source, traversable_only)

    def shortest_path(
        self,
        a: NodeId,
        b: NodeId,
        metric: str = "hops",
        traversable_only: bool = False,
    ) -> list[NodeId] | None:
        """Minimal path from ``a`` to ``b`` under the chosen metric, or None.

        Among equally short paths the lexicographically smallest node-id
        sequence is returned. ``metric`` is ``"hops"`` or ``"meters"``. The
        search runs from ``b`` only until every node no farther than ``a``
        has settled, which is every node the descent can step to.
        """
        self._check_node(a)
        dist_to_goal, frontier = self._frontier(metric, b, traversable_only)
        if a not in dist_to_goal:
            for _ in frontier:
                if a in dist_to_goal:
                    break
            else:
                return None
        limit = dist_to_goal[a]
        if metric == "meters":
            # A node that ties a can settle after it (a larger id, or reached
            # through another tie), and is a step down from a when their edge
            # is too short to change a's float sum. A hop level settles whole.
            for d, _ in frontier:
                if d > limit:
                    break
        # Greedy descent toward the goal: among neighbors still on a shortest
        # path, the smallest id yields the lexicographically smallest sequence.
        # A neighbor that has not settled is farther than the node it leaves.
        # Two nodes that an edge too short for their float sums joins are each
        # a step from the other, so the descent never steps back onto its own
        # path, and backs up out of such a tie when it leads nowhere.
        adj, hops = (self._open_pairs if traversable_only else self._pairs), metric == "hops"
        on_path = {a}

        def steps(v):
            target = dist_to_goal[v]
            for w, length_m in adj[v]:
                step = 1 if hops else length_m
                if w in dist_to_goal and w not in on_path and dist_to_goal[w] + step == target:
                    yield w

        path = [a]
        options = [steps(a)]
        while path[-1] != b:
            w = next(options[-1], None)
            if w is None:
                on_path.discard(path.pop())
                options.pop()
            else:
                path.append(w)
                on_path.add(w)
                options.append(steps(w))
        return path

    def nearest(
        self, source: NodeId, targets, metric: str = "hops"
    ) -> tuple[NodeId, int | float] | None:
        """The target nearest ``source`` under ``metric`` as ``(node, distance)``,
        ties going to the smallest id, or None if no target is reachable.

        ``targets`` is any container of node ids; a set keeps each test O(1).
        The search settles nodes nearest first and stops once it passes the
        first target's distance, since by meters a target that ties it can
        settle after it. An unknown ``source`` or ``metric`` is refused even
        when ``targets`` is empty.
        """
        _, frontier = self._frontier(metric, source)
        hops = metric == "hops"
        best = None
        if targets:
            for d, settled in frontier:  # (hops, level) or (meters, node)
                if best is not None and d > best[0]:
                    break
                for v in settled if hops else (settled,):
                    if v in targets and (best is None or (d, v) < best):
                        best = (d, v)
        return None if best is None else (best[1], best[0])

    # -- the frontier kernels ---------------------------------------------------

    def _frontier(self, metric: str, source: NodeId, traversable_only: bool = False):
        """A resumable search from ``source``: ``(dist, kernel)``.

        ``dist`` gains each node's distance under ``metric`` when the kernel,
        a generator, settles it, nearest first. Advance the kernel only as
        far as the caller reads, or drain it for the full map.
        """
        self._check_node(source)
        kernel = by_metric(metric, self._hop_kernel, self._meter_kernel)
        dist: dict[NodeId, float] = {}
        return dist, kernel(source, traversable_only, dist)

    def _drained(self, metric: str, source: NodeId, traversable_only: bool) -> dict:
        dist, frontier = self._frontier(metric, source, traversable_only)
        deque(frontier, maxlen=0)
        return dist

    def _hop_kernel(self, source: NodeId, traversable_only: bool, dist: dict[NodeId, int]):
        """Level-synchronous BFS: settles one hop level into ``dist`` per step,
        sorted by id, and yields ``(hops, level)``; ``source`` is level 0."""
        adj = self._open_ids if traversable_only else self._ids
        seen = [False] * len(adj)  # faster to index than a set or a bytearray
        seen[source] = True
        dist[source] = 0
        level = [source]
        hops = 0
        while level:
            yield hops, level
            hops += 1
            frontier = []
            for v in level:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        frontier.append(w)
            frontier.sort()
            dist.update(dict.fromkeys(frontier, hops))
            level = frontier

    def _meter_kernel(self, source: NodeId, traversable_only: bool, dist: dict[NodeId, float]):
        """Dijkstra: settles one node into ``dist`` per step, when the heap
        first pops its ``(meters, id)``, and yields that pair."""
        adj = self._open_pairs if traversable_only else self._pairs
        best: dict[NodeId, float] = {source: 0.0}
        heap: list[tuple[float, NodeId]] = [(0.0, source)]
        while heap:
            settled = heappop(heap)
            d, v = settled
            if v in dist:
                continue
            dist[v] = d
            yield settled
            for w, length_m in adj[v]:
                if w in dist:
                    continue
                nd = d + length_m
                if w not in best or nd < best[w]:
                    best[w] = nd
                    heappush(heap, (nd, w))

    # -- validation -----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """The violations of the stored graph; an empty list means well-formed.

        Violations are data, not errors. The constructor refuses every
        violation, so a graph passes unless something wrote into its private
        tuples. This rebuilds the graph through the constructor from the
        stored edge rows and returns the constructor's violations, or else
        one ``adjacency`` violation if the rebuilt adjacency, traversable
        views or closed set differ from the stored ones.
        """
        try:
            rebuilt = Datagraph(self._nodes, self._edge_rows())
        except GraphValidationError as exc:
            return exc.violations
        for name in ("_pairs", "_ids", "_open_pairs", "_open_ids", "_closed"):
            if getattr(rebuilt, name) != getattr(self, name):
                return [Violation("adjacency", f"{name} differs from the graph its edge rows build")]
        return []

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
            {"a": a, "b": b, "traversable": traversable, "length_m": length_m}
            for a, b, traversable, length_m in self._edge_rows()
        ]
        return {"format_version": 1, "nodes": nodes, "edges": edges}

    def save(self, destination) -> None:
        """Write the graph document to a path.

        The file holds ``json.dumps(self.to_json_dict(), indent=2)`` plus a
        newline, written one node and one edge at a time, and it replaces
        ``destination`` atomically (:func:`output.save_document`). A path that
        cannot be written is an :class:`OutputError`.
        """
        output.save_document(destination, 1, [
            ("nodes", "[]", map(_node_text, self._nodes)),
            ("edges", "[]", map(_edge_text, self._edge_rows())),
        ])

    @classmethod
    def from_json_dict(cls, doc) -> Datagraph:
        """Rebuild a graph from its document form.

        Each field is checked once, where it is parsed. Shape and type
        problems (a missing field, a string where a number belongs, a number
        too large for a float) raise :class:`GraphParseError` naming the
        offending ``nodes[i]`` or ``edges[i]``; structural problems raise
        :class:`GraphValidationError` listing violations.
        """
        output.check_version(doc, 1, "world")
        raw_nodes = doc.get("nodes")
        raw_edges = doc.get("edges")
        if not isinstance(raw_nodes, list):
            raise GraphParseError("nodes: expected an array")
        if not isinstance(raw_edges, list):
            raise GraphParseError("edges: expected an array")

        nodes: list[Node] = []
        for i, node_doc in enumerate(raw_nodes):
            pose = None
            try:  # a node of the common kinds: an int id, three finite floats, objects and nothing else
                node_id, pose_doc, snap_doc = node_doc["id"], node_doc["pose"], node_doc["snapshot"]
                x, y, z = pose_doc["position"]
                raw_objects, payload_ref = snap_doc["objects"], None
            except (KeyError, TypeError, ValueError):
                pass
            else:
                if (type(node_id) is int and type(x) is float and type(y) is float and type(z) is float
                        and math.isfinite(x + y + z) and type(raw_objects) is list and len(pose_doc) == 1
                        and len(snap_doc) == 1):
                    pose = Pose._of((x, y, z))
            if pose is None:  # any other node: every check in document order, with its message
                if not isinstance(node_doc, dict):
                    raise GraphParseError(f"nodes[{i}]: expected an object")
                pose_doc = node_doc.get("pose")
                snap_doc = node_doc.get("snapshot")
                if not isinstance(pose_doc, dict):
                    raise GraphParseError(f"nodes[{i}].pose: expected an object")
                if not isinstance(snap_doc, dict):
                    raise GraphParseError(f"nodes[{i}].snapshot: expected an object")
                raw_objects = snap_doc.get("objects", [])
                if not isinstance(raw_objects, list):
                    raise GraphParseError(f"nodes[{i}].snapshot.objects: expected an array")
                payload_ref = snap_doc.get("payload_ref")
            try:
                if pose is None:
                    node_id = _check_id(node_doc.get("id"), "id")
                    pose = Pose(pose_doc.get("position"), pose_doc.get("orientation"))
                objects = tuple(map(SceneObject.from_json_dict, raw_objects))
                snapshot = Snapshot(objects, payload_ref)
            except KeyError as exc:
                raise GraphParseError(f"nodes[{i}]: object missing field {exc}") from exc
            except _KindError as exc:
                raise GraphParseError(f"nodes[{i}]: {exc}") from exc
            except ValueError as exc:
                raise GraphValidationError([Violation("node-data", f"nodes[{i}]: {exc}")]) from exc
            nodes.append(Node(node_id, pose, snapshot))

        def edge_tuples():
            for i, edge_doc in enumerate(raw_edges):
                if not isinstance(edge_doc, dict):
                    raise GraphParseError(f"edges[{i}]: expected an object")
                try:
                    fields = edge_doc["a"], edge_doc["b"], edge_doc["traversable"], edge_doc["length_m"]
                except KeyError as exc:
                    raise GraphParseError(f"edges[{i}]: missing field {exc}") from exc
                yield fields

        # the constructor reads the edges one at a time, so the first parse
        # fault in document order wins over every violation
        try:
            return cls(nodes, edge_tuples())
        except _KindError as exc:
            raise GraphParseError(str(exc)) from exc

    @classmethod
    @_collector_paused()
    def load(cls, source) -> Datagraph:
        """Read a graph document from a path (:func:`output.read_document`)."""
        return cls.from_json_dict(output.read_document(source, GraphParseError, 1))

    # -- internals -----------------------------------------------------------

    def _edge_rows(self):
        """Each edge as ``(a, b, traversable, length_m)``, sorted by (a, b)."""
        closed = self._closed
        return (
            (a, b, (a, b) not in closed, length_m)
            for a, entries in enumerate(self._pairs) for b, length_m in entries if a < b
        )

    def _check_node(self, v: NodeId) -> None:
        if type(v) is int and 0 <= v < len(self._nodes):
            return  # the common case, without the numbers.Integral ABC check
        if not (_is_integer(v) and 0 <= v < len(self._nodes)):
            raise MissingNodeError(v)

