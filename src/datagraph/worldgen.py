"""Seeded synthetic multi-room worlds with ground truth and task generators.

Worlds are grids of square rooms, one graph node per room at its center.
A random spanning tree keeps every world connected; remaining interior
walls get a door (an edge) with ``door_prob``. Objects are sprinkled
uniformly inside rooms with Poisson counts, and objects near a shared wall
can be duplicated into the neighboring room's snapshot to reproduce the
boundary double-detection problem. Everything is a pure function of the
spec (seed included): regenerating yields byte-identical worlds.

The task makers (nearest-object search, door-number/keyfob matching) turn a
world and a seed into a :class:`TaskSpec`: where the agent stands and what
it asks. ``ground_truth_nearest`` is the independent oracle the harness
scores traversals with; it deliberately uses only ground truth plus
single-source distances, never the traversal module.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import output
from .backends import Predicate, Query, _matching
from .errors import GraphParseError, TaskUnavailableError, WorldSpecError
from .graph import (
    Datagraph,
    Node,
    NodeId,
    Pose,
    SceneObject,
    Snapshot,
    _as_float,
    _as_vec3,
    _check_attributes,
    _check_id,
    _check_label,
    _collector_paused,
    _is_integer,
    _KindError,
    _named_fields,
    _record,
    _slot_setters,
)

BOUNDARY_BAND_M = 0.5  # how close to a shared wall an object must be to be duplicated
# the most rooms a spec may name: generating 10**5 rooms peaks near 270 MB,
# so 10**7 already needs some 27 GB
MAX_ROOMS = 10**7
# the most objects a spec may expect, its rooms times objects_per_room_mean:
# the default mean over MAX_ROOMS rooms. A larger mean draws objects for ever,
# or passes numpy's Poisson limit (about 9.2e18) and fails there
MAX_OBJECTS = 2 * MAX_ROOMS

_ATTR_KINDS = ("const", "choice", "number_pool", "number_of")


def _check_number(value, what: str) -> None:
    """A real number within float range, not a bool or a string; the value
    itself is kept as given, so an int stays an int in saved specs."""
    try:
        _as_float(value, what)
    except _KindError as exc:
        raise WorldSpecError(str(exc)) from None


@dataclass(frozen=True)
class CatalogEntry:
    """One placeable object kind.

    ``attributes`` maps attribute name to a generator descriptor:
      - ``{"kind": "const", "value": "true"}`` fixed value
      - ``{"kind": "choice", "values": [...]}`` uniform pick per instance
      - ``{"kind": "number_pool"}`` unique numbers drawn without replacement
        from 1..10*instances of this label
      - ``{"kind": "number_of", "label": "keyfob"}`` copy the same-named
        attribute from a random instance of another label (doors are keyed
        to keyfobs this way)
    """

    label: str
    attributes: dict[str, dict] = field(default_factory=dict)
    weight: float = 1.0

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise WorldSpecError(f"catalog label must be a non-empty string, got {self.label!r}")
        _check_number(self.weight, f"catalog weight for {self.label!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise WorldSpecError(f"catalog weight for {self.label!r} must be >= 0")
        if not isinstance(self.attributes, Mapping):
            raise WorldSpecError(
                f"attributes of {self.label!r} must be an object, got {self.attributes!r}"
            )
        for name, desc in self.attributes.items():
            if not isinstance(desc, Mapping):
                raise WorldSpecError(
                    f"attribute {name!r} of {self.label!r} must be an object, got {desc!r}"
                )
        attrs = {str(k): dict(v) for k, v in self.attributes.items()}
        for name, desc in attrs.items():
            kind = desc.get("kind")
            if kind not in _ATTR_KINDS:
                raise WorldSpecError(
                    f"attribute {name!r} of {self.label!r}: unknown generator kind {kind!r}"
                )
            if kind == "const" and not isinstance(desc.get("value"), str):
                raise WorldSpecError(f"attribute {name!r} of {self.label!r}: const needs a 'value'")
            if kind == "choice":
                values = desc.get("values")
                if not isinstance(values, (list, tuple)) or not values:
                    raise WorldSpecError(
                        f"attribute {name!r} of {self.label!r}: choice needs non-empty 'values'"
                    )
                desc["values"] = [str(v) for v in values]
            if kind == "number_of" and not desc.get("label"):
                raise WorldSpecError(
                    f"attribute {name!r} of {self.label!r}: number_of needs a source 'label'"
                )
        object.__setattr__(self, "attributes", attrs)

    def to_json_dict(self) -> dict:
        return {"label": self.label, "attributes": self.attributes, "weight": self.weight}

    @classmethod
    def from_json_dict(cls, doc: dict) -> CatalogEntry:
        if not isinstance(doc, dict):
            raise WorldSpecError(f"catalog entry must be an object, got {doc!r}")
        return cls(**_named_fields(cls, doc))


def default_catalog() -> tuple[CatalogEntry, ...]:
    """Desk-scale object kinds covering search, hazard, and keyfob tasks."""
    return (
        CatalogEntry("extinguisher", {}, 1.0),
        CatalogEntry("chair", {"color": {"kind": "choice", "values": ["red", "green", "blue", "yellow"]}}, 1.5),
        CatalogEntry("crate", {}, 1.0),
        CatalogEntry("keyfob", {"number": {"kind": "number_pool"}}, 0.8),
        CatalogEntry("door", {"number": {"kind": "number_of", "label": "keyfob"}}, 0.8),
        CatalogEntry("gas_canister", {"hazard": {"kind": "const", "value": "true"}}, 0.5),
    )


@dataclass(frozen=True)
class WorldSpec:
    """Everything that determines a generated world, seed included."""

    grid_w: int
    grid_h: int
    room_size_m: float = 6.0
    door_prob: float = 0.35
    catalog: tuple[CatalogEntry, ...] = field(default_factory=default_catalog)
    objects_per_room_mean: float = 2.0
    boundary_duplicate_prob: float = 0.0
    seed: int = 0
    # distinct same-label instances are kept at least this far apart, so
    # dedup at radii below it can recover exact ground-truth counts
    min_label_separation_m: float = 1.1

    def __post_init__(self):
        for name in ("grid_w", "grid_h"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise WorldSpecError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("room_size_m", "door_prob", "objects_per_room_mean",
                     "boundary_duplicate_prob", "min_label_separation_m"):
            _check_number(getattr(self, name), name)
        # a subnormal size rounds neighboring room centers to one float
        if not (math.isfinite(self.room_size_m) and self.room_size_m >= sys.float_info.min):
            raise WorldSpecError(
                f"room_size_m must be positive and at least {sys.float_info.min!r}, "
                f"got {self.room_size_m!r}"
            )
        try:  # every generated coordinate lies within the grid's extent
            extent_finite = math.isfinite(max(self.grid_w, self.grid_h) * self.room_size_m)
        except OverflowError:  # an int too large for a float
            extent_finite = False
        if not extent_finite:
            raise WorldSpecError(
                f"grid_w and grid_h times room_size_m must be finite, got "
                f"{self.grid_w} x {self.grid_h} rooms of {self.room_size_m!r} m"
            )
        if self.grid_w * self.grid_h > MAX_ROOMS:
            raise WorldSpecError(
                f"a world holds at most {MAX_ROOMS} rooms, got {self.grid_w} x {self.grid_h} "
                f"= {self.grid_w * self.grid_h}"
            )
        for name in ("door_prob", "boundary_duplicate_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise WorldSpecError(f"{name} must be in [0, 1], got {value!r}")
        if not (math.isfinite(self.objects_per_room_mean) and self.objects_per_room_mean >= 0):
            raise WorldSpecError("objects_per_room_mean must be non-negative")
        if self.grid_w * self.grid_h * self.objects_per_room_mean > MAX_OBJECTS:
            raise WorldSpecError(
                f"a world holds at most {MAX_OBJECTS} objects, but objects_per_room_mean "
                f"{self.objects_per_room_mean!r} over {self.grid_w * self.grid_h} rooms expects more"
            )
        if not _is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise WorldSpecError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if not (math.isfinite(self.min_label_separation_m) and self.min_label_separation_m >= 0):
            raise WorldSpecError(
                f"min_label_separation_m must be finite and non-negative, "
                f"got {self.min_label_separation_m!r}"
            )
        catalog = tuple(self.catalog)
        object.__setattr__(self, "catalog", catalog)
        if self.objects_per_room_mean > 0:
            if not catalog or all(entry.weight == 0 for entry in catalog):
                raise WorldSpecError(
                    "objects_per_room_mean > 0 needs a catalog with a positive weight"
                )
            if not math.isfinite(sum(entry.weight for entry in catalog)):
                raise WorldSpecError("catalog weights must have a finite sum")

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "grid_w": self.grid_w,
            "grid_h": self.grid_h,
            "room_size_m": self.room_size_m,
            "door_prob": self.door_prob,
            "catalog": [entry.to_json_dict() for entry in self.catalog],
            "objects_per_room_mean": self.objects_per_room_mean,
            "boundary_duplicate_prob": self.boundary_duplicate_prob,
            "seed": self.seed,
            "min_label_separation_m": self.min_label_separation_m,
        }

    def save(self, destination) -> None:
        output.write_output(destination, [json.dumps(self.to_json_dict(), indent=2) + "\n"])

    @classmethod
    def from_json_dict(cls, doc: dict) -> WorldSpec:
        output.check_version(doc, 1, "world spec", WorldSpecError)
        if "catalog" in doc and not isinstance(doc["catalog"], list):
            raise WorldSpecError(f"catalog must be an array of entries, got {doc['catalog']!r}")
        try:
            named = _named_fields(cls, doc)
            if "catalog" in named:
                named["catalog"] = tuple(map(CatalogEntry.from_json_dict, named["catalog"]))
            return cls(**named)
        except KeyError as exc:
            raise WorldSpecError(f"world spec: missing field {exc}") from exc

    @classmethod
    def load(cls, source) -> WorldSpec:
        """Read a spec document from a path (:func:`output.read_document`)."""
        return cls.from_json_dict(output.read_document(source, WorldSpecError, 1))


@_record
class GroundTruthInstance:
    """One object occurrence: a physical instance or its boundary duplicate.

    Like :class:`SceneObject`, it checks and sets each field once in ``__init__``.
    """

    instance_id: int
    label: str
    attributes: dict[str, str]
    world_position: tuple[float, float, float]
    home_node: NodeId
    duplicate_of: int | None

    def __init__(self, instance_id, label, attributes, world_position, home_node, duplicate_of=None):
        set_id, set_label, set_attributes, set_position, set_home, set_duplicate_of = _INSTANCE_SETTERS
        set_id(self, _check_id(instance_id, "instance_id"))
        set_label(self, _check_label(label, "label"))
        set_attributes(self, _check_attributes(attributes))
        set_position(self, _as_vec3(world_position, "world_position"))
        set_home(self, _check_id(home_node, "home_node"))
        set_duplicate_of(self, None if duplicate_of is None else _check_id(duplicate_of, "duplicate_of"))

    @classmethod
    def _of(cls, instance_id: int, label: str, attributes: dict[str, str], world_position, home_node: NodeId,
            duplicate_of: int | None) -> GroundTruthInstance:
        """The record of fields that ``__init__`` would store unchanged,
        unchecked; it keeps ``attributes`` itself (see :meth:`SceneObject._of`)."""
        inst = object.__new__(cls)
        set_id, set_label, set_attributes, set_position, set_home, set_duplicate_of = _INSTANCE_SETTERS
        set_id(inst, instance_id)
        set_label(inst, label)
        set_attributes(inst, attributes)
        set_position(inst, world_position)
        set_home(inst, home_node)
        set_duplicate_of(inst, duplicate_of)
        return inst

    def to_json_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "label": self.label,
            "attributes": dict(self.attributes),
            "world_position": list(self.world_position),
            "home_node": self.home_node,
            "duplicate_of": self.duplicate_of,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> GroundTruthInstance:
        """The instance a document holds, with its own copy of the attributes.

        An instance of int ids, a non-empty str label, a dict of str to str,
        three finite floats and a null or int ``duplicate_of`` is built
        unchecked; any other is read through ``__init__``, whose messages the
        loader gives.
        """
        try:
            instance_id, label, attributes = doc["instance_id"], doc["label"], doc["attributes"]
            x, y, z = doc["world_position"]
            home_node, duplicate_of = doc["home_node"], doc["duplicate_of"]
        except (KeyError, TypeError, ValueError):  # a field left out, null or of another kind
            pass
        else:
            if (type(instance_id) is int and type(label) is str and label and type(attributes) is dict
                    and type(x) is float and type(y) is float and type(z) is float and math.isfinite(x + y + z)
                    and type(home_node) is int and (duplicate_of is None or type(duplicate_of) is int)):
                for key in attributes:
                    if type(key) is not str or type(attributes[key]) is not str:
                        break
                else:
                    return cls._of(instance_id, label, attributes.copy(), (x, y, z), home_node, duplicate_of)
        if not isinstance(doc, dict):
            raise _KindError(f"instance must be a JSON object, got {doc!r}")
        return cls(doc["instance_id"], doc["label"], doc.get("attributes", {}), doc["world_position"],
                   doc["home_node"], doc.get("duplicate_of"))


_INSTANCE_SETTERS = _slot_setters(GroundTruthInstance)


def _instance_text(inst: GroundTruthInstance) -> str:
    """One record of a saved ground-truth document (see :func:`output.save_document`)."""
    return (
        '{\n      "instance_id": ' + output.atom(inst.instance_id)
        + ',\n      "label": ' + output.string(inst.label)
        + ',\n      "attributes": ' + output.mapping(inst.attributes, "      ")
        + ',\n      "world_position": ' + output.floats(inst.world_position, "      ")
        + ',\n      "home_node": ' + output.atom(inst.home_node)
        + ',\n      "duplicate_of": ' + output.atom(inst.duplicate_of)
        + "\n    }"
    )


@dataclass(frozen=True)
class GroundTruth:
    """All placed object occurrences; duplicates link back via duplicate_of."""

    instances: tuple[GroundTruthInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))

    def physical_instances(self) -> tuple[GroundTruthInstance, ...]:
        return tuple(inst for inst in self.instances if inst.duplicate_of is None)

    def count_matching(self, predicate: Predicate) -> int:
        """Physical instances (duplicates not counted) that match ``predicate``."""
        return len(_matching(predicate, self.physical_instances()))

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "instances": [inst.to_json_dict() for inst in self.instances],
        }

    def save(self, destination) -> None:
        """Write the ground-truth document to a path.

        The file holds ``json.dumps(self.to_json_dict(), indent=2)`` plus a
        newline, written one instance at a time, and it replaces
        ``destination`` atomically (:func:`output.save_document`). A path that
        cannot be written is an :class:`OutputError`.
        """
        output.save_document(destination, 1, [("instances", "[]", map(_instance_text, self.instances))])

    @classmethod
    @_collector_paused()
    def load(cls, source) -> GroundTruth:
        """Read a ground-truth document from a path (:func:`output.read_document`)."""
        raw = output.read_document(source, GraphParseError, 1).get("instances")
        if not isinstance(raw, list):
            raise GraphParseError("ground truth instances: expected an array")
        instances = []
        for i, inst_doc in enumerate(raw):
            try:
                instances.append(GroundTruthInstance.from_json_dict(inst_doc))
            except KeyError as exc:
                raise GraphParseError(f"ground truth instances[{i}]: missing field {exc}") from exc
            except ValueError as exc:
                raise GraphParseError(f"ground truth instances[{i}]: {exc}") from exc
        physical_ids = {inst.instance_id for inst in instances if inst.duplicate_of is None}
        for i, inst in enumerate(instances):
            if inst.duplicate_of is not None and inst.duplicate_of not in physical_ids:
                raise GraphParseError(
                    f"ground truth instances[{i}]: duplicate_of {inst.duplicate_of} names no "
                    "instance whose own duplicate_of is null"
                )
        return cls(instances)


@dataclass(frozen=True)
class TaskSpec:
    """One scripted mission: where the agent stands and what it asks."""

    agent_node: NodeId
    query: Query


# --- generation -----------------------------------------------------------------


@_collector_paused()
def generate_world(spec: WorldSpec) -> tuple[Datagraph, GroundTruth]:
    """Build a connected room-grid world; deterministic in the spec."""
    rng = np.random.default_rng(spec.seed)
    # a float room size keeps every derived position and length a float, as
    # the checking constructors would store them, whatever real the spec holds
    gw, gh, size = spec.grid_w, spec.grid_h, float(spec.room_size_m)
    n = gw * gh

    walls = _interior_walls(gw, gh)
    edge_pairs = _choose_doors(walls, n, spec.door_prob, rng)

    # every field of the records below is right by construction from the
    # checked spec, so the ground-truth instances, scene objects and poses
    # skip their checks; each scene object shares its instance's attributes
    instances = _place_objects(spec, size, rng)
    _assign_number_pools(spec, instances, rng)
    _assign_number_refs(spec, instances, rng)
    _inject_boundary_duplicates(spec, size, instances, set(edge_pairs), rng)

    per_node: list[list[SceneObject]] = [[] for _ in range(n)]
    new_object = SceneObject._of
    for inst in instances:
        obj = new_object(inst.label, inst.attributes, inst.world_position, inst.instance_id)
        per_node[inst.home_node].append(obj)
    centers = [((v % gw + 0.5) * size, (v // gw + 0.5) * size, 0.0) for v in range(n)]
    nodes = [Node(v, Pose._of(centers[v]), Snapshot(objs)) for v, objs in enumerate(per_node)]
    del per_node
    edges = [(a, b, True, math.dist(centers[a], centers[b])) for a, b in edge_pairs]
    return Datagraph(nodes, edges), GroundTruth(instances)


def _interior_walls(gw: int, gh: int) -> list[tuple[NodeId, NodeId]]:
    walls = []
    for j in range(gh):
        for i in range(gw):
            v = j * gw + i
            if i + 1 < gw:
                walls.append((v, v + 1))
            if j + 1 < gh:
                walls.append((v, v + gw))
    return walls


def _choose_doors(walls, n_cells: int, door_prob: float, rng) -> list[tuple[NodeId, NodeId]]:
    """Random spanning tree over ``n_cells`` rooms first (connectivity repair), extra doors after."""
    parent = list(range(n_cells))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: set[tuple[NodeId, NodeId]] = set()
    for index in rng.permutation(len(walls)):
        a, b = walls[int(index)]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.add((a, b))
    extra = [wall for wall in walls if wall not in tree]
    # one array draw gives the values of that many scalar rng.random() calls
    flips = rng.random(len(extra)).tolist()
    return sorted(tree.union(wall for wall, flip in zip(extra, flips) if flip < door_prob))


def _room_bounds(v: NodeId, gw: int, size: float) -> tuple[float, float, float, float]:
    i, j = v % gw, v // gw
    return i * size, (i + 1) * size, j * size, (j + 1) * size


_MAX_PLACE_TRIES = 64


class _SeparationGrid:
    """One label's placed positions, bucketed in square cells (a grid hash),
    which are held row by row.

    :meth:`admit` places a candidate iff every placed position is at least
    ``separation`` away by ``math.dist``, exactly as a scan over all of them
    would, but it only looks at the 3x3 block of cells around the candidate.
    That suffices because the side is at least twice the separation, which
    leaves a wide margin for rounding in ``x / side``; the ``room_size_m / 4``
    floor keeps ``x / side`` small and finite when the separation is tiny.
    """

    def __init__(self, separation: float, room_size_m: float):
        self.separation = separation
        self.side = max(2.0 * separation, room_size_m / 4)
        self._rows: dict[int, dict[int, list[tuple[float, float, float]]]] = {}

    def admit(self, candidate: tuple[float, float, float]) -> bool:
        """Place ``candidate`` if it keeps the separation; return whether it did.

        With separation 0 every candidate is admitted, and none is stored.
        """
        separation = self.separation
        if separation == 0:
            return True
        side, rows = self.side, self._rows
        ci, cj = math.floor(candidate[0] / side), math.floor(candidate[1] / side)
        for i in (ci - 1, ci, ci + 1):
            row = rows.get(i)
            if row is not None:
                for j in (cj - 1, cj, cj + 1):
                    for other in row.get(j, ()):
                        if not math.dist(candidate, other) >= separation:
                            return False
        rows.setdefault(ci, {}).setdefault(cj, []).append(candidate)
        return True


def _place_objects(spec: WorldSpec, size: float, rng) -> list[GroundTruthInstance]:
    """The physical instances, numbered in the order they are placed, without their number attributes."""
    instances: list[GroundTruthInstance] = []
    if spec.objects_per_room_mean == 0 or not spec.catalog:
        return instances
    weights = np.array([entry.weight for entry in spec.catalog], dtype=float)
    # the inverse CDF that rng.choice(len(catalog), p=weights / weights.sum())
    # builds on every call; one rng.random() per pick gives the same picks
    # from the same draws, without the per-call argument checks
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    grids = {
        entry.label: _SeparationGrid(spec.min_label_separation_m, size)
        for entry in spec.catalog
    }
    # per catalog entry: its label, its label's grid, and its const and choice
    # attributes in name order as (name, const value, choice values or None)
    kinds = [
        (entry.label, grids[entry.label].admit, tuple(
            (name, desc.get("value"), desc["values"] if desc["kind"] == "choice" else None)
            for name, desc in sorted(entry.attributes.items())
            if desc["kind"] in ("const", "choice")
        ))
        for entry in spec.catalog
    ]
    random, integers, poisson, new_instance = rng.random, rng.integers, rng.poisson, GroundTruthInstance._of
    pick, mean = bisect.bisect_right, spec.objects_per_room_mean
    for v in range(spec.grid_w * spec.grid_h):
        x_lo, x_hi, y_lo, y_hi = _room_bounds(v, spec.grid_w, size)
        # lo + (hi - lo) * rng.random() is what rng.uniform(lo, hi) computes
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        for _ in range(int(poisson(mean))):
            label, admit, plan = kinds[pick(cdf, random())]
            for _try in range(_MAX_PLACE_TRIES):
                position = (x_lo + x_span * random(), y_lo + y_span * random(), 0.0)
                if admit(position):
                    break
            else:
                continue  # room too crowded for this label; skip the object
            attributes: dict[str, str] = {}
            for name, value, values in plan:
                attributes[name] = value if values is None else values[int(integers(len(values)))]
            instances.append(new_instance(len(instances), label, attributes, position, v, None))
    return instances


def _assign_number_pools(spec: WorldSpec, instances: list[GroundTruthInstance], rng) -> None:
    for entry in spec.catalog:
        for name in sorted(entry.attributes):
            if entry.attributes[name]["kind"] != "number_pool":
                continue
            mine = [inst for inst in instances if inst.label == entry.label]
            if not mine:
                continue
            numbers = rng.choice(np.arange(1, 10 * len(mine) + 1), size=len(mine), replace=False)
            for inst, number in zip(mine, numbers):
                inst.attributes[name] = str(int(number))


def _assign_number_refs(spec: WorldSpec, instances: list[GroundTruthInstance], rng) -> None:
    for entry in spec.catalog:
        for name in sorted(entry.attributes):
            desc = entry.attributes[name]
            if desc["kind"] != "number_of":
                continue
            source_values = [
                inst.attributes[name]
                for inst in instances
                if inst.label == desc["label"] and name in inst.attributes
            ]
            if not source_values:
                continue  # nothing to key against; attribute omitted
            for inst in instances:
                if inst.label == entry.label:
                    inst.attributes[name] = source_values[int(rng.integers(len(source_values)))]


def _inject_boundary_duplicates(
    spec: WorldSpec,
    size: float,
    instances: list[GroundTruthInstance],
    doors: set[tuple[NodeId, NodeId]],
    rng,
) -> None:
    """Copy near-wall objects into the adjacent room's snapshot.

    The copy keeps the exact world position and attributes but gets its own
    instance id, linked by duplicate_of. Only walls with a door (an edge)
    leak detections."""
    if spec.boundary_duplicate_prob == 0:
        return
    gw = spec.grid_w
    duplicates: list[GroundTruthInstance] = []
    for inst in instances:
        v, (x, y, _) = inst.home_node, inst.world_position
        x_lo, x_hi, y_lo, y_hi = _room_bounds(v, gw, size)
        # (gap to a wall, the room behind it); v - 1 and v + 1 are behind a wall only within the row
        sides = [(y_hi - y, v + gw), (y - y_lo, v - gw)]
        if v % gw + 1 < gw:
            sides.append((x_hi - x, v + 1))
        if v % gw > 0:
            sides.append((x - x_lo, v - 1))
        eligible = [(gap, w) for gap, w in sides if gap <= BOUNDARY_BAND_M and (min(v, w), max(v, w)) in doors]
        if eligible and rng.random() < spec.boundary_duplicate_prob:
            _, target = min(eligible)
            # a copy of the attributes: each scene object owns its dict
            duplicates.append(GroundTruthInstance._of(len(instances) + len(duplicates), inst.label,
                                                      dict(inst.attributes), inst.world_position, target,
                                                      inst.instance_id))
    instances.extend(duplicates)


# --- tasks & oracle -----------------------------------------------------------------


def ground_truth_nearest(
    graph: Datagraph,
    ground_truth: GroundTruth,
    agent: NodeId,
    predicate: Predicate,
    metric: str = "hops",
) -> tuple[NodeId, float] | None:
    """Closest node holding a matching instance, as ``(node, distance)``.

    Independent of the traversal module: ground truth names the candidate
    nodes (duplicates count for every node whose snapshot holds them) and
    :meth:`Datagraph.nearest` finds the closest of them under ``metric``.
    Ties go to the smallest node id. Returns None when no match is reachable.
    """
    candidates = {inst.home_node for inst in _matching(predicate, ground_truth.instances)}
    return graph.nearest(agent, candidates, metric)


def make_nearest_search_task(
    graph: Datagraph, ground_truth: GroundTruth, seed: int
) -> TaskSpec:
    """Find-the-nearest-X task: a present label from a random agent node."""
    rng = np.random.default_rng(seed)
    labels = sorted({inst.label for inst in ground_truth.physical_instances()})
    if not labels:
        raise TaskUnavailableError("world has no objects to search for")
    label = labels[int(rng.integers(len(labels)))]
    agent = int(rng.integers(len(graph)))
    predicate = Predicate(label_equals=label)
    query = Query(text=f"find the nearest {label}", predicate=predicate, mode="find")
    return TaskSpec(agent, query)


def make_keyfob_task(graph: Datagraph, ground_truth: GroundTruth, seed: int) -> TaskSpec:
    """Door/keyfob number matching: stand at a door, find its unique keyfob."""
    rng = np.random.default_rng(seed)
    physical = ground_truth.physical_instances()
    doors = [
        inst for inst in physical if inst.label == "door" and "number" in inst.attributes
    ]
    keyfob_numbers = Counter(
        inst.attributes["number"]
        for inst in physical
        if inst.label == "keyfob" and "number" in inst.attributes
    )
    if not doors or not keyfob_numbers:
        raise TaskUnavailableError("keyfob task needs both a numbered door and a keyfob")
    candidates = [d for d in doors if keyfob_numbers[d.attributes["number"]] == 1]
    if not candidates:
        raise TaskUnavailableError("no door is keyed to exactly one keyfob")
    door = candidates[int(rng.integers(len(candidates)))]
    number = door.attributes["number"]
    predicate = Predicate(label_equals="keyfob", attribute_equals=(("number", number),))
    query = Query(
        text=f"find the keyfob with number {number}", predicate=predicate, mode="find"
    )
    return TaskSpec(door.home_node, query)

