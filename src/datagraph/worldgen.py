"""Seeded synthetic multi-room worlds with ground truth and task generators.

Worlds are grids of square rooms, one graph node per room at its center.
A random spanning tree keeps every world connected; remaining interior
walls get a door (an edge) with ``door_prob``. Objects are sprinkled
uniformly inside rooms with Poisson counts, and objects near a shared wall
can be duplicated into the neighboring room's snapshot to reproduce the
boundary double-detection problem. Everything is a pure function of the
spec (seed included): regenerating yields byte-identical worlds.

``ground_truth_nearest`` is the independent oracle used to score
traversals; it deliberately uses only ground truth plus single-source
distances, never the traversal module.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backends import Predicate, Query, predicate_eval
from .errors import GraphParseError, GraphValidationError, TaskUnavailableError, WorldSpecError
from .graph import Datagraph, Node, NodeId, Pose, SceneObject, Snapshot

BOUNDARY_BAND_M = 0.5  # how close to a shared wall an object must be to be duplicated

_ATTR_KINDS = ("const", "choice", "number_pool", "number_of")


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
        if not self.label:
            raise WorldSpecError("catalog label must be non-empty")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise WorldSpecError(f"catalog weight for {self.label!r} must be >= 0")
        attrs = {str(k): dict(v) for k, v in dict(self.attributes).items()}
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
        return cls(
            label=doc["label"],
            attributes=doc.get("attributes", {}),
            weight=doc.get("weight", 1.0),
        )


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
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise WorldSpecError(f"{name} must be a positive integer, got {value!r}")
        if not (math.isfinite(self.room_size_m) and self.room_size_m > 0):
            raise WorldSpecError(f"room_size_m must be positive, got {self.room_size_m!r}")
        for name in ("door_prob", "boundary_duplicate_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise WorldSpecError(f"{name} must be in [0, 1], got {value!r}")
        if not (math.isfinite(self.objects_per_room_mean) and self.objects_per_room_mean >= 0):
            raise WorldSpecError("objects_per_room_mean must be non-negative")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise WorldSpecError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
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
        Path(destination).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def from_json_dict(cls, doc: dict) -> WorldSpec:
        if not isinstance(doc, dict):
            raise WorldSpecError("world spec: expected an object")
        if doc.get("format_version") != 1:
            raise WorldSpecError(f"world spec: unsupported format_version {doc.get('format_version')!r}")
        try:
            return cls(
                grid_w=doc["grid_w"],
                grid_h=doc["grid_h"],
                room_size_m=doc.get("room_size_m", 6.0),
                door_prob=doc.get("door_prob", 0.35),
                catalog=tuple(
                    CatalogEntry.from_json_dict(e) for e in doc.get("catalog", [])
                ) or default_catalog(),
                objects_per_room_mean=doc.get("objects_per_room_mean", 2.0),
                boundary_duplicate_prob=doc.get("boundary_duplicate_prob", 0.0),
                seed=doc.get("seed", 0),
                min_label_separation_m=doc.get("min_label_separation_m", 1.1),
            )
        except KeyError as exc:
            raise WorldSpecError(f"world spec: missing field {exc}") from exc

    @classmethod
    def load(cls, source) -> WorldSpec:
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise WorldSpecError(f"world spec is not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


@dataclass(frozen=True)
class GroundTruthInstance:
    """One object occurrence: a physical instance or its boundary duplicate."""

    instance_id: int
    label: str
    attributes: dict[str, str]
    world_position: tuple[float, float, float]
    home_node: NodeId
    duplicate_of: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(self, "world_position", tuple(map(float, self.world_position)))

    @classmethod
    def _of(cls, obj: SceneObject, home_node: NodeId, duplicate_of: int | None) -> GroundTruthInstance:
        """The record of a checked scene object, sharing its attributes and position."""
        inst = object.__new__(cls)  # the fields are already checked: skip __init__
        inst.__dict__.update(instance_id=obj.instance_id, label=obj.label, attributes=obj.attributes,
                             world_position=obj.world_position, home_node=home_node, duplicate_of=duplicate_of)
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
        return cls(
            instance_id=doc["instance_id"],
            label=doc["label"],
            attributes=doc.get("attributes", {}),
            world_position=tuple(doc["world_position"]),
            home_node=doc["home_node"],
            duplicate_of=doc.get("duplicate_of"),
        )


@dataclass(frozen=True)
class GroundTruth:
    """All placed object occurrences; duplicates link back via duplicate_of."""

    instances: tuple[GroundTruthInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))

    def physical_instances(self) -> tuple[GroundTruthInstance, ...]:
        return tuple(inst for inst in self.instances if inst.duplicate_of is None)

    def count_matching(self, predicate: Predicate, include_duplicates: bool = False) -> int:
        pool = self.instances if include_duplicates else self.physical_instances()
        return sum(1 for inst in pool if predicate_eval(predicate, inst))

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "instances": [inst.to_json_dict() for inst in self.instances],
        }

    def save(self, destination) -> None:
        Path(destination).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, source) -> GroundTruth:
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"ground truth is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format_version") != 1:
            raise GraphParseError("ground truth: unsupported or missing format_version")
        try:
            return cls(tuple(GroundTruthInstance.from_json_dict(d) for d in doc["instances"]))
        except (KeyError, TypeError) as exc:
            raise GraphParseError(f"ground truth: {exc}") from exc


@dataclass(frozen=True)
class TaskSpec:
    """One scripted mission for the harness."""

    kind: str
    agent_node: NodeId
    query: Query
    expected_min_hops: int | None = None
    route: tuple[NodeId, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("nearest_search", "route_hazard", "keyfob_match"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.route is not None:
            object.__setattr__(self, "route", tuple(self.route))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "agent_node": self.agent_node,
            "query": self.query.to_json_dict(),
            "expected_min_hops": self.expected_min_hops,
            "route": list(self.route) if self.route is not None else None,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> TaskSpec:
        route = doc.get("route")
        return cls(
            kind=doc["kind"],
            agent_node=doc["agent_node"],
            query=Query.from_json_dict(doc["query"]),
            expected_min_hops=doc.get("expected_min_hops"),
            route=tuple(route) if route is not None else None,
        )


# --- generation -----------------------------------------------------------------


@dataclass
class _Placement:
    node: NodeId
    label: str
    position: tuple[float, float, float]
    attributes: dict[str, str]
    duplicate_of: int | None = None


def generate_world(spec: WorldSpec) -> tuple[Datagraph, GroundTruth]:
    """Build a connected room-grid world; deterministic in the spec."""
    rng = np.random.default_rng(spec.seed)
    gw, gh, size = spec.grid_w, spec.grid_h, spec.room_size_m
    n = gw * gh

    walls = _interior_walls(gw, gh)
    edge_pairs = _choose_doors(walls, spec.door_prob, rng)

    placements = _place_objects(spec, rng)
    _assign_number_pools(spec, placements, rng)
    _assign_number_refs(spec, placements, rng)
    _inject_boundary_duplicates(spec, placements, set(edge_pairs), rng)

    per_node: list[list[SceneObject]] = [[] for _ in range(n)]
    instances = []
    for instance_id, p in enumerate(placements):
        obj = SceneObject(p.label, p.attributes, p.position, instance_id)
        per_node[p.node].append(obj)
        instances.append(GroundTruthInstance._of(obj, p.node, p.duplicate_of))
    centers = [((v % gw + 0.5) * size, (v // gw + 0.5) * size, 0.0) for v in range(n)]
    nodes = [Node(v, Pose(centers[v]), Snapshot(objs)) for v, objs in enumerate(per_node)]
    del placements, per_node
    edges = [(a, b, True, math.dist(centers[a], centers[b])) for a, b in edge_pairs]
    graph, violations = Datagraph._assemble(nodes, edges)
    if violations:
        raise GraphValidationError(violations)
    return graph, GroundTruth(instances)


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


def _choose_doors(walls, door_prob: float, rng) -> list[tuple[NodeId, NodeId]]:
    """Random spanning tree first (connectivity repair), extra doors after."""
    n_cells = max(max(pair) for pair in walls) + 1 if walls else 1
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
    """One label's placed positions, bucketed in square cells (a grid hash).

    :meth:`admits` accepts a candidate iff every placed position is at least
    ``separation`` away by ``math.dist``, exactly as a scan over all of them
    would, but it only looks at the 3x3 block of cells around the candidate.
    That suffices because the side is at least twice the separation, which
    leaves a wide margin for rounding in ``x / side``; the ``room_size_m / 4``
    floor keeps ``x / side`` small and finite when the separation is tiny.
    """

    def __init__(self, separation: float, room_size_m: float):
        self.separation = separation
        self.side = max(2.0 * separation, room_size_m / 4)
        self._cells: dict[tuple[int, int], list[tuple[float, float, float]]] = {}

    def cell(self, position: tuple[float, float, float]) -> tuple[int, int]:
        return math.floor(position[0] / self.side), math.floor(position[1] / self.side)

    def admits(self, candidate: tuple[float, float, float], cell: tuple[int, int]) -> bool:
        """Whether ``candidate``, which lies in ``cell``, keeps the separation."""
        if self.separation == 0:
            return True
        ci, cj = cell
        for i in (ci - 1, ci, ci + 1):
            for j in (cj - 1, cj, cj + 1):
                for other in self._cells.get((i, j), ()):
                    if not math.dist(candidate, other) >= self.separation:
                        return False
        return True

    def add(self, position: tuple[float, float, float], cell: tuple[int, int]) -> None:
        self._cells.setdefault(cell, []).append(position)


def _place_objects(spec: WorldSpec, rng) -> list[_Placement]:
    placements: list[_Placement] = []
    if spec.objects_per_room_mean == 0 or not spec.catalog:
        return placements
    weights = np.array([entry.weight for entry in spec.catalog], dtype=float)
    # the inverse CDF that rng.choice(len(catalog), p=weights / weights.sum())
    # builds on every call; one rng.random() per pick gives the same picks
    # from the same draws, without the per-call argument checks
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    grids = {
        entry.label: _SeparationGrid(spec.min_label_separation_m, spec.room_size_m)
        for entry in spec.catalog
    }
    for v in range(spec.grid_w * spec.grid_h):
        x_lo, x_hi, y_lo, y_hi = _room_bounds(v, spec.grid_w, spec.room_size_m)
        # lo + (hi - lo) * rng.random() is what rng.uniform(lo, hi) computes
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        for _ in range(int(rng.poisson(spec.objects_per_room_mean))):
            entry = spec.catalog[bisect.bisect_right(cdf, rng.random())]
            grid = grids[entry.label]
            for _try in range(_MAX_PLACE_TRIES):
                position = (x_lo + x_span * rng.random(), y_lo + y_span * rng.random(), 0.0)
                cell = grid.cell(position)
                if grid.admits(position, cell):
                    break
            else:
                continue  # room too crowded for this label; skip the object
            attributes: dict[str, str] = {}
            for name in sorted(entry.attributes):
                desc = entry.attributes[name]
                if desc["kind"] == "const":
                    attributes[name] = desc["value"]
                elif desc["kind"] == "choice":
                    attributes[name] = desc["values"][int(rng.integers(len(desc["values"])))]
            placements.append(_Placement(v, entry.label, position, attributes))
            grid.add(position, cell)
    return placements


def _assign_number_pools(spec: WorldSpec, placements: list[_Placement], rng) -> None:
    for entry in spec.catalog:
        for name in sorted(entry.attributes):
            if entry.attributes[name]["kind"] != "number_pool":
                continue
            mine = [p for p in placements if p.label == entry.label]
            if not mine:
                continue
            numbers = rng.choice(np.arange(1, 10 * len(mine) + 1), size=len(mine), replace=False)
            for p, number in zip(mine, numbers):
                p.attributes[name] = str(int(number))


def _assign_number_refs(spec: WorldSpec, placements: list[_Placement], rng) -> None:
    for entry in spec.catalog:
        for name in sorted(entry.attributes):
            desc = entry.attributes[name]
            if desc["kind"] != "number_of":
                continue
            source_values = [
                p.attributes[name]
                for p in placements
                if p.label == desc["label"] and name in p.attributes
            ]
            if not source_values:
                continue  # nothing to key against; attribute omitted
            for p in placements:
                if p.label == entry.label:
                    p.attributes[name] = source_values[int(rng.integers(len(source_values)))]


def _inject_boundary_duplicates(
    spec: WorldSpec,
    placements: list[_Placement],
    doors: set[tuple[NodeId, NodeId]],
    rng,
) -> None:
    """Copy near-wall objects into the adjacent room's snapshot.

    The copy keeps the exact world position and attributes but gets its own
    instance id, linked by duplicate_of. Only walls with a door (an edge)
    leak detections."""
    if spec.boundary_duplicate_prob == 0:
        return
    gw, size = spec.grid_w, spec.room_size_m
    duplicates: list[_Placement] = []
    for original_id, p in enumerate(placements):
        v, (x, y, _) = p.node, p.position
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
            duplicates.append(_Placement(target, p.label, p.position, p.attributes, duplicate_of=original_id))
    placements.extend(duplicates)


# --- tasks & oracle -----------------------------------------------------------------


def ground_truth_nearest(
    graph: Datagraph,
    ground_truth: GroundTruth,
    agent: NodeId,
    predicate: Predicate,
    metric: str = "hops",
) -> tuple[NodeId, float] | None:
    """Closest node holding a matching instance, by exhaustive scan.

    Independent of the traversal module: ground truth names the candidate
    nodes (duplicates count for every node whose snapshot holds them) and a
    single-source distance map ranks them. Ties go to the smallest node id.
    Returns None when no match is reachable.
    """
    if metric not in ("hops", "meters"):
        raise ValueError(f"metric must be 'hops' or 'meters', got {metric!r}")
    candidate_nodes = sorted(
        {inst.home_node for inst in ground_truth.instances if predicate_eval(predicate, inst)}
    )
    distances = (
        graph.hop_distances(agent) if metric == "hops" else graph.geodesic_distances(agent)
    )
    best = min(
        ((distances[v], v) for v in candidate_nodes if v in distances),
        default=None,
    )
    if best is None:
        return None
    return best[1], best[0]


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
    nearest = ground_truth_nearest(graph, ground_truth, agent, predicate, "hops")
    expected = int(nearest[1]) if nearest is not None else None
    return TaskSpec("nearest_search", agent, query, expected_min_hops=expected)


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
    nearest = ground_truth_nearest(graph, ground_truth, door.home_node, predicate, "hops")
    expected = int(nearest[1]) if nearest is not None else None
    return TaskSpec("keyfob_match", door.home_node, query, expected_min_hops=expected)


def make_route_hazard_task(
    graph: Datagraph, ground_truth: GroundTruth, seed: int
) -> TaskSpec:
    """Scan a shortest route between two random nodes for hazard objects."""
    rng = np.random.default_rng(seed)
    n = len(graph)
    start = int(rng.integers(n))
    goal = start if n == 1 else int((start + 1 + rng.integers(n - 1)) % n)
    route = graph.shortest_path(start, goal, metric="hops")
    if route is None:  # generated worlds are connected; guard for loaded ones
        raise TaskUnavailableError(f"no route between {start} and {goal}")
    predicate = Predicate(attribute_equals=(("hazard", "true"),))
    query = Query(
        text="check the route for hazardous objects", predicate=predicate, mode="assess_hazard"
    )
    nearest = ground_truth_nearest(graph, ground_truth, start, predicate, "hops")
    expected = int(nearest[1]) if nearest is not None else None
    return TaskSpec(
        "route_hazard", start, query, expected_min_hops=expected, route=tuple(route)
    )
