"""Seeded synthetic multi-room worlds with ground truth and task generators.

Worlds are grids of square rooms, one graph node per room at its center.
A random spanning tree keeps every world connected; remaining interior
walls get a door (an edge) with ``door_prob``. Objects are sprinkled
uniformly inside rooms with Poisson counts, and objects near a shared wall
can be duplicated into the neighboring room's snapshot to reproduce the
boundary double-detection problem. Everything is a pure function of the
spec (seed included): regenerating yields byte-identical worlds. The saved
bytes follow numpy's PCG64 words and its ``Generator`` algorithms: the
scalar draws of the placement loop are derived from raw words exactly as
numpy computes them (:class:`_Draws`); the permutation, vector and sampling
draws, Poisson counts with a mean of 0 or of 10 and up, and
:func:`derive_seed`, which mixes the harness's trial seeds, are numpy calls.

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
from collections import Counter, deque
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import length_hint

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
    _document,
    _is_integer,
    _KindError,
    _named_fields,
    _record,
    _root,
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

    to_json_dict = _document

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
        try:
            catalog = tuple(self.catalog)
        except TypeError:
            catalog = None
        if catalog is None or not all(isinstance(entry, CatalogEntry) for entry in catalog):
            raise WorldSpecError(f"catalog must be a sequence of CatalogEntry records, got {self.catalog!r}")
        object.__setattr__(self, "catalog", catalog)
        if self.objects_per_room_mean > 0:
            if not catalog or all(entry.weight == 0 for entry in catalog):
                raise WorldSpecError(
                    "objects_per_room_mean > 0 needs a catalog with a positive weight"
                )
            if not math.isfinite(sum(entry.weight for entry in catalog)):
                raise WorldSpecError("catalog weights must have a finite sum")

    def to_json_dict(self) -> dict:
        return {"format_version": 1, **_document(self)}

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
        GroundTruthInstance._init(
            self, _check_id(instance_id, "instance_id"), _check_label(label, "label"), _check_attributes(attributes),
            _as_vec3(world_position, "world_position"), _check_id(home_node, "home_node"),
            None if duplicate_of is None else _check_id(duplicate_of, "duplicate_of"),
        )

    to_json_dict = _document

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
        return {"format_version": 1, **_document(self)}

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

    edge_pairs = _choose_doors(_interior_walls(gw, gh), n, spec.door_prob, rng)

    # every field of the records below is right by construction from the
    # checked spec, so each record skips its checks (see graph._record);
    # each scene object shares its instance's attributes
    draws = _Draws(rng)
    xs, ys = _room_lines(gw, size), _room_lines(gh, size)
    instances = _place_objects(spec, size, xs, ys, draws)
    with draws.generator() as synced:
        _assign_number_pools(spec, instances, synced)
    _assign_number_refs(spec, instances, draws)
    _inject_boundary_duplicates(spec, xs, ys, instances, edge_pairs, draws)

    per_node: list[list[SceneObject]] = [[] for _ in range(n)]
    new_object = SceneObject._of
    for inst in instances:
        obj = new_object(inst.label, inst.attributes, inst.world_position, inst.instance_id)
        per_node[inst.home_node].append(obj)
    centers = [(xs[v % gw][1], ys[v // gw][1], 0.0) for v in range(n)]
    nodes = tuple([Node._of(v, Pose._of(centers[v], None), Snapshot._of(tuple(objs), None))
                   for v, objs in enumerate(per_node)])
    del per_node
    # the doors come valid and in (a, b) order, as _interior_walls lists the walls, so the graph takes them
    # unchecked; it reads each row once, so no row tuple outlives its reading
    rows = ((a, b, True, math.dist(centers[a], centers[b])) for a, b in edge_pairs)
    return Datagraph._of(nodes, rows), GroundTruth(instances)


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
    """The walls with a door, in wall order: a random spanning tree over ``n_cells`` rooms
    (connectivity repair), then each other wall with ``door_prob``."""
    parent = list(range(n_cells))
    in_tree = [False] * len(walls)
    for index in rng.permutation(len(walls)).tolist():
        a, b = walls[index]
        ra, rb = _root(parent, a), _root(parent, b)
        if ra != rb:
            parent[ra] = rb
            in_tree[index] = True
    # one array draw gives the values of that many scalar rng.random() calls, one a wall outside the tree
    flips = iter(rng.random(len(walls) - sum(in_tree)).tolist())
    return [wall for wall, tree in zip(walls, in_tree) if tree or next(flips) < door_prob]


_Lines = list[tuple[float, float, float]]


def _room_lines(count: int, size: float) -> _Lines:
    """Each of ``count`` columns (or rows) of rooms ``size`` wide: its low wall, center and high wall."""
    return [(i * size, (i + 0.5) * size, (i + 1) * size) for i in range(count)]


def derive_seed(*parts: int) -> int:
    """Deterministic 64-bit child seed from integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


_MAX_PLACE_TRIES = 64
_BLOCK_WORDS = 1024  # raw words fetched from numpy at a time
_UNIT = 2.0**-53  # numpy's next_double: a word's top 53 bits, scaled into [0, 1)


class _Draws:
    """numpy's scalar draws, derived in Python from blocks of a generator's raw words.

    :meth:`random`, :meth:`integers` and each value that :meth:`poissons`
    yields are what the same calls on the ``Generator`` would return, from the
    same PCG64 words in the same order: numpy's ``next_double``, its buffered 32-bit Lemire rejection,
    which shares the generator's half-word buffer (``has_uint32`` and
    ``uinteger``), and its Poisson multiplication method (means below 10). Words come from
    ``bit_generator.random_raw`` a block at a time, so a draw is a list step,
    not a call into numpy. ``floats`` iterates the ``random()`` values of the
    words in order, for loops that inline that draw; it stays the same
    iterator for the source's life.

    Every other draw, a Poisson mean of 0 or of 10 and up included, runs inside
    :meth:`generator`, which first moves the generator to where numpy's own
    scalar calls would have left it.
    """

    __slots__ = ("_rng", "_bits", "_start", "_raw", "_left", "floats", "has_uint32", "uinteger")

    def __init__(self, rng: np.random.Generator):
        self._rng, self._bits = rng, rng.bit_generator
        self._left = iter(())  # the block ``floats`` is in, as the iterator it steps
        self.floats = chain.from_iterable(self._blocks())
        self._resume()

    def _blocks(self):
        bits = self._bits
        while True:
            self._start = bits.state  # the generator before the block's first word
            self._raw = raw = bits.random_raw(_BLOCK_WORDS)
            self._left = iter(((raw >> np.uint64(11)) * _UNIT).tolist())
            yield self._left

    def _resume(self) -> None:
        """Draw on from the generator's state, its half-word buffer included."""
        self._start = state = self._bits.state
        self.has_uint32, self.uinteger = state["has_uint32"], state["uinteger"]
        self._raw = ()
        deque(self._left, 0)  # so the next draw starts a block

    @contextmanager
    def generator(self):
        """The generator, moved to where numpy's own calls for the draws made
        so far would have left it: words and half-word buffer. The draws go
        on from where the ``with`` block leaves it, in a fresh block of words."""
        bits = self._bits
        bits.state = self._start
        bits.advance(len(self._raw) - length_hint(self._left))
        state = bits.state  # advance empties the half-word buffer
        state["has_uint32"], state["uinteger"] = self.has_uint32, self.uinteger
        bits.state = state
        yield self._rng
        self._resume()

    def random(self) -> float:
        """``rng.random()``."""
        return next(self.floats)

    def _next32(self) -> int:
        """numpy's ``next_uint32``: a word's low half, then its high half."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        next(self.floats)  # the word behind the float just taken is the next one
        word = int(self._raw[-1 - length_hint(self._left)])
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        """``rng.integers(n)``, for 1 <= n <= 2**32."""
        if n == 1:
            return 0  # numpy draws nothing for a single value
        m = self._next32() * n
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * n
        return m >> 32

    def poissons(self, lam: float):
        """Endless ``rng.poisson(lam)`` values, each drawn when it is taken:
        by the multiplication method for a mean strictly between 0 and 10, and
        by numpy itself, inside :meth:`generator`, for a mean of 0 or of 10 and up."""
        if lam == 0 or lam >= 10:
            while True:
                with self.generator() as rng:
                    value = int(rng.poisson(lam))
                yield value
        floats, enlam = self.floats, math.exp(-lam)
        while True:
            count, prod = 0, next(floats)  # numpy's running product starts at 1.0
            while prod > enlam:
                count += 1
                prod *= next(floats)
            yield count


class _SeparationGrid:
    """One label's placed positions, bucketed in square cells (a grid hash),
    which are held row by row.

    :meth:`admit` places a candidate iff every placed position is at least
    ``separation`` away by ``math.dist``, exactly as a scan over all of them
    would, but it only looks at the 2x2 block of cells nearest the candidate,
    from ``floor(x / side - 1/2)`` on each axis, which holds every point within
    ``side / 2`` of it. The side is at least three times the separation, which
    leaves a margin of ``side / 6`` for rounding in ``x / side``; the ``room_size_m / 4``
    floor keeps ``x / side`` small and finite when the separation is tiny.
    """

    def __init__(self, separation: float, room_size_m: float):
        self.separation = separation
        self.side = max(3.0 * separation, room_size_m / 4)
        self._rows: dict[int, dict[int, list[tuple[float, float, float]]]] = {}

    def admit(self, candidate: tuple[float, float, float]) -> bool:
        """Place ``candidate`` if it keeps the separation; return whether it did.

        With separation 0 every candidate is admitted, and none is stored.
        """
        separation = self.separation
        if separation == 0:
            return True
        side, rows = self.side, self._rows
        x, y = candidate[0] / side, candidate[1] / side
        i, j = math.floor(x - 0.5), math.floor(y - 0.5)
        for row in (rows.get(i), rows.get(i + 1)):
            if row is not None:
                for cell in (row.get(j, ()), row.get(j + 1, ())):
                    for other in cell:
                        if not math.dist(candidate, other) >= separation:
                            return False
        rows.setdefault(math.floor(x), {}).setdefault(math.floor(y), []).append(candidate)
        return True


def _place_objects(spec: WorldSpec, size: float, xs: _Lines, ys: _Lines, draws: _Draws) -> list[GroundTruthInstance]:
    """The physical instances, numbered in the order they are placed, without their number attributes;
    ``xs`` and ``ys`` are the room columns and rows from :func:`_room_lines`."""
    instances: list[GroundTruthInstance] = []
    if spec.objects_per_room_mean == 0 or not spec.catalog:
        return instances
    weights = np.array([entry.weight for entry in spec.catalog], dtype=float)
    # the catalog's inverse CDF: one uniform draw per object picks its entry
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
    # the uniform draws are inlined as steps of draws.floats
    floats, integers, new_instance = draws.floats, draws.integers, GroundTruthInstance._of
    pick, counts, gw = bisect.bisect_right, draws.poissons(float(spec.objects_per_room_mean)), len(xs)
    for v in range(gw * len(ys)):
        (x_lo, _, x_hi), (y_lo, _, y_hi) = xs[v % gw], ys[v // gw]
        x_span, y_span = x_hi - x_lo, y_hi - y_lo
        for _ in range(next(counts)):
            label, admit, plan = kinds[pick(cdf, next(floats))]
            for _try in range(_MAX_PLACE_TRIES):
                position = (x_lo + x_span * next(floats), y_lo + y_span * next(floats), 0.0)
                if admit(position):
                    break
            else:
                continue  # room too crowded for this label; skip the object
            attributes: dict[str, str] = {}
            for name, value, values in plan:
                attributes[name] = value if values is None else values[integers(len(values))]
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


def _assign_number_refs(spec: WorldSpec, instances: list[GroundTruthInstance], draws: _Draws) -> None:
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
                    inst.attributes[name] = source_values[draws.integers(len(source_values))]


def _inject_boundary_duplicates(
    spec: WorldSpec,
    xs: _Lines,
    ys: _Lines,
    instances: list[GroundTruthInstance],
    edge_pairs: list[tuple[NodeId, NodeId]],
    draws: _Draws,
) -> None:
    """Copy near-wall objects into the adjacent room's snapshot.

    The copy keeps the exact world position and attributes but gets its own
    instance id, linked by duplicate_of. Only walls with a door (an edge)
    leak detections."""
    if spec.boundary_duplicate_prob == 0:
        return
    doors, gw = set(edge_pairs), spec.grid_w
    duplicates: list[GroundTruthInstance] = []
    for inst in instances:
        v, (x, y, _) = inst.home_node, inst.world_position
        (x_lo, _, x_hi), (y_lo, _, y_hi) = xs[v % gw], ys[v // gw]
        # (gap to a wall, the room behind it); v - 1 and v + 1 are behind a wall only within the row
        sides = [(y_hi - y, v + gw), (y - y_lo, v - gw)]
        if v % gw + 1 < gw:
            sides.append((x_hi - x, v + 1))
        if v % gw > 0:
            sides.append((x - x_lo, v - 1))
        eligible = [(gap, w) for gap, w in sides if gap <= BOUNDARY_BAND_M and (min(v, w), max(v, w)) in doors]
        if eligible and draws.random() < spec.boundary_duplicate_prob:
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

