from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datagraph import (
    CatalogEntry,
    GraphParseError,
    GroundTruth,
    GroundTruthInstance,
    OracleBackend,
    Pose,
    Predicate,
    SceneObject,
    Snapshot,
    TaskUnavailableError,
    WorldSpec,
    WorldSpecError,
    default_catalog,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    make_nearest_search_task,
    proximity_search_first,
)
from datagraph.worldgen import BOUNDARY_BAND_M, MAX_OBJECTS, MAX_ROOMS, _SeparationGrid
from helpers import all_pairs_admits, build_graph, eager_geodesic_distances, eager_hop_distances, frontier_graphs


def room_bounds(node, spec):
    i, j = node % spec.grid_w, node // spec.grid_w
    s = spec.room_size_m
    return i * s, (i + 1) * s, j * s, (j + 1) * s


# --- spec validation ---------------------------------------------------------


def test_spec_rejects_bad_grid():
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=0, grid_h=3)


def test_spec_rejects_bad_probability():
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=2, grid_h=2, door_prob=1.5)


def test_spec_rejects_objects_without_catalog():
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=2, grid_h=2, catalog=(), objects_per_room_mean=1.0)


def test_an_empty_catalog_round_trips():
    spec = WorldSpec(grid_w=3, grid_h=3, objects_per_room_mean=0.0, catalog=())
    assert WorldSpec.from_json_dict(spec.to_json_dict()) == spec


def test_a_spec_document_uses_its_catalog_array_as_given():
    doc = {"format_version": 1, "grid_w": 3, "grid_h": 3, "catalog": []}
    with pytest.raises(WorldSpecError, match="objects_per_room_mean > 0 needs a catalog with a positive weight"):
        WorldSpec.from_json_dict(doc)
    del doc["catalog"]  # only a missing catalog takes the default
    assert WorldSpec.from_json_dict(doc).catalog == default_catalog()


def test_spec_rejects_oversized_seed():
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=2, grid_h=2, seed=2**64)


@pytest.mark.parametrize("separation", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_spec_rejects_bad_separation(separation):
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=3, grid_h=3, min_label_separation_m=separation)


def test_spec_rejects_catalog_weights_without_finite_sum():
    catalog = (CatalogEntry("crate", {}, 1e308), CatalogEntry("chair", {}, 1e308))
    with pytest.raises(WorldSpecError):
        WorldSpec(grid_w=2, grid_h=2, catalog=catalog)


def test_catalog_entry_rejects_unknown_generator():
    with pytest.raises(WorldSpecError):
        CatalogEntry("thing", {"x": {"kind": "sequence"}})


@pytest.mark.parametrize("label", [5, None, b"crate", ""])
def test_catalog_entry_rejects_a_label_that_is_no_non_empty_string(label):
    with pytest.raises(WorldSpecError, match="catalog label must be a non-empty string"):
        CatalogEntry(label)


@pytest.mark.parametrize("grid_w, grid_h, room_size_m", [
    (3, 1, 1e308),
    (1, 2, 1e308),
    (2, 2, 9e307),
    (10**400, 1, 1.0),  # too large for a float
])
def test_spec_rejects_a_grid_whose_extent_is_not_finite(grid_w, grid_h, room_size_m):
    with pytest.raises(WorldSpecError, match="grid_w and grid_h times room_size_m must be finite"):
        WorldSpec(grid_w=grid_w, grid_h=grid_h, room_size_m=room_size_m)


def test_spec_accepts_the_largest_finite_extent():
    WorldSpec(grid_w=1, grid_h=1, room_size_m=1e308)
    WorldSpec(grid_w=2, grid_h=3, room_size_m=5e307)


@pytest.mark.parametrize("grid_w, grid_h, objects_per_room_mean", [
    (2**70, 1, 0.0),
    (10**6, 10**6, 2.0),
    (MAX_ROOMS + 1, 1, 2.0),
    (1, MAX_ROOMS + 1, 0.0),
])
def test_spec_refuses_more_rooms_than_can_be_built(grid_w, grid_h, objects_per_room_mean):
    # construction alone refuses it: generation would run until memory runs out
    message = f"^a world holds at most {MAX_ROOMS} rooms, got {grid_w} x {grid_h} = {grid_w * grid_h}$"
    with pytest.raises(WorldSpecError, match=message):
        WorldSpec(grid_w, grid_h, objects_per_room_mean=objects_per_room_mean)


def test_spec_accepts_up_to_the_room_limit():
    assert MAX_ROOMS == 10**7
    WorldSpec(3162, 3162)  # 9,998,244 rooms; only constructed, never generated
    WorldSpec(MAX_ROOMS, 1, objects_per_room_mean=0.0)


@pytest.mark.parametrize("grid_w, grid_h, objects_per_room_mean", [
    (2, 2, 2.0**70),
    (2, 2, 2**70),  # an int too large for numpy's Poisson draw
    (1, 1, 1e12),  # numpy accepts it, and would draw objects for ever
    (MAX_ROOMS, 1, 2.0000001),
])
def test_spec_refuses_more_objects_than_can_be_built(grid_w, grid_h, objects_per_room_mean):
    # construction alone refuses it; it is never generated
    with pytest.raises(WorldSpecError) as excinfo:
        WorldSpec(grid_w, grid_h, objects_per_room_mean=objects_per_room_mean)
    assert str(excinfo.value) == (f"a world holds at most {MAX_OBJECTS} objects, but objects_per_room_mean "
                                  f"{objects_per_room_mean!r} over {grid_w * grid_h} rooms expects more")


def test_spec_accepts_up_to_the_object_limit():
    assert MAX_OBJECTS == 2 * MAX_ROOMS
    WorldSpec(MAX_ROOMS, 1)  # the default mean over the most rooms; only constructed
    WorldSpec(1, 1, objects_per_room_mean=float(MAX_OBJECTS))


@pytest.mark.parametrize("field", [
    "room_size_m", "door_prob", "objects_per_room_mean", "boundary_duplicate_prob", "min_label_separation_m",
])
@pytest.mark.parametrize("value", ["0.5", None, True, [0.5], 10**400])
def test_spec_rejects_a_number_field_of_the_wrong_kind(field, value):
    with pytest.raises(WorldSpecError, match=f"^{field} (must be a number|is too large for a float)"):
        WorldSpec(grid_w=2, grid_h=2, **{field: value})


@pytest.mark.parametrize("weight", ["1", None, False, 10**400])
def test_catalog_entry_rejects_a_weight_of_the_wrong_kind(weight):
    with pytest.raises(WorldSpecError, match="catalog weight for 'crate' (must be a number|is too large)"):
        CatalogEntry("crate", {}, weight)


@pytest.mark.parametrize("room_size_m", [5e-324, 1e-320, sys.float_info.min / 2])
def test_spec_rejects_a_subnormal_room_size(room_size_m):
    # neighboring room centers would round to one float, and their door to length 0
    with pytest.raises(WorldSpecError, match="room_size_m must be positive and at least"):
        WorldSpec(3, 1, room_size_m=room_size_m, seed=1)


def test_the_smallest_normal_room_size_generates_a_valid_world():
    graph, _ = generate_world(WorldSpec(3, 3, room_size_m=sys.float_info.min, seed=1))
    assert graph.validate() == []


def test_an_integer_room_size_is_kept_as_given(tmp_path):
    spec = WorldSpec(grid_w=2, grid_h=2, room_size_m=6, door_prob=1)
    spec.save(tmp_path / "spec.json")
    assert '"room_size_m": 6,' in (tmp_path / "spec.json").read_text()
    assert '"door_prob": 1,' in (tmp_path / "spec.json").read_text()


def test_spec_json_round_trip(tmp_path):
    spec = WorldSpec(grid_w=4, grid_h=3, seed=99, boundary_duplicate_prob=0.2)
    path = tmp_path / "spec.json"
    spec.save(path)
    assert WorldSpec.load(path) == spec


# --- generation --------------------------------------------------------------


def test_single_room_world():
    graph, ground_truth = generate_world(WorldSpec(grid_w=1, grid_h=1, objects_per_room_mean=0.0))
    assert len(graph) == 1
    assert graph.edges() == ()
    assert ground_truth.instances == ()


def test_spanning_tree_floor_with_no_extra_doors():
    graph, _ = generate_world(WorldSpec(grid_w=2, grid_h=2, door_prob=0.0, seed=5))
    assert len(graph.edges()) == 3  # exactly a spanning tree of 4 rooms


def test_worlds_are_connected():
    for seed in range(10):
        graph, _ = generate_world(WorldSpec(grid_w=5, grid_h=4, door_prob=0.1, seed=seed))
        assert len(graph.hop_distances(0)) == len(graph)


def test_generation_is_deterministic_and_byte_identical():
    spec = WorldSpec(grid_w=4, grid_h=4, seed=7, boundary_duplicate_prob=0.4)
    g1, t1 = generate_world(spec)
    g2, t2 = generate_world(spec)
    assert json.dumps(g1.to_json_dict()) == json.dumps(g2.to_json_dict())
    assert json.dumps(t1.to_json_dict()) == json.dumps(t2.to_json_dict())


def test_generated_graphs_validate_clean():
    for seed in (0, 1, 2):
        graph, _ = generate_world(WorldSpec(grid_w=6, grid_h=3, seed=seed))
        assert graph.validate() == []


def test_node_poses_at_room_centers():
    spec = WorldSpec(grid_w=3, grid_h=2, room_size_m=4.0, objects_per_room_mean=0.0)
    graph, _ = generate_world(spec)
    assert graph.node(0).pose.position == (2.0, 2.0, 0.0)
    assert graph.node(4).pose.position == (6.0, 6.0, 0.0)


def test_objects_lie_inside_their_home_room():
    spec = WorldSpec(grid_w=5, grid_h=5, seed=13, objects_per_room_mean=3.0)
    _, ground_truth = generate_world(spec)
    assert ground_truth.physical_instances()
    for inst in ground_truth.physical_instances():
        x_lo, x_hi, y_lo, y_hi = room_bounds(inst.home_node, spec)
        x, y, z = inst.world_position
        assert x_lo <= x <= x_hi and y_lo <= y <= y_hi and z == 0.0


def test_same_label_instances_keep_min_separation():
    spec = WorldSpec(grid_w=5, grid_h=5, seed=21, objects_per_room_mean=3.0)
    _, ground_truth = generate_world(spec)
    physical = ground_truth.physical_instances()
    for i, a in enumerate(physical):
        for b in physical[i + 1 :]:
            if a.label == b.label:
                assert math.dist(a.world_position, b.world_position) >= spec.min_label_separation_m


@st.composite
def separation_cases(draw):
    """Candidate positions for one label, many of them on cell edges or
    exactly one separation away from an earlier candidate."""
    separation = draw(st.sampled_from([0.0, 1e-300, 0.25, 1.1, 7.5, 1e6]) | st.floats(0.0, 20.0))
    room = draw(st.sampled_from([1.0, 4.0, 6.0]))
    side = _SeparationGrid(separation, room).side
    extent = 3 * room
    edges = [k * side for k in range(int(min(extent / side, 40)) + 1)]
    near_edge = st.sampled_from(edges).flatmap(
        lambda e: st.sampled_from([e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)])
    )
    coordinate = st.floats(0.0, extent) | near_edge
    point = st.tuples(coordinate, coordinate).map(lambda xy: (xy[0], xy[1], 0.0))
    first = draw(st.lists(point, max_size=25))
    later = draw(st.lists(point, min_size=1, max_size=10))
    diagonal = separation / math.sqrt(2)
    for x, y, _ in first[:5]:
        later += [
            (x + separation, y, 0.0),
            (x, y - separation, 0.0),
            (x + diagonal, y + diagonal, 0.0),
            (math.nextafter(x + separation, -math.inf), y, 0.0),
        ]
    return separation, room, first + later


@settings(max_examples=300, deadline=None)
@given(separation_cases())
def test_property_grid_hash_decides_like_all_pairs_scan(case):
    separation, room, candidates = case
    grid = _SeparationGrid(separation, room)
    placed = []
    for candidate in candidates:
        admitted = all_pairs_admits(candidate, placed, separation)
        assert grid.admit(candidate) == admitted
        if admitted:
            placed.append(candidate)


@st.composite
def generation_cases(draw):
    """A spec with every attribute generator, separation 0 or crowded rooms,
    boundary duplicates, room sizes from 1e-3 to 1e300 (some of them ints or
    numpy scalars), and catalog labels that are not always non-empty strings."""
    name = st.sampled_from(["number", "color", "hazard"]) | st.text(max_size=3)
    text = st.text(max_size=4)
    good_label = st.sampled_from(["chair", "keyfob", "door", "Crate"]) | st.text(min_size=1, max_size=4)
    bad_label = st.sampled_from([5, None, ""])
    labels = draw(st.lists(st.integers(0, 9).flatmap(lambda k: bad_label if k == 0 else good_label),
                           min_size=1, max_size=4))
    generator = st.one_of(
        st.builds(lambda v: {"kind": "const", "value": v}, text),
        st.builds(lambda vs: {"kind": "choice", "values": vs}, st.lists(text, min_size=1, max_size=3)),
        st.just({"kind": "number_pool"}),
        st.builds(lambda source: {"kind": "number_of", "label": source},
                  st.sampled_from([label for label in labels if label] or ["keyfob"])),
    )
    weights = [draw(st.floats(0.1, 3.0))] + [
        draw(st.just(0.0) | st.floats(0.1, 3.0)) for _ in labels[1:]
    ]
    entries = [(label, draw(st.dictionaries(name, generator, max_size=3)), weight)
               for label, weight in zip(labels, weights)]
    fields = dict(
        grid_w=draw(st.integers(1, 4)),
        grid_h=draw(st.integers(1, 4)),
        room_size_m=draw(st.sampled_from([1e-3, 1.0, 6.0, 1e300, 6, 1, np.float32(6), np.float32(0.3), np.float64(2.5)])
                         | st.floats(1e-3, 8.0) | st.floats(1e-3, 1e300)),
        door_prob=draw(st.floats(0.0, 1.0)),
        objects_per_room_mean=draw(st.sampled_from([0.0, 2.0, 6.0]) | st.floats(0.5, 5.0)),
        boundary_duplicate_prob=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        min_label_separation_m=draw(st.sampled_from([0.0, 1.1, 4.0]) | st.floats(0.0, 5.0)),
    )
    return entries, fields


def assert_rebuilt_alike(record, rebuilt):
    assert rebuilt == record
    assert repr(rebuilt) == repr(record)  # also the types: 0.0 is not 0, a str subclass shows


def crowded_fields(room_size_m):
    return dict(grid_w=2, grid_h=2, room_size_m=room_size_m, door_prob=0.5, objects_per_room_mean=6.0,
                boundary_duplicate_prob=0.5, seed=1, min_label_separation_m=0.0)


@settings(max_examples=200, deadline=None)
@given(generation_cases())
@example(([(5, {}, 1.0)], crowded_fields(6.0)))
@example(([("chair", {"color": {"kind": "const", "value": "red"}}, 1.0)], crowded_fields(np.float32(0.3))))
def test_property_generated_records_equal_their_checked_rebuilds(case):
    """Generation builds its records unchecked, from a spec checked once; each
    must equal the record its checking constructor builds from its fields."""
    entries, fields = case
    try:
        spec = WorldSpec(catalog=tuple(CatalogEntry(*entry) for entry in entries), **fields)
    except WorldSpecError:
        assert any(not isinstance(label, str) or not label for label, _, _ in entries)
        return
    graph, ground_truth = generate_world(spec)
    for node in graph.nodes():
        assert_rebuilt_alike(node.pose, Pose(node.pose.position))
        for obj in node.snapshot.objects:
            assert_rebuilt_alike(obj, SceneObject(obj.label, obj.attributes, obj.world_position, obj.instance_id))
        assert_rebuilt_alike(node.snapshot, Snapshot(node.snapshot.objects))
    for inst in ground_truth.instances:
        rebuilt = GroundTruthInstance(inst.instance_id, inst.label, inst.attributes, inst.world_position,
                                      inst.home_node, inst.duplicate_of)
        assert_rebuilt_alike(inst, rebuilt)
    objects = [obj for node in graph.nodes() for obj in node.snapshot.objects]
    assert len({id(obj.attributes) for obj in objects}) == len(objects)  # one attributes dict each
    assert graph.validate() == []


# SHA-256 of each saved world followed by its saved ground truth, as the
# all-pairs separation scan and rng.choice catalog picks generated them; the
# grid hash and the inverse-CDF picks must reproduce them byte for byte
PINNED_WORLDS = [
    (
        WorldSpec(grid_w=5, grid_h=4, seed=7),
        "2536e82532219740111c6100f0cf2d6a2bc105fee5786fe67d527ce206d6bb8b",
    ),
    (
        WorldSpec(grid_w=8, grid_h=8, seed=2024, boundary_duplicate_prob=0.3),
        "14889cb05e27bfda2d3b29835c1c74975b64cfb19f90be85d8ab691f9c46b29e",
    ),
    (  # crowded: retries and skipped objects, plus a zero-weight catalog entry
        WorldSpec(
            grid_w=6,
            grid_h=6,
            seed=99,
            room_size_m=4.0,
            objects_per_room_mean=6.0,
            min_label_separation_m=3.0,
            catalog=default_catalog() + (CatalogEntry("beacon", {}, 0.0),),
        ),
        "991e5da660fa5a2161410b1a30bd2769977096d8af0ed4fd534114ae7e72e6b0",
    ),
    (  # one column, then one row: a room's side neighbours are not its neighbours above
        WorldSpec(grid_w=1, grid_h=12, seed=5, boundary_duplicate_prob=0.6, objects_per_room_mean=4.0),
        "504ef4387943590c08a17ef1eeb8d205b563cef9a4296bd9bfe60cee1bfa34da",
    ),
    (
        WorldSpec(grid_w=12, grid_h=1, seed=5, boundary_duplicate_prob=0.6, objects_per_room_mean=4.0),
        "2eaaa516fe873bed22f287d98c7b9f7725e1e6d66729cae8d0fadf3b0afc0ccf",
    ),
]


@pytest.mark.parametrize("spec, digest", PINNED_WORLDS)
def test_saved_world_bytes_are_pinned(tmp_path, spec, digest):
    graph, ground_truth = generate_world(spec)
    graph.save(tmp_path / "world.json")
    ground_truth.save(tmp_path / "truth.json")
    blob = (tmp_path / "world.json").read_bytes() + (tmp_path / "truth.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest


# SHA-256 over the saved world and ground-truth bytes of 40 worlds (6x6 and
# 24x24, boundary_duplicate_prob 0 and 0.3, seeds 0-9, in that nesting order),
# as world generation wrote them before worlds went through the bulk builder
FORTY_WORLDS_DIGEST = "baf863f8a77b8122c7cb5c01ed624e6175472226f0f36fa7dcff5830daacc8d2"


def test_forty_saved_worlds_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for size in (6, 24):
        for dup_prob in (0.0, 0.3):
            for seed in range(10):
                spec = WorldSpec(grid_w=size, grid_h=size, boundary_duplicate_prob=dup_prob, seed=seed)
                graph, ground_truth = generate_world(spec)
                graph.save(tmp_path / "world.json")
                ground_truth.save(tmp_path / "truth.json")
                digest.update((tmp_path / "world.json").read_bytes())
                digest.update((tmp_path / "truth.json").read_bytes())
    assert digest.hexdigest() == FORTY_WORLDS_DIGEST


def test_snapshot_contents_match_ground_truth():
    spec = WorldSpec(grid_w=4, grid_h=4, seed=3, boundary_duplicate_prob=0.5)
    graph, ground_truth = generate_world(spec)
    by_node = {}
    for inst in ground_truth.instances:
        by_node.setdefault(inst.home_node, []).append(inst)
    for v in range(len(graph)):
        snapshot_ids = [obj.instance_id for obj in graph.node(v).snapshot.objects]
        assert snapshot_ids == [inst.instance_id for inst in by_node.get(v, [])]


def test_boundary_duplicates_structure():
    spec = WorldSpec(grid_w=6, grid_h=6, seed=29, objects_per_room_mean=3.0, boundary_duplicate_prob=1.0)
    graph, ground_truth = generate_world(spec)
    originals = {i.instance_id: i for i in ground_truth.physical_instances()}
    duplicates = [i for i in ground_truth.instances if i.duplicate_of is not None]
    assert duplicates, "duplicate_prob=1.0 on a dense world should inject duplicates"
    for dup in duplicates:
        source = originals[dup.duplicate_of]
        assert dup.label == source.label
        assert dup.attributes == source.attributes
        assert dup.world_position == source.world_position
        assert graph.edge_length(dup.home_node, source.home_node) is not None
        # the recorded position hugs the wall shared with the neighbor room
        x_lo, x_hi, y_lo, y_hi = room_bounds(source.home_node, spec)
        x, y, _ = source.world_position
        gap = min(x - x_lo, x_hi - x, y - y_lo, y_hi - y)
        assert gap <= BOUNDARY_BAND_M
        # ids stay globally unique
    ids = [i.instance_id for i in ground_truth.instances]
    assert len(ids) == len(set(ids))


def test_no_duplicates_when_probability_zero():
    _, ground_truth = generate_world(WorldSpec(grid_w=5, grid_h=5, seed=1, boundary_duplicate_prob=0.0))
    assert all(i.duplicate_of is None for i in ground_truth.instances)


def test_ground_truth_round_trip(tmp_path):
    _, ground_truth = generate_world(WorldSpec(grid_w=3, grid_h=3, seed=77, boundary_duplicate_prob=0.3))
    path = tmp_path / "gt.json"
    ground_truth.save(path)
    assert GroundTruth.load(path) == ground_truth


@pytest.mark.parametrize("dup_prob", [0.0, 0.3])
def test_ground_truth_load_save_is_byte_identical(tmp_path, dup_prob):
    for seed in range(5):
        _, ground_truth = generate_world(WorldSpec(grid_w=6, grid_h=5, seed=seed, boundary_duplicate_prob=dup_prob))
        original, again = tmp_path / f"gt{seed}.json", tmp_path / f"again{seed}.json"
        ground_truth.save(original)
        GroundTruth.load(original).save(again)
        assert again.read_bytes() == original.read_bytes()


def _instance_doc(**changes):
    doc = {"instance_id": 0, "label": "keyfob", "attributes": {"number": "4"},
           "world_position": [1.0, 2.0, 0.0], "home_node": 0, "duplicate_of": None}
    return {**doc, **changes}


@pytest.mark.parametrize(
    "instance, message",
    [
        pytest.param(_instance_doc(label=5), "label must be a string, got 5", id="label-int"),
        pytest.param(_instance_doc(label=""), "label must be non-empty", id="label-empty"),
        pytest.param(_instance_doc(world_position=[1.0, 2.0]), "world_position must be a sequence of 3 numbers",
                     id="position-short"),
        pytest.param(_instance_doc(world_position="123"), "world_position must be a sequence of 3 numbers",
                     id="position-string"),
        pytest.param(_instance_doc(world_position=[1.0, 10**400, 0.0]),
                     "world_position component is too large for a float", id="position-overflow"),
        pytest.param(_instance_doc(world_position=[1.0, math.nan, 0.0]), "world_position components must be finite",
                     id="position-nan"),
        pytest.param(_instance_doc(attributes={"number": 4}), "attributes must map str to str, got 'number': 4",
                     id="attribute-int"),
        pytest.param(_instance_doc(home_node="0"), "home_node must be an integer, got '0'", id="home-node-string"),
        pytest.param(_instance_doc(instance_id=True), "instance_id must be an integer, got True", id="id-bool"),
        pytest.param(_instance_doc(duplicate_of=0.0), "duplicate_of must be an integer, got 0.0",
                     id="duplicate-of-float"),
        pytest.param({"label": "keyfob"}, "missing field 'instance_id'", id="missing-field"),
        pytest.param(["keyfob"], "instance must be a JSON object", id="not-an-object"),
    ],
)
def test_ground_truth_load_rejects_bad_fields(tmp_path, instance, message):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"format_version": 1, "instances": [_instance_doc(), instance]}))
    with pytest.raises(GraphParseError, match=r"^ground truth instances\[1\]: ") as excinfo:
        GroundTruth.load(path)
    assert message in str(excinfo.value)


@pytest.mark.parametrize(
    "instances, bad",
    [
        pytest.param([_instance_doc(instance_id=1, duplicate_of=999)], 1, id="no-such-instance"),
        pytest.param([_instance_doc(instance_id=1, duplicate_of=1)], 1, id="self-reference"),
        pytest.param(
            [_instance_doc(instance_id=1, duplicate_of=0), _instance_doc(instance_id=2, duplicate_of=1)], 2, id="chain"
        ),
    ],
)
def test_ground_truth_duplicate_of_must_name_a_physical_instance(tmp_path, instances, bad):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps({"format_version": 1, "instances": [_instance_doc(), *instances]}))
    with pytest.raises(GraphParseError, match=rf"^ground truth instances\[{bad}\]: duplicate_of "):
        GroundTruth.load(path)


def test_ground_truth_instance_rejects_wrong_kinds_with_value_error():
    with pytest.raises(ValueError):
        GroundTruthInstance(0, 5, {}, (0.0, 0.0, 0.0), 0)
    with pytest.raises(ValueError):
        GroundTruthInstance(0, "keyfob", {}, (0.0, 0.0), 0)
    with pytest.raises(ValueError):
        GroundTruthInstance(0, "keyfob", {}, (0.0, 0.0, 0.0), 1.0)


# --- memory and copies -------------------------------------------------------------


def test_generated_world_stays_under_a_memory_budget_per_room():
    """Live bytes of a 40x40 world plus its ground truth, traced after a full
    collection. Slotted records keep it near 2.0 KB per room; an instance
    ``__dict__`` per record would take it to about 2.9 KB."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph, ground_truth = generate_world(WorldSpec(grid_w=40, grid_h=40, seed=0))
        gc.collect()
        per_room = (tracemalloc.get_traced_memory()[0] - before) / len(graph)
    finally:
        tracemalloc.stop()
    assert ground_truth.instances
    assert per_room < 2400, f"{per_room:.0f} B/room"


def test_world_records_are_slotted():
    graph, ground_truth = generate_world(WorldSpec(grid_w=3, grid_h=3, seed=1))
    node = next(n for n in graph.nodes() if n.snapshot.objects)
    records = [node, node.pose, node.snapshot, node.snapshot.objects[0], graph.edges()[0],
               ground_truth.instances[0]]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):  # no ad-hoc attribute, even past the frozen check
            object.__setattr__(record, "note", "x")


@pytest.mark.parametrize("duplicate", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_world_copies_compare_equal(duplicate):
    graph, ground_truth = generate_world(WorldSpec(grid_w=6, grid_h=6, seed=3, boundary_duplicate_prob=0.3))
    graph_copy, truth_copy = duplicate((graph, ground_truth))
    assert graph_copy is not graph and graph_copy == graph
    assert truth_copy is not ground_truth and truth_copy == ground_truth
    assert graph_copy.validate() == []  # both ends of each edge still hold one Edge


# --- ground_truth_nearest -------------------------------------------------------


def path_world_with_matches():
    graph = build_graph(3, [(0, 1), (1, 2)])
    instances = (
        GroundTruthInstance(0, "keyfob", {}, (0.0, 0.0, 0.0), 0),
        GroundTruthInstance(1, "keyfob", {}, (2.0, 0.0, 0.0), 2),
    )
    return graph, GroundTruth(instances)


def test_nearest_match_in_agent_node():
    graph, gt = path_world_with_matches()
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="keyfob")) == (0, 0)


def test_nearest_no_match_is_none():
    graph, gt = path_world_with_matches()
    assert ground_truth_nearest(graph, gt, 1, Predicate(label_equals="door")) is None


def test_nearest_tie_breaks_on_node_id():
    graph, gt = path_world_with_matches()
    assert ground_truth_nearest(graph, gt, 1, Predicate(label_equals="keyfob")) == (0, 1)


def test_nearest_counts_duplicate_copies_at_their_nodes():
    graph = build_graph(3, [(0, 1), (1, 2)])
    gt = GroundTruth(
        (
            GroundTruthInstance(0, "keyfob", {}, (2.0, 0.0, 0.0), 2),
            GroundTruthInstance(1, "keyfob", {}, (2.0, 0.0, 0.0), 1, duplicate_of=0),
        )
    )
    # the duplicate copy in node 1 is closer to agent 0 than the original
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="keyfob")) == (1, 1)


def test_nearest_meters_metric():
    graph = build_graph(3, [(0, 1, 10.0), (0, 2, 3.0)], positions=[(0.0, 0.0, 0.0)] * 3)
    gt = GroundTruth(
        (
            GroundTruthInstance(0, "crate", {}, (0.0, 0.0, 0.0), 1),
            GroundTruthInstance(1, "crate", {}, (0.0, 0.0, 0.0), 2),
        )
    )
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="crate"), "meters") == (2, 3.0)


def scanned_nearest(graph, ground_truth, agent, label, metric):
    """The nearest ``label`` by exhaustive scan: the smallest ``(distance, id)``
    over every home of a matching instance in the agent's full map."""
    full = (eager_hop_distances if metric == "hops" else eager_geodesic_distances)(graph, agent)
    homes = {inst.home_node for inst in ground_truth.instances if inst.label.lower() == label}
    best = min(((full[v], v) for v in homes if v in full), default=None)
    return None if best is None else (best[1], best[0])


@given(
    st.integers(1, 7), st.integers(1, 7), st.integers(0, 10_000),
    st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([6.0, 0.3, 1e16]), st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_nearest_equals_an_exhaustive_scan_on_generated_worlds(w, h, seed, duplicates, room, data):
    graph, ground_truth = generate_world(WorldSpec(
        w, h, room_size_m=room, boundary_duplicate_prob=duplicates, seed=seed, min_label_separation_m=0.0,
    ))
    labels = sorted({inst.label for inst in ground_truth.instances}) + ["nothing"]
    for _ in range(4):
        agent = data.draw(st.integers(0, len(graph) - 1))
        label = data.draw(st.sampled_from(labels))
        for metric in ("hops", "meters"):
            found = ground_truth_nearest(graph, ground_truth, agent, Predicate(label_equals=label), metric)
            assert found == scanned_nearest(graph, ground_truth, agent, label, metric)


@given(frontier_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_property_nearest_equals_an_exhaustive_scan_on_random_graphs(graph, data):
    """Unconnected graphs, untraversable edges, and lengths that a float sum
    absorbs, so a candidate can tie one that settles before it; each home
    may also hold a duplicate of an instance homed elsewhere."""
    n = len(graph)
    homes = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    instances = [GroundTruthInstance(i, "crate", {}, (0.0, 0.0, 0.0), v) for i, v in enumerate(homes)]
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if instances:
            instances.append(GroundTruthInstance(len(instances), "crate", {}, (0.0, 0.0, 0.0), v, duplicate_of=0))
    ground_truth = GroundTruth(tuple(instances))
    for agent in range(n):
        for metric in ("hops", "meters"):
            found = ground_truth_nearest(graph, ground_truth, agent, Predicate(label_equals="crate"), metric)
            assert found == scanned_nearest(graph, ground_truth, agent, "crate", metric)


def test_nearest_reads_past_the_first_hit_to_a_tie_that_settles_later():
    # 1e16 + 1.0 rounds to 1e16: node 1 ties node 2 but is reached through it
    graph = build_graph(3, [(0, 2, 1e16), (1, 2, 1.0)])
    assert list(graph.geodesic_distances(0)) == [0, 2, 1]
    gt = GroundTruth(tuple(GroundTruthInstance(i, "crate", {}, (0.0, 0.0, 0.0), v) for i, v in enumerate((2, 1))))
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="crate"), "meters") == (1, 1e16)


def test_ground_truth_labels_match_case_insensitively():
    graph = build_graph(2, [(0, 1)])
    gt = GroundTruth((GroundTruthInstance(0, "Chair", {"color": "red"}, (1.0, 0.0, 0.0), 1),))
    for label in ("chair", "CHAIR", "Chair"):
        predicate = Predicate(label_equals=label)
        assert gt.count_matching(predicate) == 1
        assert ground_truth_nearest(graph, gt, 0, predicate) == (1, 1)
    assert gt.count_matching(Predicate(label_equals="chair", attribute_equals={"color": "Red"})) == 0


# --- tasks --------------------------------------------------------------------


def keyfob_spec(seed):
    return WorldSpec(grid_w=6, grid_h=6, seed=seed, objects_per_room_mean=2.0)


def test_keyfob_task_reads_back_placement():
    for seed in range(5):
        graph, ground_truth = generate_world(keyfob_spec(seed))
        try:
            task = make_keyfob_task(graph, ground_truth, seed=1000 + seed)
        except TaskUnavailableError:
            continue
        number = dict(task.query.predicate.attribute_equals)["number"]
        doors = [
            i
            for i in ground_truth.physical_instances()
            if i.label == "door" and i.attributes.get("number") == number
        ]
        assert any(d.home_node == task.agent_node for d in doors)
        matches = [
            i
            for i in ground_truth.physical_instances()
            if i.label == "keyfob" and i.attributes.get("number") == number
        ]
        assert len(matches) == 1


def test_keyfob_task_unavailable_without_keyfobs():
    catalog = (CatalogEntry("door", {}, 1.0),)
    spec = WorldSpec(grid_w=3, grid_h=3, seed=2, catalog=catalog, objects_per_room_mean=2.0)
    graph, ground_truth = generate_world(spec)
    with pytest.raises(TaskUnavailableError):
        make_keyfob_task(graph, ground_truth, seed=0)


def test_keyfob_task_unavailable_when_every_door_number_is_on_two_keyfobs():
    graph = build_graph(3, [(0, 1), (1, 2)])
    placed = [("door", "4", 0), ("door", "7", 2), ("keyfob", "4", 1), ("keyfob", "4", 2),
              ("keyfob", "7", 0), ("keyfob", "7", 1), ("keyfob", "9", 1)]  # no door takes the one 9
    ground_truth = GroundTruth(tuple(
        GroundTruthInstance(i, label, {"number": number}, (float(node), 0.0, 0.0), node)
        for i, (label, number, node) in enumerate(placed)
    ))
    with pytest.raises(TaskUnavailableError, match="^no door is keyed to exactly one keyfob$"):
        make_keyfob_task(graph, ground_truth, seed=0)


def test_many_seeded_keyfob_tasks_have_unique_match():
    made = 0
    for seed in range(40):
        graph, ground_truth = generate_world(keyfob_spec(seed))
        try:
            task = make_keyfob_task(graph, ground_truth, seed=seed)
        except TaskUnavailableError:
            continue
        made += 1
        assert ground_truth.count_matching(task.query.predicate) == 1
    assert made >= 30  # ample doors and keyfobs at these densities


def test_nearest_search_task_consistent_with_oracle():
    graph, ground_truth = generate_world(keyfob_spec(31))
    task = make_nearest_search_task(graph, ground_truth, seed=4)
    label = task.query.predicate.label_equals
    assert label in {inst.label for inst in ground_truth.physical_instances()}
    assert ground_truth_nearest(graph, ground_truth, task.agent_node, task.query.predicate) is not None


def test_nearest_search_task_unavailable_in_empty_world():
    graph, ground_truth = generate_world(
        WorldSpec(grid_w=2, grid_h=2, seed=0, objects_per_room_mean=0.0)
    )
    with pytest.raises(TaskUnavailableError):
        make_nearest_search_task(graph, ground_truth, seed=0)


# --- module-boundary contract -----------------------------------------------------


def test_search_first_agrees_with_oracle_across_worlds():
    for seed in range(15):
        spec = WorldSpec(grid_w=5, grid_h=4, seed=seed, objects_per_room_mean=1.0)
        graph, ground_truth = generate_world(spec)
        try:
            task = make_nearest_search_task(graph, ground_truth, seed=seed * 7 + 1)
        except TaskUnavailableError:
            continue
        result = proximity_search_first(graph, OracleBackend(), task.query, task.agent_node)
        oracle = ground_truth_nearest(graph, ground_truth, task.agent_node, task.query.predicate)
        assert oracle is not None
        assert result.first_satisfied is not None
        assert result.first_satisfied[1] == oracle[1]


def test_default_catalog_has_task_labels():
    labels = {entry.label for entry in default_catalog()}
    assert {"door", "keyfob"} <= labels
    hazard_entries = [
        e
        for e in default_catalog()
        if any(d.get("kind") == "const" and d.get("value") == "true" for d in e.attributes.values())
    ]
    assert hazard_entries
