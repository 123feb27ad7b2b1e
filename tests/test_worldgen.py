from __future__ import annotations

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    CatalogEntry,
    Datagraph,
    GroundTruth,
    GroundTruthInstance,
    OracleBackend,
    Pose,
    Predicate,
    Snapshot,
    TaskSpec,
    TaskUnavailableError,
    WorldSpec,
    WorldSpecError,
    default_catalog,
    generate_world,
    ground_truth_nearest,
    make_keyfob_task,
    make_nearest_search_task,
    make_route_hazard_task,
    proximity_search_first,
)
from datagraph.worldgen import BOUNDARY_BAND_M, _SeparationGrid
from helpers import all_pairs_admits


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
    """Placed positions and candidates for one label, many of them on cell
    edges or exactly one separation away from a placed position."""
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
    placed = draw(st.lists(point, max_size=25))
    candidates = draw(st.lists(point, min_size=1, max_size=10))
    diagonal = separation / math.sqrt(2)
    for x, y, _ in placed[:5]:
        candidates += [
            (x + separation, y, 0.0),
            (x, y - separation, 0.0),
            (x + diagonal, y + diagonal, 0.0),
            (math.nextafter(x + separation, -math.inf), y, 0.0),
        ]
    return separation, room, placed, candidates


@settings(max_examples=300, deadline=None)
@given(separation_cases())
def test_property_grid_hash_decides_like_all_pairs_scan(case):
    separation, room, placed, candidates = case
    grid = _SeparationGrid(separation, room)
    for position in placed:
        grid.add(position, grid.cell(position))
    for candidate in candidates:
        assert grid.admits(candidate, grid.cell(candidate)) == all_pairs_admits(candidate, placed, separation)


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
        assert graph.edge_between(dup.home_node, source.home_node) is not None
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


# --- ground_truth_nearest -------------------------------------------------------


def path_world_with_matches():
    graph = Datagraph()
    for v in range(3):
        graph.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.seal()
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
    graph = Datagraph()
    for v in range(3):
        graph.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.seal()
    gt = GroundTruth(
        (
            GroundTruthInstance(0, "keyfob", {}, (2.0, 0.0, 0.0), 2),
            GroundTruthInstance(1, "keyfob", {}, (2.0, 0.0, 0.0), 1, duplicate_of=0),
        )
    )
    # the duplicate copy in node 1 is closer to agent 0 than the original
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="keyfob")) == (1, 1)


def test_nearest_meters_metric():
    graph = Datagraph()
    for v in range(3):
        graph.add_node(Pose((0.0, 0.0, 0.0)), Snapshot())
    graph.add_edge(0, 1, length_m=10.0)
    graph.add_edge(0, 2, length_m=3.0)
    graph.seal()
    gt = GroundTruth(
        (
            GroundTruthInstance(0, "crate", {}, (0.0, 0.0, 0.0), 1),
            GroundTruthInstance(1, "crate", {}, (0.0, 0.0, 0.0), 2),
        )
    )
    assert ground_truth_nearest(graph, gt, 0, Predicate(label_equals="crate"), "meters") == (2, 3.0)


def test_ground_truth_labels_match_case_insensitively():
    graph = Datagraph()
    for v in range(2):
        graph.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    graph.add_edge(0, 1)
    graph.seal()
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
        assert task.kind == "keyfob_match"
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
    assert task.kind == "nearest_search"
    nearest = ground_truth_nearest(graph, ground_truth, task.agent_node, task.query.predicate)
    assert nearest is not None
    assert task.expected_min_hops == nearest[1]


def test_nearest_search_task_unavailable_in_empty_world():
    graph, ground_truth = generate_world(
        WorldSpec(grid_w=2, grid_h=2, seed=0, objects_per_room_mean=0.0)
    )
    with pytest.raises(TaskUnavailableError):
        make_nearest_search_task(graph, ground_truth, seed=0)


def test_route_hazard_task_route_is_valid():
    graph, ground_truth = generate_world(keyfob_spec(8))
    task = make_route_hazard_task(graph, ground_truth, seed=3)
    assert task.kind == "route_hazard"
    assert task.route is not None and task.route[0] == task.agent_node
    for u, v in zip(task.route, task.route[1:]):
        assert graph.edge_between(u, v) is not None
    assert task.query.mode == "assess_hazard"


def test_task_spec_json_round_trip():
    graph, ground_truth = generate_world(keyfob_spec(12))
    task = make_route_hazard_task(graph, ground_truth, seed=9)
    assert TaskSpec.from_json_dict(task.to_json_dict()) == task


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
        assert result.first_satisfied[1] == oracle[1] == task.expected_min_hops


def test_default_catalog_has_task_labels():
    labels = {entry.label for entry in default_catalog()}
    assert {"door", "keyfob"} <= labels
    hazard_entries = [
        e
        for e in default_catalog()
        if any(d.get("kind") == "const" and d.get("value") == "true" for d in e.attributes.values())
    ]
    assert hazard_entries
