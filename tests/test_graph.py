from __future__ import annotations

import copy
import json
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from datagraph import (
    Datagraph,
    Edge,
    GraphParseError,
    GraphValidationError,
    GroundTruthInstance,
    MissingNodeError,
    Node,
    OracleBackend,
    Pose,
    Predicate,
    Query,
    QueryResponse,
    SceneObject,
    Snapshot,
    WorldSpec,
    generate_world,
    proximity_query_all,
)
from datagraph.cli import main
from helpers import (
    LOOPS,
    bfs_visit_order,
    build_graph,
    eager_geodesic_distances,
    eager_hop_distances,
    eager_shortest_path,
    edge_dict,
    edge_lists,
    frontier_edges,
    frontier_graphs,
    heap_dijkstra,
    queue_bfs_levels,
    random_decorated_graph,
    simple_path_distances,
)


@pytest.fixture
def path_graph():
    # 0 - 1 - 2 with unit spacing
    return build_graph(3, [(0, 1), (1, 2)])


# --- types -------------------------------------------------------------------


def test_pose_rejects_non_finite_position():
    with pytest.raises(ValueError):
        Pose((0.0, float("nan"), 0.0))


def test_pose_rejects_denormalized_quaternion():
    with pytest.raises(ValueError):
        Pose((0, 0, 0), (1.0, 1.0, 0.0, 0.0))
    Pose((0, 0, 0), (1.0, 0.0, 0.0, 0.0))  # unit quaternion accepted


def test_scene_object_requires_label():
    with pytest.raises(ValueError):
        SceneObject("")


def test_empty_snapshot_is_valid():
    assert Snapshot().objects == ()


def test_scene_digest_names_the_scene_content_only():
    chair = SceneObject("chair", {"color": "red"}, (1.0, 0.0, 0.0), 0)
    scenes = [Snapshot(), Snapshot((), "scene://0"), Snapshot((chair,)), Snapshot((replace(chair, instance_id=1),))]
    digests = [scene.digest for scene in scenes]
    assert len(set(digests)) == 4 and all(len(d) == 16 and int(d, 16) >= 0 for d in digests)
    fresh = Snapshot((chair,))
    assert fresh == scenes[2] and repr(fresh) == repr(scenes[2])  # computed or not, it is no field
    assert fresh.digest == digests[2]


def test_saved_and_loaded_worlds_keep_their_scene_digests(tmp_path):
    graph, _ = generate_world(WorldSpec(6, 6, seed=3, boundary_duplicate_prob=0.3))
    path = tmp_path / "world.json"
    graph.save(path)
    loaded = Datagraph.load(path)
    scenes = [node.snapshot for node in graph.nodes() + loaded.nodes()]
    assert all(scene._digest is None for scene in scenes)  # generation, save and load compute none
    assert [node.snapshot.digest for node in loaded.nodes()] == [node.snapshot.digest for node in graph.nodes()]
    saved = path.read_bytes()
    graph.save(path)
    assert path.read_bytes() == saved and loaded == graph
    assert graph != object()  # another type is not equal, nor an error


# --- construction ---------------------------------------------------------------


def test_added_nodes_keep_their_snapshots():
    snap_a = Snapshot((SceneObject("keyfob", {"number": "42"}, (0, 0, 0), 1),))
    snap_b = Snapshot((), payload_ref="scene://b")
    g = Datagraph([Node(0, Pose((0, 0, 0)), snap_a), Node(1, Pose((1, 0, 0)), snap_b)], [])
    assert g.node(0).snapshot == snap_a
    assert g.node(1).snapshot == snap_b


def _violations(n, edges):
    """The (invariant, detail) list the constructor refuses ``edges`` on ``n`` nodes with."""
    with pytest.raises(GraphValidationError) as excinfo:
        build_graph(n, edges)
    return [(v.invariant, v.detail) for v in excinfo.value.violations]


def test_self_loop_rejected():
    assert _violations(1, [(0, 0, 1.0)]) == [("self-loop", "edge on node 0")]


def test_duplicate_edge_rejected_either_direction():
    assert _violations(2, [(0, 1), (1, 0)]) == [("duplicate-edge", "edges[1] repeats pair (0, 1)")]
    assert _violations(2, [(0, 1), (0, 1)]) == [("duplicate-edge", "edges[1] repeats pair (0, 1)")]


def test_edge_to_missing_node():
    assert _violations(1, [(0, 7, 1.0)]) == [("edge-endpoint", "edge {0, 7} endpoint missing")]


def test_non_positive_length_rejected():
    assert _violations(2, [(0, 1, 0.0)]) == [("edge-length", "edge {0, 1} has length 0.0")]
    assert _violations(2, [(0, 1, -2.0)]) == [("edge-length", "edge {0, 1} has length -2.0")]


def test_coincident_poses_need_explicit_length():
    with pytest.raises(GraphValidationError) as excinfo:
        build_graph(2, [(0, 1)], positions=[(1, 1, 0), (1, 1, 0)])
    assert [v.invariant for v in excinfo.value.violations] == ["edge-length"]
    assert build_graph(2, [(0, 1, 0.5)], positions=[(1, 1, 0), (1, 1, 0)]).edges()[0].length_m == 0.5


def test_constructor_refuses_nodes_out_of_id_order():
    nodes = [Node(0, Pose((0, 0, 0)), Snapshot()), Node(2, Pose((1, 0, 0)), Snapshot())]
    with pytest.raises(GraphValidationError) as excinfo:
        Datagraph(nodes, [(0, 1, True, 1.0)])
    assert [str(v) for v in excinfo.value.violations] == ["node-id-density: nodes[1] has id 2, expected 1"]


@pytest.mark.parametrize(
    "edge, message",
    [
        (("0", 2, True, 1.0), "edges[1]: a must be an integer, got '0'"),
        ((0, True, True, 1.0), "edges[1]: b must be an integer, got True"),
        ((0, 2, 1, 1.0), "edges[1]: traversable must be a boolean, got 1"),
        ((0, 2, True, "1.5"), "edges[1]: length_m must be a number, got '1.5'"),
    ],
    ids=["a", "b", "traversable", "length_m"],
)
def test_constructor_refuses_an_edge_field_of_the_wrong_kind(edge, message):
    nodes = [Node(v, Pose((float(v), 0.0, 0.0)), Snapshot()) for v in range(3)]
    with pytest.raises(ValueError) as excinfo:
        Datagraph(nodes, [(0, 1, True, 1.0), edge])
    assert str(excinfo.value) == message


def test_constructor_stores_real_lengths_and_integral_ids_as_floats_and_ints(tmp_path):
    np = pytest.importorskip("numpy")
    nodes = [Node(v, Pose((float(v), 0.0, 0.0)), Snapshot()) for v in range(3)]
    g = Datagraph(nodes, [(0, 1, True, 2), (np.int64(2), np.int64(1), False, np.float32(0.5))])
    assert g.edges() == (Edge(0, 1, True, 2.0), Edge(1, 2, False, 0.5))
    assert all(type(e.a) is int and type(e.b) is int and type(e.length_m) is float for e in g.edges())
    g.save(tmp_path / "world.json")
    assert Datagraph.load(tmp_path / "world.json") == g


# --- neighbors: the edge reads ---------------------------------------------------


def test_neighbors_on_path(path_graph):
    assert [w for w in range(3) if path_graph.edge_length(1, w) is not None] == [0, 2]
    assert path_graph.edge_length(0, 2) is None and path_graph.edge_count == 2


def test_neighbors_isolated_node():
    g = build_graph(1, [])
    assert g.edge_length(0, 0) is None and g.edge_count == 0


def test_neighbors_sorted_regardless_of_insertion_order():
    # star: center 0, leaves wired 3, 1, 2 in that order
    g = build_graph(4, [(0, 3), (0, 1), (0, 2)])
    assert [g.edge_length(0, w) for w in (1, 2, 3)] == [1.0, 2.0, 3.0]
    assert list(g.hop_distances(0)) == [0, 1, 2, 3]


def test_neighbors_unknown_id(path_graph):
    for a, b in ((9, 0), (0, 9), (-1, 0), (True, 1)):
        with pytest.raises(MissingNodeError):
            path_graph.edge_length(a, b)


def test_neighbors_traversable_filter():
    g = build_graph(3, [(0, 1, None, True), (0, 2, None, False)])
    assert g.hop_distances(0) == {0: 0, 1: 1, 2: 1}
    assert g.hop_distances(0, traversable_only=True) == {0: 0, 1: 1}
    assert g.edge_length(0, 2) == 2.0  # a closed edge still has its length


# --- distances -----------------------------------------------------------------


def test_hop_distances_path(path_graph):
    assert path_graph.hop_distances(0) == {0: 0, 1: 1, 2: 2}


def test_hop_distances_skips_unreachable():
    g = build_graph(3, [(0, 1)])
    assert g.hop_distances(0) == {0: 0, 1: 1}


def test_hop_distances_four_cycle_matches_enumeration():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = build_graph(4, edges)
    expected = simple_path_distances(4, edge_dict(g), 0, weighted=False)
    assert g.hop_distances(0) == {v: int(d) for v, d in expected.items()}
    assert g.hop_distances(0) == {0: 0, 1: 1, 3: 1, 2: 2}


def test_geodesic_distances_path():
    g = build_graph(3, [(0, 1, 5.0), (1, 2, 5.0)])
    assert g.geodesic_distances(0) == {0: 0.0, 1: 5.0, 2: 10.0}


def test_geodesic_triangle_detour_wins():
    g = build_graph(3, [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 25.0)])
    expected = simple_path_distances(3, edge_dict(g), 0, weighted=True)
    got = g.geodesic_distances(0)
    assert got == expected
    assert got[2] == 20.0


def test_geodesic_isolated_source():
    g = build_graph(2, [])
    assert g.geodesic_distances(0) == {0: 0.0}


# --- shortest paths ----------------------------------------------------------------


def test_shortest_path_on_path_graph(path_graph):
    assert path_graph.shortest_path(0, 2) == [0, 1, 2]


def test_shortest_path_same_node(path_graph):
    assert path_graph.shortest_path(1, 1) == [1]


def test_shortest_path_disconnected_is_none():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert g.shortest_path(0, 3) is None


def test_shortest_path_lexicographic_tie_break():
    # 4-cycle with equal lengths: both [0,1,2] and [0,3,2] are 2 hops
    g = build_graph(
        4,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
        positions=[(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
    )
    assert g.shortest_path(0, 2, metric="hops") == [0, 1, 2]
    assert g.shortest_path(0, 2, metric="meters") == [0, 1, 2]


def test_shortest_path_meters_prefers_light_detour():
    g = build_graph(3, [(0, 1, 10.0), (1, 2, 10.0), (0, 2, 25.0)])
    assert g.shortest_path(0, 2, metric="meters") == [0, 1, 2]
    assert g.shortest_path(0, 2, metric="hops") == [0, 2]


def test_shortest_path_traversable_only():
    g = build_graph(3, [(0, 1, None, True), (1, 2, None, True), (0, 2, None, False)])
    assert g.shortest_path(0, 2) == [0, 2]
    assert g.shortest_path(0, 2, traversable_only=True) == [0, 1, 2]


def test_shortest_path_rejects_unknown_metric(path_graph):
    with pytest.raises(ValueError):
        path_graph.shortest_path(0, 2, metric="furlongs")


# --- validation -----------------------------------------------------------------


def test_validate_clean_graph(path_graph):
    assert path_graph.validate() == []


def _relist(graph, v, entries):
    """Store ``entries``, ``(neighbor, length_m)`` pairs, as node ``v``'s
    ``_pairs`` and their ids as its ``_ids``."""
    pairs, ids = list(graph._pairs), list(graph._ids)
    pairs[v], ids[v] = tuple(entries), tuple(w for w, _ in entries)
    graph._pairs, graph._ids = tuple(pairs), tuple(ids)


def _found(graph):
    """``graph.validate()`` as (invariant, detail) pairs."""
    return [(v.invariant, v.detail) for v in graph.validate()]


def _adjacency_fault(name):
    return [("adjacency", f"{name} differs from the graph its edge rows build")]


# validate() rebuilds the graph from its edge rows, each read at its lower
# end: a fault the constructor refuses comes back as the constructor's
# violation, and any other tampering as one adjacency violation


def test_validate_reports_asymmetric_adjacency(path_graph):
    _relist(path_graph, 0, [])  # drop 0 -> 1 while 1 -> 0 survives
    assert _found(path_graph) == _adjacency_fault("_pairs")


def test_validate_reports_ends_listing_unequal_lengths(path_graph):
    _relist(path_graph, 0, [(1, 2.5)])  # 1 still lists 0 at 1.0 m
    assert _found(path_graph) == _adjacency_fault("_pairs")


def test_validate_reports_neighbor_ids_out_of_order(path_graph):
    _relist(path_graph, 1, path_graph._pairs[1][::-1])
    assert _found(path_graph) == _adjacency_fault("_pairs")


def test_validate_reports_repeated_neighbor_ids(path_graph):
    _relist(path_graph, 0, path_graph._pairs[0] * 2)
    assert _found(path_graph) == [("duplicate-edge", "edges[1] repeats pair (0, 1)")]


def test_validate_reports_an_out_of_range_neighbor(path_graph):
    _relist(path_graph, 2, path_graph._pairs[2] + ((3, 1.0),))
    assert _found(path_graph) == [("edge-endpoint", "edge {2, 3} endpoint missing")]


def test_validate_reports_pairs_that_do_not_line_up_with_the_ids(path_graph):
    path_graph._ids = ((2,), (0, 2), (1,))
    assert _found(path_graph) == _adjacency_fault("_ids")


def test_validate_reports_a_traversable_view_that_disagrees_with_the_closed_set():
    graph = build_graph(3, [(0, 1, 1.0, False), (1, 2, 1.0)])
    sub = graph._traversable
    assert graph.validate() == [] and sub._ids == ((), (2,), (1,)) and sub._closed == frozenset()
    _relist(sub, 0, graph._pairs[0])  # 0 -> 1 open at 0, closed at 1
    assert _found(graph) == _adjacency_fault("_traversable")
    _relist(sub, 0, ())
    sub._ids = ((1,),) + sub._ids[1:]  # the pairs agree, the ids do not
    assert _found(graph) == _adjacency_fault("_traversable._ids")
    graph._traversable = None  # a closed edge, but no subgraph
    assert _found(graph) == _adjacency_fault("_traversable")


def test_validate_reports_a_closed_pair_that_is_no_edge(path_graph):
    path_graph._closed = frozenset({(0, 2)})
    assert _found(path_graph) == _adjacency_fault("_closed")


def test_validate_reports_bad_length_injected_past_construction():
    g = build_graph(2, [(0, 1)])
    _relist(g, 0, [(1, 0.0)])
    _relist(g, 1, [(0, 0.0)])
    assert _found(g) == [("edge-length", "edge {0, 1} has length 0.0")]


# --- serialization -----------------------------------------------------------------


def test_round_trip_empty_graph(tmp_path):
    g = Datagraph([], [])
    path = tmp_path / "empty.json"
    g.save(path)
    assert Datagraph.load(path) == g


def test_round_trip_decorated_graph(tmp_path):
    g = random_decorated_graph(seed=123)
    path = tmp_path / "world.json"
    g.save(path)
    loaded = Datagraph.load(path)
    assert loaded == g
    # byte-identical re-serialization
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_round_trip_100_node_seeded_world(tmp_path):
    from datagraph import WorldSpec, generate_world

    graph, _ = generate_world(
        WorldSpec(grid_w=10, grid_h=10, seed=2024, objects_per_room_mean=2.0,
                  boundary_duplicate_prob=0.2)
    )
    assert len(graph) == 100
    path = tmp_path / "big.json"
    graph.save(path)
    assert Datagraph.load(path) == graph


def test_load_truncated_file_is_parse_error(tmp_path):
    g = random_decorated_graph(seed=7)
    path = tmp_path / "world.json"
    g.save(path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(GraphParseError):
        Datagraph.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 9, "nodes": [], "edges": []}))
    with pytest.raises(GraphParseError):
        Datagraph.load(path)


def test_load_reports_invariant_violations(tmp_path):
    doc = {
        "format_version": 1,
        "nodes": [
            {"id": 0, "pose": {"position": [0, 0, 0]}, "snapshot": {"objects": []}},
            {"id": 1, "pose": {"position": [1, 0, 0]}, "snapshot": {"objects": []}},
        ],
        "edges": [{"a": 0, "b": 1, "traversable": True, "length_m": -3.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError) as excinfo:
        Datagraph.load(path)
    assert any(v.invariant == "edge-length" for v in excinfo.value.violations)


def test_load_reports_non_dense_ids(tmp_path):
    doc = {
        "format_version": 1,
        "nodes": [{"id": 5, "pose": {"position": [0, 0, 0]}, "snapshot": {"objects": []}}],
        "edges": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError) as excinfo:
        Datagraph.load(path)
    assert any(v.invariant == "node-id-density" for v in excinfo.value.violations)


def _doc_node(i, position=None, objects=(), **pose):
    position = position or (float(i), 0.0, 0.0)
    return {"id": i, "pose": {"position": list(position), **pose}, "snapshot": {"objects": list(objects)}}


def _doc_edge(a, b, length=1.0, traversable=True):
    return {"a": a, "b": b, "traversable": traversable, "length_m": length}


def _doc(nodes=None, edges=()):
    nodes = nodes if nodes is not None else [_doc_node(i) for i in range(3)]
    return {"format_version": 1, "nodes": nodes, "edges": list(edges)}


# Documents that each break one invariant (plus one that breaks several), with
# the (invariant, detail) list loading gave before loads went through the bulk
# builder; loading must reject them with exactly these lists, in this order.
BROKEN_DOCUMENTS = [
    pytest.param(
        _doc([_doc_node(0), _doc_node(5), _doc_node(2)], [_doc_edge(0, 1), _doc_edge(1, 2)]),
        [("node-id-density", "nodes[1] has id 5, expected 1")],
        id="node-id-density",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1), _doc_edge(1, 2), _doc_edge(1, 0, 2.0), _doc_edge(0, 1, 1.0, False)]),
        [("duplicate-edge", "edges[2] repeats pair (0, 1)"), ("duplicate-edge", "edges[3] repeats pair (0, 1)")],
        id="duplicate-edge",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1), _doc_edge(2, 2), _doc_edge(1, 2)]),
        [("self-loop", "edge on node 2")],
        id="self-loop",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1), _doc_edge(1, 7), _doc_edge(-1, 2), _doc_edge(5, 5)]),
        [
            ("edge-endpoint", "edge {1, 7} endpoint missing"),
            ("edge-endpoint", "edge {-1, 2} endpoint missing"),
            ("self-loop", "edge on node 5"),
            ("edge-endpoint", "edge {5, 5} endpoint missing"),
        ],
        id="edge-endpoint",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1, -3.0), _doc_edge(1, 2)]),
        [("edge-length", "edge {0, 1} has length -3.0")],
        id="edge-length-negative",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1), _doc_edge(1, 2, 0)]),
        [("edge-length", "edge {1, 2} has length 0.0")],
        id="edge-length-zero",
    ),
    pytest.param(
        _doc(edges=[_doc_edge(0, 1, math.nan), _doc_edge(1, 2, math.inf)]),
        [("edge-length", "edge {0, 1} has length nan"), ("edge-length", "edge {1, 2} has length inf")],
        id="edge-length-nan",
    ),
    pytest.param(
        _doc([_doc_node(0), _doc_node(1, objects=[{"label": ""}]), _doc_node(2)]),
        [("node-data", "nodes[1]: object label must be non-empty")],
        id="node-data-label",
    ),
    pytest.param(
        _doc([_doc_node(0), _doc_node(1, orientation=[1.0, 1.0, 0.0, 0.0]), _doc_node(2)]),
        [("node-data", "nodes[1]: quaternion norm 1.4142135623730951 is not within 1e-09 of 1")],
        id="node-data-quaternion",
    ),
    pytest.param(
        _doc([_doc_node(0), _doc_node(1, position=(math.nan, 0.0, 0.0)), _doc_node(2)]),
        [("node-data", "nodes[1]: position components must be finite, got (nan, 0.0, 0.0)")],
        id="node-data-position",
    ),
    pytest.param(
        _doc(
            [_doc_node(0), _doc_node(3), _doc_node(2)],
            [
                _doc_edge(2, 2, -1.0),
                _doc_edge(1, 2, math.nan),
                _doc_edge(0, 1),
                _doc_edge(2, 1),
                _doc_edge(0, 9),
                _doc_edge(1, 0),
            ],
        ),
        [
            ("node-id-density", "nodes[1] has id 3, expected 1"),
            ("duplicate-edge", "edges[3] repeats pair (1, 2)"),
            ("duplicate-edge", "edges[5] repeats pair (0, 1)"),
            ("self-loop", "edge on node 2"),
            ("edge-length", "edge {2, 2} has length -1.0"),
            ("edge-length", "edge {1, 2} has length nan"),
            ("edge-endpoint", "edge {0, 9} endpoint missing"),
        ],
        id="mixed",
    ),
]


@pytest.mark.parametrize("doc, expected", BROKEN_DOCUMENTS)
def test_load_rejects_broken_documents_with_pinned_violations(tmp_path, doc, expected):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphValidationError) as excinfo:
        Datagraph.load(path)
    assert [(v.invariant, v.detail) for v in excinfo.value.violations] == expected
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == "".join(f"{invariant}: {detail}\n" for invariant, detail in expected)


def test_load_parse_error_wins_over_earlier_violations(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(_doc([_doc_node(0), _doc_node(4)], [_doc_edge(0, 1), _doc_edge(1, 0), {"a": 0}])))
    with pytest.raises(GraphParseError, match=r"edges\[2\]: missing field 'b'"):
        Datagraph.load(path)


HUGE = 10**400  # a JSON integer too large for a float


def _with_object(obj):
    return _doc([_doc_node(0), _doc_node(1, objects=[obj]), _doc_node(2)])


# Documents whose fault is the wrong kind of value in one field, with the
# GraphParseError message that names it.
MISTYPED_DOCUMENTS = [
    pytest.param(_doc(edges=[_doc_edge(0, 1, HUGE)]), "edges[0]: length_m is too large for a float",
                 id="edge-length-overflow"),
    pytest.param(_doc(edges=[_doc_edge(0, 1, "1.5")]), "edges[0]: length_m must be a number, got '1.5'",
                 id="edge-length-string"),
    pytest.param(_doc(edges=[_doc_edge(0, True)]), "edges[0]: b must be an integer, got True",
                 id="edge-endpoint-bool"),
    pytest.param(_doc(edges=[_doc_edge(0, 1, 1.0, 1)]), "edges[0]: traversable must be a boolean, got 1",
                 id="edge-traversable-int"),
    pytest.param(_doc([_doc_node(0), _doc_node(1, position=(HUGE, 0.0, 0.0))]),
                 "nodes[1]: position component is too large for a float", id="position-overflow"),
    pytest.param(_doc([_doc_node(0), _doc_node(1, position=("1", 0.0, 0.0))]),
                 "nodes[1]: position component must be a number, got '1'", id="position-string-element"),
    pytest.param(_doc([_doc_node(0, position=(True, 0.0, 0.0))]),
                 "nodes[0]: position component must be a number, got True", id="position-bool-element"),
    pytest.param(_doc([{"id": 0, "pose": {"position": "123"}, "snapshot": {"objects": []}}]),
                 "nodes[0]: position must be a sequence of 3 numbers, got '123'", id="position-string"),
    pytest.param(_doc([_doc_node(0, position=(0.0, 0.0))]),
                 "nodes[0]: position must be a sequence of 3 numbers", id="position-short"),
    pytest.param(_doc([_doc_node(0, orientation=[1.0, 0.0, 0.0])]),
                 "nodes[0]: orientation must be a sequence of 4 numbers", id="orientation-short"),
    pytest.param(_doc([{"id": "0", "pose": {"position": [0, 0, 0]}, "snapshot": {}}]),
                 "nodes[0]: id must be an integer, got '0'", id="node-id-string"),
    pytest.param(_with_object({"label": "crate", "world_position": "123"}),
                 "nodes[1]: world_position must be a sequence of 3 numbers, got '123'",
                 id="world-position-string"),
    pytest.param(_with_object({"label": "crate", "world_position": [1.0, HUGE, 0.0]}),
                 "nodes[1]: world_position component is too large for a float", id="world-position-overflow"),
    pytest.param(_with_object({"label": 5}), "nodes[1]: object label must be a string, got 5", id="label-int"),
    pytest.param(_with_object({"label": "crate", "attributes": {"number": 7}}),
                 "nodes[1]: attributes must map str to str, got 'number': 7", id="attribute-value-int"),
    pytest.param(_with_object({"label": "crate", "attributes": ["number", "7"]}),
                 "nodes[1]: attributes must map str to str", id="attributes-array"),
    pytest.param(_with_object({"label": "crate", "instance_id": 1.5}),
                 "nodes[1]: instance_id must be an integer, got 1.5", id="instance-id-float"),
    pytest.param(_with_object("crate"), "nodes[1]: object must be a JSON object, got 'crate'", id="object-string"),
    pytest.param(_doc([{"id": 0, "pose": {"position": [0, 0, 0]}, "snapshot": {"payload_ref": 7}}]),
                 "nodes[0]: payload_ref must be a string, got 7", id="payload-ref-int"),
    pytest.param(_with_object({"attributes": {}}), "nodes[1]: object missing field 'label'", id="object-no-label"),
]


@pytest.mark.parametrize("doc, message", MISTYPED_DOCUMENTS)
def test_load_rejects_mistyped_fields_as_parse_errors(tmp_path, doc, message):
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphParseError) as excinfo:
        Datagraph.load(path)
    assert str(excinfo.value).startswith(message)
    result = CliRunner().invoke(main, ["validate", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [f"error: {excinfo.value}"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: SceneObject(5),
        lambda: SceneObject("crate", world_position="123"),
        lambda: SceneObject("crate", {"number": 7}),
        lambda: SceneObject("crate", [("number", "7")]),
        lambda: SceneObject("crate", None),
        lambda: SceneObject("crate", instance_id=True),
        lambda: Pose(("1", "2", "3")),
        lambda: Pose((True, 0.0, 0.0)),
        lambda: Pose((HUGE, 0, 0)),
        lambda: Pose((0, 0, 0), (1, 0, 0)),
        lambda: Pose((0, 0, 0), "1000"),
        lambda: Snapshot((), 7),
    ],
    ids=["label-int", "position-string", "attribute-int", "attributes-pairs", "attributes-none", "id-bool",
         "string-elements", "bool-element", "overflow", "short-quaternion", "string-quaternion",
         "payload-ref-int"],
)
def test_record_constructors_reject_wrong_kinds_with_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_record_constructors_accept_numpy_numbers():
    np = pytest.importorskip("numpy")
    pose = Pose(np.array([1.0, 2.0, 3.0]), (np.float32(1.0), 0, 0, 0))
    assert pose.position == (1.0, 2.0, 3.0) and pose.orientation == (1.0, 0.0, 0.0, 0.0)
    assert all(type(c) is float for c in pose.position + pose.orientation)
    obj = SceneObject("crate", world_position=(np.int64(1), 2, 3), instance_id=np.int64(4))
    assert obj.world_position == (1.0, 2.0, 3.0)
    assert type(obj.instance_id) is int  # so that a document can hold it


def test_node_and_edge_keep_their_dataclass_behaviour():
    pose, snapshot = Pose((1.0, 2.0, 0.0)), Snapshot()
    node = Node(id=3, pose=pose, snapshot=snapshot)
    assert node == Node(3, pose, snapshot) != replace(node, id=4)
    edge = Edge(1, 2)
    assert edge == Edge(a=1, b=2, traversable=True, length_m=1.0)
    assert replace(edge, length_m=2.5) == Edge(1, 2, True, 2.5)
    assert repr(edge) == "Edge(a=1, b=2, traversable=True, length_m=1.0)"
    for record, field in ((node, "id"), (edge, "a")):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        assert hash(record) == hash(copy.copy(record))
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_every_record_refuses_any_attribute_set_or_delete():
    pose = Pose((1.0, 2.0, 0.0))
    obj = SceneObject("crate", {"color": "red"}, (1.0, 2.0, 0.0), 0)
    records = [
        pose,
        obj,
        Snapshot((obj,), "scene://0"),
        Node(0, pose, Snapshot()),
        Edge(0, 1, True, 1.0),
        GroundTruthInstance(0, "crate", {}, (1.0, 2.0, 0.0), 0),
        QueryResponse(0, True, (obj,), 1, "yes"),
    ]
    for record in records:
        before = copy.copy(record)
        for name in (fields(record)[0].name, "pose", "__class__"):  # a field, a stray name, a dunder
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert record == before, type(record).__name__


def test_node_lookup_takes_ints_and_numpy_ints_but_not_bools(path_graph):
    np = pytest.importorskip("numpy")
    assert path_graph.node(2) is path_graph.node(np.int64(2))
    for bad in (True, 1.0, "1", 3, -1, np.int64(3)):
        with pytest.raises(MissingNodeError):
            path_graph.node(bad)


def test_numbers_survive_round_trip_bit_exact(tmp_path):
    pos = (0.1 + 0.2, math.pi, -1.0 / 3.0)
    g = build_graph(1, [], positions=[pos])
    path = tmp_path / "float.json"
    g.save(path)
    assert Datagraph.load(path).node(0).pose.position == pos


# --- properties ------------------------------------------------------------------


@st.composite
def build_scripts(draw, length=st.floats(min_value=0.1, max_value=50.0, allow_nan=False)):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    lengths = draw(st.lists(length, min_size=len(chosen), max_size=len(chosen)))
    flags = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, list(zip(chosen, lengths, flags))


@st.composite
def bulk_edge_lists(draw):
    """A node count and a shuffled edge list: endpoints either way round,
    mixed lengths, traversable or not."""
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        length = draw(st.sampled_from([1.0, 0.1, 6.0]) | st.floats(1e-9, 1e9))
        edges.append((a, b, draw(st.booleans()), length))
    return n, draw(st.permutations(edges))


@given(bulk_edge_lists())
@settings(max_examples=200)
def test_property_adjacency_symmetric_and_sorted(script):
    # the edges come in any order and either way round; each is stored once, as a < b
    n, edges = script
    g = build_graph(n, [(a, b, length, traversable) for a, b, traversable, length in edges])
    assert g.validate() == []
    stored = sorted((Edge(min(a, b), max(a, b), t, length) for a, b, t, length in edges), key=lambda e: (e.a, e.b))
    assert g.edges() == tuple(stored) and g.edge_count == len(stored)
    lengths = {(e.a, e.b): e.length_m for e in stored}
    for v in range(n):
        for w in range(n):  # edge_length bisects the ids, so it finds each only if they ascend
            assert g.edge_length(v, w) == g.edge_length(w, v) == lengths.get((min(v, w), max(v, w)))


@given(build_scripts())
def test_property_bfs_recurrence(script):
    n, edges = script
    g = _build(n, edges)
    dist = g.hop_distances(0)
    assert dist[0] == 0
    for e in g.edges():
        if e.a in dist and e.b in dist:
            assert abs(dist[e.a] - dist[e.b]) <= 1


@given(build_scripts())
@settings(max_examples=150)
def test_property_distances_match_enumeration(script):
    n, edges = script
    g = _build(n, edges)
    brute_hops = simple_path_distances(n, edge_dict(g), 0, weighted=False)
    assert g.hop_distances(0) == {v: int(d) for v, d in brute_hops.items()}
    brute_meters = simple_path_distances(n, edge_dict(g), 0, weighted=True)
    geodesic = g.geodesic_distances(0)
    assert set(geodesic) == set(brute_meters)
    for v, d in geodesic.items():
        assert d == pytest.approx(brute_meters[v], rel=1e-12, abs=1e-12)


def _build(n, edges, traversable_only=False):
    """The graph on ``n`` nodes of a build script's edges; with
    ``traversable_only`` the untraversable edges are left out."""
    return build_graph(n, [(a, b, length, t) for (a, b), length, t in edges if t or not traversable_only])


@given(build_scripts())
@example((5, [((0, 1), 1.0, True), ((0, 2), 1.0, True), ((1, 4), 1.0, True), ((2, 3), 1.0, False)]))
@settings(max_examples=150)
def test_property_distance_map_keys_are_the_visit_order(script):
    # the example: node 1 reaches 4 before node 2 reaches 3, yet 3 is visited first
    n, edges = script
    full = _build(n, edges)
    sub = _build(n, edges, traversable_only=True)
    nothing = Query("find nothing", Predicate(label_equals="nothing"))
    for metric, distance_map in (("hops", Datagraph.hop_distances), ("meters", Datagraph.geodesic_distances)):
        for traversable_only, searched in ((False, full), (True, sub)):
            visited = proximity_query_all(searched, OracleBackend(), nothing, 0, metric)
            assert list(distance_map(full, 0, traversable_only)) == list(visited.visit_order)
    for traversable_only, searched in ((False, full), (True, sub)):  # and against a plain queue BFS
        assert list(full.hop_distances(0, traversable_only)) == bfs_visit_order(n, edge_dict(searched), 0)


@given(build_scripts(length=st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])))
@settings(max_examples=150)
def test_property_meter_order_matches_enumeration_with_exact_ties(script):
    # dyadic lengths sum exactly, so equal path lengths tie and go by ascending id
    n, edges = script
    g = _build(n, edges)
    brute = simple_path_distances(n, edge_dict(g), 0, weighted=True)
    expected = [v for _, v in sorted((d, v) for v, d in brute.items())]
    result = proximity_query_all(g, OracleBackend(), Query("q", Predicate(label_equals="q")), 0, "meters")
    assert list(result.visit_order) == expected
    assert list(g.geodesic_distances(0)) == expected


@given(build_scripts())
@settings(max_examples=150)
def test_property_shortest_path_consistent_with_distances(script):
    n, edges = script
    g = _build(n, edges)
    for target in range(n):
        for metric in ("hops", "meters"):
            path = g.shortest_path(0, target, metric=metric)
            dist = g.hop_distances(0) if metric == "hops" else g.geodesic_distances(0)
            if target not in dist:
                assert path is None
                continue
            assert path is not None and path[0] == 0 and path[-1] == target
            for u, v in zip(path, path[1:]):
                assert g.edge_length(u, v) is not None
            if metric == "hops":
                assert len(path) - 1 == dist[target]
            else:
                total = sum(g.edge_length(u, v) for u, v in zip(path, path[1:]))
                assert total == pytest.approx(dist[target], rel=1e-12, abs=1e-12)


@given(build_scripts())
@settings(max_examples=150)
def test_property_hop_paths_are_lexicographically_minimal(script):
    n, edges = script
    g = _build(n, edges)
    adjacency = {v: set() for v in range(n)}
    for (a, b), _, _ in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    def all_simple_paths(start, goal):
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            if v == goal:
                yield path
                continue
            for w in adjacency[v]:
                if w not in path:
                    stack.append((w, path + [w]))

    for goal in range(n):
        found = g.shortest_path(0, goal, metric="hops")
        candidates = list(all_simple_paths(0, goal))
        if not candidates:
            assert found is None
            continue
        best_length = min(len(p) for p in candidates)
        expected = min(p for p in candidates if len(p) == best_length)
        assert found == expected


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_property_save_load_round_trip(seed):
    g = random_decorated_graph(seed=seed, max_nodes=15)
    assert Datagraph.from_json_dict(json.loads(json.dumps(g.to_json_dict()))) == g


# Values of every JSON kind, plus the bad values of the right kind, that a
# fault injection writes over one field of a document.
ODD_VALUES = [None, True, False, 0, -1, 7, 1.5, 0.0, -2.0, math.nan, math.inf, 10**400, "", "1", "123",
              "crate", [], [1.0, 2.0], [1.0, 2.0, 3.0], ["1", "2", "3"], {}, {"number": 7}]


def _field_paths(value, path=()):
    """Every place in a JSON value, as a path of keys and indices."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _field_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _field_paths(item, path + (index,))


@st.composite
def world_documents(draw):
    """A small world document that may break invariants, with at most one
    field overwritten by a value of any kind."""
    n = draw(st.integers(min_value=0, max_value=5))
    coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    nodes = []
    for i in range(n):
        pose = {"position": draw(st.lists(coord, min_size=3, max_size=3))}
        if draw(st.booleans()):
            pose["orientation"] = draw(st.sampled_from([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]]))
        objects = [
            {"label": draw(st.sampled_from(["crate", "Keyfob"])),
             "attributes": draw(st.dictionaries(st.sampled_from(["number", "color"]), st.sampled_from(["1", "red"]))),
             "world_position": draw(st.none() | st.lists(coord, min_size=3, max_size=3)),
             "instance_id": draw(st.integers(-1, 20))}
            for _ in range(draw(st.integers(0, 2)))
        ]
        nodes.append({"id": i, "pose": pose, "snapshot": {"objects": objects}})
    endpoint = st.integers(min_value=-1, max_value=n)
    length = st.sampled_from([1.0, 0.5, 6.0, 0.0, -1.0, math.nan, math.inf]) | st.floats(1e-9, 1e9)
    edges = [
        {"a": draw(endpoint), "b": draw(endpoint), "traversable": draw(st.booleans()), "length_m": draw(length)}
        for _ in range(draw(st.integers(0, 8)))
    ]
    doc = {"format_version": 1, "nodes": nodes, "edges": edges}
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_field_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(ODD_VALUES))
    return doc


@given(world_documents())
@settings(max_examples=400, deadline=None)
def test_property_loaded_documents_validate_clean(doc):
    """Loading checks each field once and skips validate(); whatever it accepts
    must still pass validate(), and whatever it refuses it refuses with one
    of the two load errors."""
    try:
        graph = Datagraph.from_json_dict(doc)
    except (GraphParseError, GraphValidationError):
        return
    assert graph.validate() == []
    assert Datagraph.from_json_dict(graph.to_json_dict()) == graph


def test_every_single_field_fault_loads_clean_or_is_refused():
    """The property above, over every field of one small document and every odd value."""
    base = _doc(
        [
            _doc_node(0, objects=[{"label": "crate", "attributes": {"color": "red"},
                                   "world_position": [0.5, 0.0, 0.0], "instance_id": 0}],
                      orientation=[0.0, 0.6, 0.8, 0.0]),
            _doc_node(1, objects=[{"label": "keyfob"}]),
            {**_doc_node(2), "snapshot": {"objects": [], "payload_ref": "scene://2"}},
        ],
        [_doc_edge(0, 1, 2.5), _doc_edge(2, 1, 1.0, False)],
    )
    refused = 0
    for path in list(_field_paths(base))[1:]:
        for value in ODD_VALUES:
            doc = json.loads(json.dumps(base))
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            try:
                graph = Datagraph.from_json_dict(doc)
            except (GraphParseError, GraphValidationError):
                refused += 1
                continue
            assert graph.validate() == [], (path, value)
            assert Datagraph.from_json_dict(graph.to_json_dict()) == graph
    assert refused > 0


@given(build_scripts())
def test_property_traversable_only_equals_subgraph(script):
    n, edges = script
    full = _build(n, edges)
    sub = _build(n, edges, traversable_only=True)
    assert full.hop_distances(0, traversable_only=True) == sub.hop_distances(0)
    assert full.geodesic_distances(0, traversable_only=True) == sub.geodesic_distances(0)
    for target in range(n):
        assert full.shortest_path(0, target, traversable_only=True) == sub.shortest_path(0, target)


# --- the frontier kernels against the eager maps ------------------------------------


EAGER_MAPS = {"hops": eager_hop_distances, "meters": eager_geodesic_distances}
FULL_MAPS = {"hops": Datagraph.hop_distances, "meters": Datagraph.geodesic_distances}


@given(frontier_graphs(), st.data())
@example(build_graph(4, [(0, 1, 1e16), (1, 2, 1.0), (0, 3, 1e16)]), None)
@settings(max_examples=150, deadline=None)
def test_property_each_cursor_settles_a_prefix_of_the_eager_map(graph, data):
    # the example: 1e16 + 1.0 rounds to 1e16, so node 2 ties its predecessor 1 and node 3
    sources = range(len(graph)) if data is None else [data.draw(st.integers(0, len(graph) - 1))]
    for metric, eager in EAGER_MAPS.items():
        for traversable_only in (False, True):
            for source in sources:
                full = list(eager(graph, source, traversable_only).items())
                dist, frontier = graph._searched(traversable_only)._frontier(metric, source)
                for step in frontier:
                    settled = list(dist.items())
                    assert settled == full[: len(settled)]
                    if metric == "hops":  # a whole level, sorted, at the end of the prefix
                        hops, level = step
                        assert level == sorted(level) and settled[-len(level):] == [(v, hops) for v in level]
                    else:
                        assert step == settled[-1][::-1]
                assert list(dist.items()) == full
                assert list(FULL_MAPS[metric](graph, source, traversable_only).items()) == full


@given(frontier_graphs(max_nodes=14))
@example(build_graph(6, [(0, 5, 1.0), (2, 5, 1e16), (0, 1, 1e16), (1, 3, 1.0), (2, 3, 1.0)]))
@example(build_graph(3, [(0, 1, 1.0), (0, 2, 1e16)]))
@settings(max_examples=150, deadline=None)
def test_property_shortest_path_equals_the_eager_descent(graph):
    # the first example: 1, 2 and 3 all lie 1e16 m from 0, 3 settles after 2, and the path
    # from 2 is 2, 3, 1, 0; the second: 0 and 1 both lie 1e16 m from 2, and the eager
    # descent from 0 stepped to 1 and back
    for metric, eager in EAGER_MAPS.items():
        for traversable_only in (False, True):
            for b in range(len(graph)):
                dist = eager(graph, b, traversable_only)
                for a in range(len(graph)):
                    expected = eager_shortest_path(graph, a, b, metric, traversable_only)
                    found = graph.shortest_path(a, b, metric, traversable_only)
                    if expected is not LOOPS:
                        assert found == expected, (a, b, metric)
                        continue
                    # a simple path down the map, each step an edge whose length closes the gap
                    assert found[0] == a and found[-1] == b and len(set(found)) == len(found)
                    for u, w in zip(found, found[1:]):
                        lengths = dict(edge_lists(graph, traversable_only)[u])
                        assert w in lengths and dist[w] + (1 if metric == "hops" else lengths[w]) == dist[u]


def test_shortest_path_backs_out_of_a_tie_that_an_absorbed_edge_makes():
    # 0 and 1 both lie 1e16 m from 2: 1e16 + 1.0 rounds to 1e16
    graph = build_graph(3, [(0, 1, 1.0), (0, 2, 1e16)])
    assert graph.geodesic_distances(2) == {2: 0.0, 0: 1e16, 1: 1e16}
    assert graph.shortest_path(0, 2, "meters") == [0, 2]
    assert graph.shortest_path(1, 2, "meters") == [1, 0, 2]


def test_shortest_path_settles_only_what_its_descent_reads(monkeypatch):
    """On a long line, a path to a near goal settles the goal's neighborhood:
    under meters every node no farther than the start plus the first one
    beyond it, under hops the start's whole level and nothing past it."""
    graph = build_graph(400, [(v, v + 1) for v in range(399)])
    settled = []
    real = Datagraph._frontier

    def recording(self, metric, source):
        dist, frontier = real(self, metric, source)
        settled.append(dist)
        return dist, frontier

    monkeypatch.setattr(Datagraph, "_frontier", recording)
    assert graph.shortest_path(200, 203, "meters") == [200, 201, 202, 203]
    assert graph.shortest_path(200, 197, "hops") == [200, 199, 198, 197]
    assert [sorted(dist) for dist in settled] == [list(range(199, 207)), list(range(194, 201))]


def scanned_nearest(graph, source, targets, metric):
    """The smallest ``(distance, id)`` over the targets in the source's eager map, as ``(id, distance)``."""
    full = EAGER_MAPS[metric](graph, source)
    best = min(((full[v], v) for v in targets if v in full), default=None)
    return None if best is None else (best[1], best[0])


@given(frontier_graphs(), st.data())
@example(build_graph(3, [(0, 2, 1e16), (1, 2, 1.0)]), None)
@settings(max_examples=150, deadline=None)
def test_property_nearest_equals_a_scan_of_the_eager_map(graph, data):
    """Unconnected graphs with closed edges and ties; empty and unreachable
    target sets. The example: 1e16 + 1.0 rounds to 1e16, so from 0 node 1
    ties node 2 but settles after it, and still wins the tie by its id."""
    if data is None:
        target_sets = [{1, 2}, {2}, {1}, set()]
    else:
        target_sets = [data.draw(st.sets(st.integers(0, len(graph) - 1), max_size=4)) for _ in range(3)]
    for targets in target_sets:
        for metric in EAGER_MAPS:
            for source in range(len(graph)):
                assert graph.nearest(source, targets, metric) == scanned_nearest(graph, source, targets, metric)
    if data is None:
        assert graph.nearest(0, {1, 2}, "meters") == (1, 1e16)


def test_nearest_refuses_an_unknown_source_or_metric_with_no_targets():
    graph = build_graph(2, [(0, 1)])
    for source in (2, -1, True):
        with pytest.raises(MissingNodeError):
            graph.nearest(source, set())
    with pytest.raises(ValueError, match="metric must be 'hops' or 'meters', got 'miles'"):
        graph.nearest(0, set(), "miles")


# --- the adjacency store against the drawn edges ------------------------------------


def _descent(adjacency, dist, a, b, hops):
    """The lexicographically first path from ``a`` to ``b`` that steps down
    ``dist`` along ``adjacency``, never revisiting a node; None if ``a`` is
    not in ``dist``."""

    def walk(path):
        u = path[-1]
        if u == b:
            return path
        for w, length in adjacency[u]:
            if w in dist and w not in path and dist[w] + (1 if hops else length) == dist[u]:
                found = walk(path + [w])
                if found:
                    return found
        return None

    return walk([a]) if a in dist else None


@given(frontier_edges(max_nodes=16))
@example((3, [(0, 2, 1e16, True), (2, 1, 1.0, False), (0, 1, 0.5, False)]))
@settings(max_examples=150, deadline=None)
def test_property_the_store_answers_as_the_drawn_edges_do(case):
    """Every edge read and every search of the graph equals a reference built
    from the drawn ``(a, b, length, traversable)`` edges, never from the graph."""
    n, edges = case
    graph = build_graph(n, edges)
    records = {(min(a, b), max(a, b)): Edge(min(a, b), max(a, b), t, length) for a, b, length, t in edges}
    assert graph.edges() == tuple(records[key] for key in sorted(records)) and graph.edge_count == len(records)
    for a in range(n):
        for b in range(n):
            record = records.get((min(a, b), max(a, b)))
            assert graph.edge_length(a, b) == (record.length_m if record else None)
    for traversable_only in (False, True):
        kept = {key: e.length_m for key, e in records.items() if e.traversable or not traversable_only}
        adjacency = {v: [] for v in range(n)}
        for (a, b), length in sorted(kept.items()):
            adjacency[a].append((b, length))
            adjacency[b].append((a, length))
        for v in range(n):
            adjacency[v].sort()
        for source in range(n):
            hops, meters = queue_bfs_levels(n, kept, source), heap_dijkstra(n, kept, source)
            hop_map = graph.hop_distances(source, traversable_only)
            assert list(hop_map.items()) == sorted(hops.items(), key=lambda item: (item[1], item[0]))
            assert list(graph.geodesic_distances(source, traversable_only).items()) == list(meters.items())
            for metric, dist in (("hops", hops), ("meters", meters)):
                for a in range(n):
                    expected = _descent(adjacency, dist, a, source, metric == "hops")
                    assert graph.shortest_path(a, source, metric, traversable_only) == expected


def test_a_saved_world_with_closed_doors_loads_and_saves_to_the_same_bytes(tmp_path):
    generated, _ = generate_world(WorldSpec(grid_w=6, grid_h=6, seed=4))
    edges = [(e.a, e.b, i % 3 != 0, e.length_m) for i, e in enumerate(generated.edges())]
    graph = Datagraph(generated.nodes(), edges)
    assert edge_lists(graph, traversable_only=True) != edge_lists(graph)
    path = tmp_path / "world.json"
    graph.save(path)
    loaded = Datagraph.load(path)
    assert loaded == graph and loaded.validate() == []
    assert [e.traversable for e in loaded.edges()] == [t for _, _, t, _ in edges]
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
