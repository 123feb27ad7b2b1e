from __future__ import annotations

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    Datagraph,
    DuplicateEdgeError,
    GraphParseError,
    GraphStateError,
    GraphValidationError,
    InvalidLengthError,
    MissingNodeError,
    Node,
    Pose,
    SceneObject,
    SelfLoopError,
    Snapshot,
)
from datagraph.cli import main
from helpers import (
    build_graph,
    edge_dict,
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


# --- construction ---------------------------------------------------------------


def test_add_node_returns_dense_ids():
    g = Datagraph()
    assert g.add_node(Pose((0, 0, 0)), Snapshot()) == 0
    assert g.add_node(Pose((1, 0, 0)), Snapshot()) == 1
    assert g.add_node(Pose((2, 0, 0)), Snapshot()) == 2
    assert g.add_node(Pose((3, 0, 0)), Snapshot()) == 3


def test_added_nodes_keep_their_snapshots():
    g = Datagraph()
    snap_a = Snapshot((SceneObject("keyfob", {"number": "42"}, (0, 0, 0), 1),))
    snap_b = Snapshot((), payload_ref="scene://b")
    a = g.add_node(Pose((0, 0, 0)), snap_a)
    b = g.add_node(Pose((1, 0, 0)), snap_b)
    assert (a, b) == (0, 1)
    assert g.node(0).snapshot == snap_a
    assert g.node(1).snapshot == snap_b


def test_add_node_after_seal_is_an_error():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    g.seal()
    with pytest.raises(GraphStateError):
        g.add_node(Pose((1, 0, 0)), Snapshot())
    with pytest.raises(GraphStateError):
        g.add_edge(0, 0)


def test_default_edge_length_is_euclidean():
    g = build_graph(2, [(0, 1)], positions=[(0, 0, 0), (3, 4, 0)])
    assert g.edges()[0].length_m == 5.0


def test_self_loop_rejected():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    with pytest.raises(SelfLoopError):
        g.add_edge(0, 0)


def test_duplicate_edge_rejected_either_direction():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    g.add_node(Pose((1, 0, 0)), Snapshot())
    g.add_edge(0, 1)
    with pytest.raises(DuplicateEdgeError):
        g.add_edge(1, 0)


def test_edge_to_missing_node():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    with pytest.raises(MissingNodeError):
        g.add_edge(0, 7)


def test_non_positive_length_rejected():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    g.add_node(Pose((1, 0, 0)), Snapshot())
    with pytest.raises(InvalidLengthError):
        g.add_edge(0, 1, length_m=0.0)
    with pytest.raises(InvalidLengthError):
        g.add_edge(0, 1, length_m=-2.0)


def test_coincident_poses_need_explicit_length():
    g = Datagraph()
    g.add_node(Pose((1, 1, 0)), Snapshot())
    g.add_node(Pose((1, 1, 0)), Snapshot())
    with pytest.raises(InvalidLengthError):
        g.add_edge(0, 1)
    g.add_edge(0, 1, length_m=0.5)


# --- neighbors ---------------------------------------------------------------


def test_neighbors_on_path(path_graph):
    assert path_graph.neighbors(1) == [0, 2]


def test_neighbors_isolated_node():
    g = build_graph(1, [])
    assert g.neighbors(0) == []


def test_neighbors_sorted_regardless_of_insertion_order():
    # star: center 0, leaves wired 3, 1, 2 in that order
    g = build_graph(4, [(0, 3), (0, 1), (0, 2)])
    assert g.neighbors(0) == [1, 2, 3]


def test_neighbors_requires_sealed_graph():
    g = Datagraph()
    g.add_node(Pose((0, 0, 0)), Snapshot())
    with pytest.raises(GraphStateError):
        g.neighbors(0)


def test_neighbors_unknown_id(path_graph):
    with pytest.raises(MissingNodeError):
        path_graph.neighbors(9)


def test_neighbors_traversable_filter():
    g = build_graph(3, [(0, 1, None, True), (0, 2, None, False)])
    assert g.neighbors(0) == [1, 2]
    assert g.neighbors(0, traversable_only=True) == [1]


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


def test_validate_reports_asymmetric_adjacency(path_graph):
    adj = [list(entries) for entries in path_graph._adj]
    adj[0] = []  # drop 0 -> 1 while 1 -> 0 survives
    path_graph._adj = tuple(tuple(e) for e in adj)
    violations = path_graph.validate()
    assert any(
        v.invariant == "adjacency-symmetry" and "1" in v.detail and "0" in v.detail
        for v in violations
    )


def test_validate_reports_bad_length_injected_past_construction():
    g = build_graph(2, [(0, 1)])
    edge = g.edges()[0]
    object.__setattr__(edge, "length_m", 0.0)
    assert any(v.invariant == "edge-length" for v in g.validate())


# --- serialization -----------------------------------------------------------------


def test_round_trip_empty_graph(tmp_path):
    g = Datagraph().seal()
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


def test_save_requires_sealed_graph(tmp_path):
    g = Datagraph()
    with pytest.raises(GraphStateError):
        g.save(tmp_path / "x.json")


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


def test_numbers_survive_round_trip_bit_exact(tmp_path):
    pos = (0.1 + 0.2, math.pi, -1.0 / 3.0)
    g = Datagraph()
    g.add_node(Pose(pos), Snapshot())
    g.seal()
    path = tmp_path / "float.json"
    g.save(path)
    assert Datagraph.load(path).node(0).pose.position == pos


# --- properties ------------------------------------------------------------------


@st.composite
def build_scripts(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    lengths = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    flags = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, list(zip(chosen, lengths, flags))


@given(build_scripts())
def test_property_adjacency_symmetric_and_sorted(script):
    n, edges = script
    g = Datagraph()
    for v in range(n):
        g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    for (a, b), length, traversable in edges:
        g.add_edge(a, b, traversable=traversable, length_m=length)
    g.seal()
    assert g.validate() == []
    for v in range(n):
        ids = g.neighbors(v)
        assert ids == sorted(ids)
        for w in ids:
            assert v in g.neighbors(w)


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
def test_property_bulk_builder_matches_add_edge_path(script):
    n, edges = script
    nodes = [Node(v, Pose((float(v), 0.0, 0.0)), Snapshot()) for v in range(n)]
    built, violations = Datagraph._assemble(nodes, edges)
    assert violations == []
    by_hand = Datagraph()
    for node in nodes:
        by_hand.add_node(node.pose, node.snapshot)
    for a, b, traversable, length in edges:
        by_hand.add_edge(a, b, traversable, length)
    by_hand.seal()
    assert built == by_hand
    assert built.edges() == by_hand.edges()
    for v in range(n):
        assert built.adjacency(v) == by_hand.adjacency(v)
    assert built.validate() == []


@given(build_scripts())
def test_property_bfs_recurrence(script):
    n, edges = script
    g = Datagraph()
    for v in range(n):
        g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    for (a, b), length, _ in edges:
        g.add_edge(a, b, length_m=length)
    g.seal()
    dist = g.hop_distances(0)
    assert dist[0] == 0
    for e in g.edges():
        if e.a in dist and e.b in dist:
            assert abs(dist[e.a] - dist[e.b]) <= 1


@given(build_scripts())
@settings(max_examples=150)
def test_property_distances_match_enumeration(script):
    n, edges = script
    g = Datagraph()
    for v in range(n):
        g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    for (a, b), length, _ in edges:
        g.add_edge(a, b, length_m=length)
    g.seal()
    brute_hops = simple_path_distances(n, edge_dict(g), 0, weighted=False)
    assert g.hop_distances(0) == {v: int(d) for v, d in brute_hops.items()}
    brute_meters = simple_path_distances(n, edge_dict(g), 0, weighted=True)
    geodesic = g.geodesic_distances(0)
    assert set(geodesic) == set(brute_meters)
    for v, d in geodesic.items():
        assert d == pytest.approx(brute_meters[v], rel=1e-12, abs=1e-12)


@given(build_scripts())
@settings(max_examples=150)
def test_property_shortest_path_consistent_with_distances(script):
    n, edges = script
    g = Datagraph()
    for v in range(n):
        g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    for (a, b), length, _ in edges:
        g.add_edge(a, b, length_m=length)
    g.seal()
    for target in range(n):
        for metric in ("hops", "meters"):
            path = g.shortest_path(0, target, metric=metric)
            dist = g.hop_distances(0) if metric == "hops" else g.geodesic_distances(0)
            if target not in dist:
                assert path is None
                continue
            assert path is not None and path[0] == 0 and path[-1] == target
            for u, v in zip(path, path[1:]):
                assert g.edge_between(u, v) is not None
            if metric == "hops":
                assert len(path) - 1 == dist[target]
            else:
                total = sum(g.edge_between(u, v).length_m for u, v in zip(path, path[1:]))
                assert total == pytest.approx(dist[target], rel=1e-12, abs=1e-12)


@given(build_scripts())
@settings(max_examples=150)
def test_property_hop_paths_are_lexicographically_minimal(script):
    n, edges = script
    g = Datagraph()
    for v in range(n):
        g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    adjacency = {v: set() for v in range(n)}
    for (a, b), length, _ in edges:
        g.add_edge(a, b, length_m=length)
        adjacency[a].add(b)
        adjacency[b].add(a)
    g.seal()

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


@given(build_scripts())
def test_property_traversable_only_equals_subgraph(script):
    n, edges = script
    full = Datagraph()
    sub = Datagraph()
    for v in range(n):
        for g in (full, sub):
            g.add_node(Pose((float(v), 0.0, 0.0)), Snapshot())
    for (a, b), length, traversable in edges:
        full.add_edge(a, b, traversable=traversable, length_m=length)
        if traversable:
            sub.add_edge(a, b, traversable=True, length_m=length)
    full.seal()
    sub.seal()
    assert full.hop_distances(0, traversable_only=True) == sub.hop_distances(0)
    assert full.geodesic_distances(0, traversable_only=True) == sub.geodesic_distances(0)
    for target in range(n):
        assert full.shortest_path(0, target, traversable_only=True) == sub.shortest_path(0, target)
