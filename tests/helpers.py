"""Independent oracles and tiny builders shared across test modules.

Everything here is deliberately implemented without the library's own
distance/traversal code so tests check against a second route.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush

import numpy as np
from hypothesis import strategies as st

from datagraph import Datagraph, Node, Pose, QueryResponse, SceneObject, Snapshot


def simple_path_distances(
    n: int,
    edges: dict[tuple[int, int], float],
    source: int,
    weighted: bool,
) -> dict[int, float]:
    """Exhaustive simple-path enumeration; only sane for tiny graphs."""
    adjacency: dict[int, list[tuple[int, float]]] = {v: [] for v in range(n)}
    for (a, b), length in edges.items():
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))
    best: dict[int, float] = {source: 0.0}

    def walk(v: int, cost: float, seen: set[int]) -> None:
        for w, length in adjacency[v]:
            if w in seen:
                continue
            new_cost = cost + (length if weighted else 1.0)
            if w not in best or new_cost < best[w]:
                best[w] = new_cost
            walk(w, new_cost, seen | {w})

    walk(source, 0.0, {source})
    return best


def queue_bfs_levels(n: int, edges: dict[tuple[int, int], float], source: int) -> dict[int, int]:
    """Plain queue-based BFS over an edge dict; no library code involved."""
    adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    hops = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in hops:
                hops[w] = hops[v] + 1
                queue.append(w)
    return hops


def heap_dijkstra(n: int, edges: dict[tuple[int, int], float], source: int) -> dict[int, float]:
    """Plain heap Dijkstra over an edge dict; no library code involved."""
    adjacency: dict[int, list[tuple[int, float]]] = {v: [] for v in range(n)}
    for (a, b), length in edges.items():
        adjacency[a].append((b, length))
        adjacency[b].append((a, length))
    meters: dict[int, float] = {}
    heap = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in meters:
            continue
        meters[v] = d
        for w, length in adjacency[v]:
            if w not in meters:
                heappush(heap, (d + length, w))
    return meters


def bfs_visit_order(n: int, edges: dict[tuple[int, int], float], source: int) -> list[int]:
    """(hop level, node id) visit order derived from queue-based BFS levels."""
    hops = queue_bfs_levels(n, edges, source)
    return [v for _, v in sorted((d, v) for v, d in hops.items())]


def eager_hop_distances(graph: Datagraph, source: int, traversable_only: bool = False) -> dict[int, int]:
    """The full hop map as a level-synchronous BFS built it before the
    kernels could stop early: keys by hops, then by ascending id."""
    dist = {source: 0}
    level = [source]
    hops = 0
    while level:
        hops += 1
        frontier = sorted({w for v in level for w in graph.neighbors(v, traversable_only) if w not in dist})
        dist.update(dict.fromkeys(frontier, hops))
        level = frontier
    return dist


def eager_geodesic_distances(graph: Datagraph, source: int, traversable_only: bool = False) -> dict[int, float]:
    """The full meter map as Dijkstra built it before the kernels could stop
    early: keys in the heap's ``(meters, id)`` pop order."""
    dist: dict[int, float] = {}
    best = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, v = heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for w, e in graph.adjacency(v, traversable_only):
            nd = d + e.length_m
            if w not in dist and (w not in best or nd < best[w]):
                best[w] = nd
                heappush(heap, (nd, w))
    return dist


LOOPS = "loops"


def eager_shortest_path(graph: Datagraph, a: int, b: int, metric: str, traversable_only: bool = False):
    """The greedy descent over a full map from ``b``, as ``shortest_path``
    ran it before its search could stop early; :data:`LOOPS` where that
    descent stepped back onto its own path and so never ended."""
    full = eager_hop_distances if metric == "hops" else eager_geodesic_distances
    dist_to_goal = full(graph, b, traversable_only)
    if a not in dist_to_goal:
        return None
    path = [a]
    while path[-1] != b:
        current = path[-1]
        step = next(
            w for w, e in graph.adjacency(current, traversable_only)
            if w in dist_to_goal
            and dist_to_goal[w] + (1 if metric == "hops" else e.length_m) == dist_to_goal[current]
        )
        if step in path:
            return LOOPS
        path.append(step)
    return path


# Edge lengths for the lazy-against-eager properties: dyadic lengths sum
# exactly and tie often; other floats round; 1e16 next to 0.5-3.0 m makes
# sums that absorb a short edge, so a node can tie its own predecessor.
DYADIC_LENGTHS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
FLOAT_LENGTHS = st.floats(min_value=0.1, max_value=50.0)
ABSORBING_LENGTHS = st.sampled_from([1e16, 1e16, 0.5, 1.0, 3.0])


def frontier_graphs(max_nodes: int = 24):
    """A graph of up to ``max_nodes`` nodes, not always connected, with some
    untraversable edges and lengths from one of the three families."""
    return frontier_edges(max_nodes).map(lambda case: build_graph(*case))


@st.composite
def frontier_edges(draw, max_nodes: int = 24):
    """``(n, edges)`` of a :func:`frontier_graphs` graph, with ``(a, b,
    length, traversable)`` edges, so a test can check the graph against them."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    lengths = draw(st.sampled_from([DYADIC_LENGTHS, FLOAT_LENGTHS, ABSORBING_LENGTHS]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=3 * n,
        unique_by=lambda p: (min(p), max(p)),
    ))
    edges = []
    for a, b in pairs:
        traversable = draw(st.sampled_from([True, True, False]))
        edges.append((a, b, draw(lengths), traversable))
    return n, edges


def all_pairs_admits(candidate, placed, separation: float) -> bool:
    """Reference separation check: scan every placed position of the label,
    as world generation did before it bucketed them in a grid hash."""
    return all(math.dist(candidate, other) >= separation for other in placed)


def edge_dict(graph: Datagraph) -> dict[tuple[int, int], float]:
    return {(e.a, e.b): e.length_m for e in graph.edges()}


def build_graph(n: int, edges, positions=None, objects=None, poses=None, snapshots=None) -> Datagraph:
    """Small-world builder, through the graph's one constructor.

    Node ``v`` stands at ``positions[v]`` (by default ``(v, 0, 0)``) and holds
    ``objects[v]``, unless ``poses`` and ``snapshots`` give its records whole.
    Edges are (a, b), (a, b, length) or (a, b, length, traversable); a length
    left out or None is the Euclidean distance between the two ends.
    """
    if poses is None:
        poses = [Pose(positions[v] if positions is not None else (float(v), 0.0, 0.0)) for v in range(n)]
    if snapshots is None:
        snapshots = [Snapshot(tuple(objects.get(v, [])) if objects else ()) for v in range(n)]
    tuples = []
    for spec in edges:
        a, b = spec[0], spec[1]
        length = spec[2] if len(spec) > 2 else None
        if length is None:
            length = math.dist(poses[a].position, poses[b].position)
        tuples.append((a, b, spec[3] if len(spec) > 3 else True, length))
    return Datagraph([Node(v, poses[v], snapshots[v]) for v in range(n)], tuples)


def random_connected_graph(seed: int, max_nodes: int = 200) -> Datagraph:
    """Random tree plus chords, random poses; connected by construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_nodes + 1))
    positions = [tuple(float(c) for c in rng.uniform(-50.0, 50.0, size=3)) for _ in range(n)]
    edges = []
    pairs = set()
    for v in range(1, n):
        parent = int(rng.integers(v))
        edges.append((parent, v))
        pairs.add((min(parent, v), max(parent, v)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        key = (min(a, b), max(a, b))
        if a == b or key in pairs:
            continue
        pairs.add(key)
        edges.append((a, b))
    return build_graph(n, edges, positions=positions)


def random_decorated_graph(seed: int, max_nodes: int = 40) -> Datagraph:
    """Random graph with orientations, payload refs, objects, and
    non-traversable edges; for serialization round-trips."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_nodes + 1))
    poses, snapshots = [], []
    labels = ["extinguisher", "keyfob", "door", "crate"]
    for v in range(n):
        position = tuple(float(c) for c in rng.uniform(-9.0, 9.0, size=3))
        orientation = None
        if rng.random() < 0.5:
            raw = rng.normal(size=4)
            raw = raw / np.linalg.norm(raw)
            orientation = tuple(float(c) for c in raw)
        payload = f"scene://node/{v}" if rng.random() < 0.3 else None
        objs = []
        for k in range(int(rng.integers(0, 4))):
            objs.append(
                SceneObject(
                    label=labels[int(rng.integers(len(labels)))],
                    attributes={"number": str(int(rng.integers(1, 99)))} if rng.random() < 0.5 else {},
                    world_position=tuple(float(c) for c in rng.uniform(-9.0, 9.0, size=3)),
                    instance_id=v * 100 + k,
                )
            )
        poses.append(Pose(position, orientation))
        snapshots.append(Snapshot(tuple(objs), payload))
    edges = []
    pairs = set()
    for v in range(1, n):
        parent = int(rng.integers(v))
        edges.append((parent, v, None, bool(rng.random() < 0.8)))
        pairs.add((parent, v) if parent < v else (v, parent))
    for _ in range(int(rng.integers(0, n))):
        a, b = int(rng.integers(n)), int(rng.integers(n))
        key = (min(a, b), max(a, b))
        if a == b or key in pairs:
            continue
        pairs.add(key)
        traversable = bool(rng.random() < 0.8)
        edges.append((a, b, float(rng.uniform(0.5, 30.0)), traversable))
    return build_graph(n, edges, poses=poses, snapshots=snapshots)


def reference_predicate_eval(predicate, obj) -> bool:
    """Every clause of ``predicate`` tested on one object, as the oracle
    tested them one object at a call before it matched a scene in one loop."""
    label = predicate.label_key
    if label is not None and obj.label.lower() != label:
        return False
    for key, value in predicate.attribute_equals:
        if obj.attributes.get(key) != value:
            return False
    return True


def reference_oracle_answer(snapshot: Snapshot, query, node: int = -1) -> QueryResponse:
    """The oracle's answer as a generator over :func:`reference_predicate_eval`, with its texts."""
    matches = tuple(obj for obj in snapshot.objects if reference_predicate_eval(query.predicate, obj))
    count = len(matches)
    if count == 0:
        text = "no matching objects"
    elif query.mode == "count":
        text = f"counted {count} matching object(s)"
    else:
        labels = ", ".join(obj.label for obj in matches)
        text = f"found {count} matching object(s): {labels}"
    return QueryResponse(node=node, satisfied=count > 0, matches=matches, count=count, text=text, backend_calls=1)
