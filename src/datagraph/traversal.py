"""Traversal strategies: proximity-ordered querying, path querying, baselines.

Proximity traversal expands outward from the agent's node and queries each
scene as it is reached, so the closest satisfying scene is found before any
farther one. Visit order is fully deterministic: the key order of the
agent's full distance map under the metric (:meth:`Datagraph.hop_distances`
for hop counts, the default; :meth:`Datagraph.geodesic_distances` with
``metric="meters"``), nondecreasing in distance. By hops, ties are broken by
ascending node id. By meters the order is Dijkstra's pop order. Meters are
the float sums Dijkstra accumulates, so two nodes tie only when those sums
are equal floats: with edges 0-1 of 0.1 m, 1-2 of 0.2 m and 0-3 of 0.3 m,
node 3 comes before node 2, which is 0.30000000000000004 m away. Ties pop by
ascending id, except where a sum absorbs an edge: a node that ties its own
predecessor is reached only once that predecessor pops, so it comes after it
even with a lower id: with edges 0-2 of 1e16 m and 2-1 of 1.0 m, nodes 1
and 2 both lie 1e16 m from 0 (1e16 + 1.0 rounds to 1e16), and the order is
0, 2, 1. The brute-force baseline ignores space entirely and walks node ids
in order, modeling a search over every captured frame.

Distances come from the graph's frontier kernels. A search that stops at
its first hit builds only the map that orders its visits; the other
metric's distance of each visited node comes from a kernel cursor advanced
until that node settles. A path query advances both cursors only as far as
its path. The full traversal and the brute-force baseline visit every node,
so they drain both kernels up front.

Backend failures never skip a node silently: the traversal aborts with
:class:`TraversalAbortedError` carrying the partial result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .backends import Query, QueryBackend, QueryResponse
from .errors import (
    BackendError,
    DedupUnavailableError,
    InvalidPathError,
    TraversalAbortedError,
)
from .graph import Datagraph, NodeId, SceneObject, _settle, by_metric


@dataclass(frozen=True)
class TraversalResult:
    """Ordered per-node responses plus distance and cost accounting.

    ``distances`` maps each visited node to (hops, meters) from the agent
    node; nodes unreachable from the agent are absent. ``first_satisfied``
    is the first satisfied response in visit order as (node, hops, meters),
    or None. ``stopped_early`` is set only when the traversal was actually
    truncated by a satisfied response.
    """

    responses: tuple[QueryResponse, ...]
    visit_order: tuple[NodeId, ...]
    distances: dict[NodeId, tuple[int, float]]
    total_backend_calls: int
    stopped_early: bool
    first_satisfied: tuple[NodeId, int, float] | None

    def to_json_dict(self) -> dict:
        first = None
        if self.first_satisfied is not None:
            node, hops, meters = self.first_satisfied
            first = {"node": node, "hops": hops, "meters": meters}
        return {
            "responses": [r.to_json_dict() for r in self.responses],
            "visit_order": list(self.visit_order),
            "distances": {
                str(v): {"hops": h, "meters": m} for v, (h, m) in self.distances.items()
            },
            "total_backend_calls": self.total_backend_calls,
            "stopped_early": self.stopped_early,
            "first_satisfied": first,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True)
class AggregateReport:
    """Cross-scene count aggregation with optional duplicate merging."""

    per_node_counts: dict[NodeId, int]
    raw_total: int
    deduped_total: int
    merged_groups: tuple[tuple[tuple[NodeId, SceneObject], ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "per_node_counts": {str(v): c for v, c in self.per_node_counts.items()},
            "raw_total": self.raw_total,
            "deduped_total": self.deduped_total,
            "merged_groups": [
                [{"node": v, "object": obj.to_json_dict()} for v, obj in group]
                for group in self.merged_groups
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


# --- shared runner ----------------------------------------------------------------


def _run(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    order: Iterable[NodeId] | None,
    agent: NodeId,
    stop_on_first: bool,
    metric: str = "hops",
    full: tuple[str, ...] = (),
) -> TraversalResult:
    """Query the nodes of ``order``; if it is None, the keys of the agent's
    full distance map under ``metric``, which come out in visit order.

    ``full`` names the metrics whose full map is built before the first
    query: the one that orders the visits, or both when every node is
    visited. Any other metric's distances come from a kernel cursor
    (:meth:`Datagraph._frontier`) advanced only until the visited node settles.
    """

    def distances_by(name, full_map):
        return (full_map(agent), ()) if name in full else graph._frontier(name, agent)

    hops_dist, hops_frontier = distances_by("hops", graph.hop_distances)
    meters_dist, meters_frontier = distances_by("meters", graph.geodesic_distances)
    if order is None:
        order = by_metric(metric, hops_dist, meters_dist)
    responses: list[QueryResponse] = []
    visit_order: list[NodeId] = []
    distances: dict[NodeId, tuple[int, float]] = {}
    first_satisfied: tuple[NodeId, int, float] | None = None
    stopped_early = False

    def result() -> TraversalResult:
        return TraversalResult(
            responses=tuple(responses),
            visit_order=tuple(visit_order),
            distances=distances,
            total_backend_calls=sum(r.backend_calls for r in responses),
            stopped_early=stopped_early,
            first_satisfied=first_satisfied,
        )

    for v in order:
        try:
            response = backend.answer(graph.node(v), query)
        except BackendError as exc:
            raise TraversalAbortedError(v, result()) from exc
        if response.node != v:
            response = response._with(v, response.backend_calls)
        responses.append(response)
        visit_order.append(v)
        hops = hops_dist.get(v)
        meters = meters_dist.get(v)
        if hops is None or meters is None:  # not settled yet, or unreachable
            hops = _settle(hops_dist, hops_frontier, v)
            meters = _settle(meters_dist, meters_frontier, v)
        if hops is not None:
            distances[v] = (hops, meters)
        if response.satisfied and first_satisfied is None:
            first_satisfied = (v, hops, meters)
        if stop_on_first and response.satisfied:
            stopped_early = True
            break
    return result()


# --- public operations ----------------------------------------------------------------


def proximity_query_all(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    agent: NodeId,
    metric: str = "hops",
) -> TraversalResult:
    """Query every node reachable from the agent, closest first.

    Visit order is nondecreasing distance from ``agent`` under ``metric``.
    By hops, ties come in ascending node id. By meters the order is
    Dijkstra's pop order, which puts a node that ties its own predecessor
    after it, whatever their ids (see the module docstring). Unreachable
    nodes are never queried.
    """
    return _run(graph, backend, query, None, agent, False, metric, full=("hops", "meters"))


def proximity_search_first(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    agent: NodeId,
    metric: str = "hops",
) -> TraversalResult:
    """Proximity traversal truncated right after the first satisfied response.

    Because the visit order is nondecreasing in distance, the reported hit
    is a closest satisfying node, not just any satisfying node. With no
    satisfied response this equals the full traversal.
    """
    return _run(graph, backend, query, None, agent, True, metric, full=(metric,))


def path_query(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    path: Iterable[NodeId],
) -> TraversalResult:
    """Query exactly the given nodes, in path order.

    Consecutive path nodes must be adjacent. A node repeated in the path is
    queried once per occurrence unless a caching backend suppresses the
    duplicate call. Distances are reported relative to the path start.
    """
    path = list(path)
    if not path:
        raise ValueError("path must be non-empty")
    for v in path:
        graph.node(v)
    for u, v in zip(path, path[1:]):
        if graph.edge_between(u, v) is None:
            raise InvalidPathError(u, v)
    return _run(graph, backend, query, path, path[0], stop_on_first=False)


def brute_force_query(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    agent: NodeId,
    stop_on_first: bool = False,
) -> TraversalResult:
    """Spatially blind baseline: query all nodes in ascending id order.

    Models a search over every captured frame. ``agent`` is used only to
    report distances for comparison with proximity traversals.
    """
    graph.node(agent)
    order = range(len(graph))
    return _run(graph, backend, query, order, agent, stop_on_first, full=("hops", "meters"))


def aggregate_count(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    dedup_radius_m: float = 0.0,
) -> AggregateReport:
    """Count matches across all scenes, merging cross-scene duplicates.

    Matched objects from different nodes are merged (single-linkage) when
    their world positions lie within ``dedup_radius_m`` of each other and
    their labels and attributes are equal. Radius 0 disables merging.
    """
    if query.mode != "count":
        raise ValueError(f"aggregate_count requires a count query, got mode {query.mode!r}")
    if dedup_radius_m < 0:
        raise ValueError("dedup_radius_m must be non-negative")
    per_node_counts: dict[NodeId, int] = {}
    matches: list[tuple[NodeId, SceneObject]] = []
    for v in range(len(graph)):
        response = backend.answer(graph.node(v), query)
        per_node_counts[v] = response.count
        matches.extend((v, obj) for obj in response.matches)
        if dedup_radius_m > 0 and response.count != len(response.matches):
            raise DedupUnavailableError(
                f"node {v} reported {response.count} matches but itemized "
                f"{len(response.matches)}; dedup needs every matched object"
            )
    raw_total = sum(per_node_counts.values())
    if dedup_radius_m == 0:
        return AggregateReport(per_node_counts, raw_total, raw_total, ())
    for v, obj in matches:
        if obj.world_position is None:
            raise DedupUnavailableError(
                f"object {obj.label!r} from node {v} has no world position; "
                "use radius 0 with backends that omit coordinates"
            )
    groups = _single_linkage(matches, dedup_radius_m)
    merged = tuple(tuple(g) for g in groups if len(g) > 1)
    deduped_total = raw_total - sum(len(g) - 1 for g in merged)
    return AggregateReport(per_node_counts, raw_total, deduped_total, merged)


def _single_linkage(
    matches: list[tuple[NodeId, SceneObject]], radius: float
) -> list[list[tuple[NodeId, SceneObject]]]:
    """Cluster matches whose positions chain within radius and whose
    label+attributes are identical. Quadratic per signature group; match
    lists are small."""
    by_signature: dict[tuple, list[int]] = {}
    for idx, (_, obj) in enumerate(matches):
        sig = (obj.label, tuple(sorted(obj.attributes.items())))
        by_signature.setdefault(sig, []).append(idx)

    parent = list(range(len(matches)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for indices in by_signature.values():
        for i, idx_a in enumerate(indices):
            pos_a = matches[idx_a][1].world_position
            for idx_b in indices[i + 1 :]:
                pos_b = matches[idx_b][1].world_position
                if math.dist(pos_a, pos_b) <= radius:
                    union(idx_a, idx_b)

    clusters: dict[int, list[tuple[NodeId, SceneObject]]] = {}
    for idx, item in enumerate(matches):
        clusters.setdefault(find(idx), []).append(item)
    return [clusters[root] for root in sorted(clusters)]

