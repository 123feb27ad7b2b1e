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

A traversal reports the distances of its first hit only, as (node, hops,
meters). The metric that orders the visits gives its distance from the map
the search drained; the other metric's comes from one frontier kernel
cursor advanced until the hit settles. A caller that wants every node's
distance reads :meth:`Datagraph.hop_distances` or
:meth:`Datagraph.geodesic_distances` itself.

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
    """Ordered per-node responses, their cost, and the first hit.

    ``first_satisfied`` is the first satisfied response in visit order as
    (node, hops, meters) from the agent node, with None for both distances
    when the agent cannot reach that node, or None when no response is
    satisfied. ``stopped_early`` is set only when the traversal was
    actually truncated by a satisfied response.
    """

    responses: tuple[QueryResponse, ...]
    visit_order: tuple[NodeId, ...]
    total_backend_calls: int
    stopped_early: bool
    first_satisfied: tuple[NodeId, int | None, float | None] | None

    def to_json_dict(self) -> dict:
        first = None
        if self.first_satisfied is not None:
            node, hops, meters = self.first_satisfied
            first = {"node": node, "hops": hops, "meters": meters}
        return {
            "responses": [r.to_json_dict() for r in self.responses],
            "visit_order": list(self.visit_order),
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
    order: Iterable[NodeId],
    agent: NodeId,
    stop_on_first: bool,
    metric: str | None = None,
) -> TraversalResult:
    """Query the nodes of ``order``, reporting the first hit's distances from ``agent``.

    Every id in ``order`` is a node of ``graph``, so it is not checked again:
    ``order`` is ``range(len(graph))``, a distance map's keys, or a path
    whose nodes :func:`path_query` has checked. ``metric`` is set when
    ``order`` is the agent's drained distance map under that metric; the
    hit's distance under it is then read from the map. Any other distance
    comes from a kernel cursor (:meth:`Datagraph._frontier`) advanced only
    until the hit settles.
    """
    responses: list[QueryResponse] = []
    hit: NodeId | None = None
    stopped_early = False

    def result() -> TraversalResult:
        first_satisfied = None
        if hit is not None:
            hops, meters = (
                order.get(hit) if name == metric else _settle(*graph._frontier(name, agent), hit)
                for name in ("hops", "meters")
            )
            first_satisfied = (hit, hops, meters)
        return TraversalResult(
            responses=tuple(responses),
            visit_order=tuple(r.node for r in responses),
            total_backend_calls=sum(r.backend_calls for r in responses),
            stopped_early=stopped_early,
            first_satisfied=first_satisfied,
        )

    nodes = graph.nodes()
    for v in order:
        try:
            response = backend.answer(nodes[v], query)
        except BackendError as exc:
            raise TraversalAbortedError(v, result()) from exc
        if response.node != v:
            response = response._with(v, response.backend_calls)
        responses.append(response)
        if response.satisfied and hit is None:
            hit = v
            if stop_on_first:
                stopped_early = True
                break
    return result()


def _by_proximity(graph: Datagraph, backend: QueryBackend, query: Query, agent: NodeId,
                  metric: str, stop_on_first: bool) -> TraversalResult:
    """Visit in the key order of the agent's full distance map under ``metric``."""
    graph.node(agent)  # an unknown agent is reported before an unknown metric
    order = by_metric(metric, graph.hop_distances, graph.geodesic_distances)(agent)
    return _run(graph, backend, query, order, agent, stop_on_first, metric)


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
    return _by_proximity(graph, backend, query, agent, metric, stop_on_first=False)


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
    return _by_proximity(graph, backend, query, agent, metric, stop_on_first=True)


def path_query(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    path: Iterable[NodeId],
) -> TraversalResult:
    """Query exactly the given nodes, in path order.

    Consecutive path nodes must be adjacent. A node repeated in the path is
    queried once per occurrence unless a caching backend suppresses the
    duplicate call. The hit's distances are reported relative to the path start.
    """
    path = list(path)
    if not path:
        raise ValueError("path must be non-empty")
    for v in path:
        graph.node(v)
    for u, v in zip(path, path[1:]):
        if graph.edge_length(u, v) is None:
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
    report the hit's distances for comparison with proximity traversals.
    """
    graph.node(agent)
    return _run(graph, backend, query, range(len(graph)), agent, stop_on_first)


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
    if not (math.isfinite(dedup_radius_m) and dedup_radius_m >= 0):
        raise ValueError(f"dedup_radius_m must be finite and non-negative, got {dedup_radius_m!r}")
    per_node_counts: dict[NodeId, int] = {}
    matches: list[tuple[NodeId, SceneObject]] = []
    for v, node in enumerate(graph.nodes()):
        response = backend.answer(node, query)
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

