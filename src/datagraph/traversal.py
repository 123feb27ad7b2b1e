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
the search drained; the other metric's comes from :meth:`Datagraph.nearest`
with the hit as its one target. A caller that wants every node's distance
reads :meth:`Datagraph.hop_distances` or :meth:`Datagraph.geodesic_distances`
itself.

Every scan, the count aggregation included, asks for its answers in one
loop, :func:`_run`, which labels each answer with the node it visited.
Backend failures never skip a node silently: that loop aborts with
:class:`TraversalAbortedError` carrying the partial result of the nodes
before the failing one and the backend error as its ``__cause__``.

A result is a plain value with no JSON form of its own: the harness turns
results into the reports that are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .backends import Query, QueryBackend, QueryResponse
from .errors import (
    BackendError,
    DedupUnavailableError,
    InvalidPathError,
    TraversalAbortedError,
)
from .graph import Datagraph, Node, NodeId, SceneObject, _root, by_metric


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


@dataclass(frozen=True)
class AggregateReport:
    """Cross-scene count aggregation with optional duplicate merging."""

    per_node_counts: dict[NodeId, int]
    raw_total: int
    deduped_total: int
    merged_groups: tuple[tuple[tuple[NodeId, SceneObject], ...], ...]


# --- shared runner ----------------------------------------------------------------


def _run(
    graph: Datagraph,
    answer: Callable[[Node, Query], QueryResponse],
    query: Query,
    order: Iterable[NodeId],
    agent: NodeId | None,
    stop_on_first: bool,
    metric: str | None = None,
) -> TraversalResult:
    """Answer the nodes of ``order`` through ``answer``, the library's one
    scan loop, reporting the first hit's distances from ``agent``.

    Every id in ``order`` is a node of ``graph``, so it is not checked again:
    ``order`` is ``range(len(graph))``, a distance map's keys, or a path
    that :func:`path_query` or ``run_route_scan`` has checked. ``metric`` is set when
    ``order`` is the agent's drained distance map under that metric; the
    hit's distance under it is then read from the map, and any other from
    :meth:`Datagraph.nearest`. With ``agent`` None no distance is computed
    and ``first_satisfied`` is None.
    """
    responses: list[QueryResponse] = []
    hit: NodeId | None = None
    stopped_early = False

    def result() -> TraversalResult:
        first_satisfied = None
        if hit is not None and agent is not None:
            found = [
                (hit, order[hit]) if name == metric else graph.nearest(agent, (hit,), name)
                for name in ("hops", "meters")
            ]
            first_satisfied = (hit, *(None if f is None else f[1] for f in found))
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
            response = answer(nodes[v], query)
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
    return _run(graph, backend.answer, query, order, agent, stop_on_first, metric)


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
    _path_meters(graph, path)
    return _run(graph, backend.answer, query, path, path[0], stop_on_first=False)


def _path_meters(graph: Datagraph, path: list[NodeId]) -> float:
    """The length in meters of ``path``, checked as :func:`path_query` checks
    it: each node id first, then each pair of consecutive nodes."""
    for v in path:
        graph.node(v)
    meters = 0.0
    for u, v in zip(path, path[1:]):
        length_m = graph.edge_length(u, v)
        if length_m is None:
            raise InvalidPathError(u, v)
        meters += length_m
    return meters


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
    return _run(graph, backend.answer, query, range(len(graph)), agent, stop_on_first)


def aggregate_count(
    graph: Datagraph,
    backend: QueryBackend,
    query: Query,
    dedup_radius_m: float = 0.0,
) -> AggregateReport:
    """Count matches across all scenes, merging cross-scene duplicates.

    Matched objects from different nodes are merged (single-linkage) when
    their world positions lie within ``dedup_radius_m`` of each other and
    their labels and attributes are equal. Radius 0 disables merging. Above
    0, every answer must itemize its matches with world positions; the first
    answer that does not ends the scan before a later scene is queried.
    """
    if query.mode != "count":
        raise ValueError(f"aggregate_count requires a count query, got mode {query.mode!r}")
    if not (math.isfinite(dedup_radius_m) and dedup_radius_m >= 0):
        raise ValueError(f"dedup_radius_m must be finite and non-negative, got {dedup_radius_m!r}")

    def itemized(node: Node, query: Query) -> QueryResponse:
        response = backend.answer(node, query)
        if response.count != len(response.matches):
            raise DedupUnavailableError(
                f"node {node.id} reported {response.count} matches but itemized "
                f"{len(response.matches)}; dedup needs every matched object"
            )
        for obj in response.matches:
            if obj.world_position is None:
                raise DedupUnavailableError(
                    f"object {obj.label!r} from node {node.id} has no world position; "
                    "use radius 0 with backends that omit coordinates"
                )
        return response

    answer = itemized if dedup_radius_m > 0 else backend.answer
    responses = _run(graph, answer, query, range(len(graph)), None, False).responses
    per_node_counts = {r.node: r.count for r in responses}
    raw_total = sum(per_node_counts.values())
    if dedup_radius_m == 0:
        return AggregateReport(per_node_counts, raw_total, raw_total, ())
    matches = [(r.node, obj) for r in responses for obj in r.matches]
    groups = _single_linkage(matches, dedup_radius_m)
    merged = tuple(tuple(g) for g in groups if len(g) > 1)
    deduped_total = raw_total - sum(len(g) - 1 for g in merged)
    return AggregateReport(per_node_counts, raw_total, deduped_total, merged)


def _single_linkage(
    matches: list[tuple[NodeId, SceneObject]], radius: float
) -> list[list[tuple[NodeId, SceneObject]]]:
    """Cluster matches whose positions chain within radius and whose
    label+attributes are identical. The scan is quadratic in the matches of
    one signature: the 5,761 chairs of a 100² world took about 0.6 s."""
    by_signature: dict[tuple, list[int]] = {}
    for idx, (_, obj) in enumerate(matches):
        sig = (obj.label, tuple(sorted(obj.attributes.items())))
        by_signature.setdefault(sig, []).append(idx)

    parent = list(range(len(matches)))
    for indices in by_signature.values():
        for i, idx_a in enumerate(indices):
            pos_a = matches[idx_a][1].world_position
            for idx_b in indices[i + 1 :]:
                pos_b = matches[idx_b][1].world_position
                if math.dist(pos_a, pos_b) <= radius:  # the lower root becomes the parent
                    ra, rb = _root(parent, idx_a), _root(parent, idx_b)
                    parent[max(ra, rb)] = min(ra, rb)

    clusters: dict[int, list[tuple[NodeId, SceneObject]]] = {}
    for idx, item in enumerate(matches):
        clusters.setdefault(_root(parent, idx), []).append(item)
    return [clusters[root] for root in sorted(clusters)]

