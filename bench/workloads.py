"""The four workloads: set-up, the timed op, and the check of every op's output.

Each workload builds one round of ops from its seed; the runner repeats the
round, so a seed always yields the same op list and every per-op count is a
property of the seed. Checks never compare against stored output of the
library: expected values come from the plain BFS below, from the saved
ground-truth file read here, or from properties the method must have.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import requests

import datagraph as dg
from datagraph.mock_remote import MockRemoteServer

REPORT_FORMATS = ("json", "csv")
TRIALS = 2  # keyfob_match trials per keyfob_saved op
DETOURS = 2  # detour candidates per remote_routes op, besides the shortest route


class OpFailed(Exception):
    """The library returned an errored result for an op."""


def raise_on_errors(report):
    """``report`` itself, unless a trial in it errored."""
    for row in report.per_trial:
        if row.error is not None:
            raise OpFailed(f"trial {row.task_id} {row.strategy}: {row.error}")
    return report


# --- reference computations, independent of the library's graph code ----------


def adjacency(edges, n: int) -> list[set[int]]:
    """Neighbour sets from an edge list of (a, b) pairs."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def graph_adjacency(graph) -> list[set[int]]:
    return adjacency(((e.a, e.b) for e in graph.edges()), len(graph))


def bfs(adj: list[set[int]], source: int, until: set[int] | None = None) -> dict[int, int]:
    """Hop distances from ``source`` by a FIFO queue.

    Given ``until``, the search stops after the first hop level that holds
    one of its nodes, which is all :func:`nearest_hit` needs.
    """
    dist = {source: 0}
    queue = deque([source])
    stop_after = None
    while queue:
        v = queue.popleft()
        if stop_after is None and until is not None and v in until:
            stop_after = dist[v]
        if stop_after is not None and dist[v] >= stop_after:
            continue
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class Hit:
    """Closest satisfying node and the visit order a proximity search must take."""

    node: int
    hops: int
    order: tuple[int, ...]


def nearest_hit(dist: dict[int, int], satisfying) -> Hit | None:
    """Closest satisfying node by hops, ties to the smallest id.

    The search visits nodes by (hops, id), so its query count is the nodes
    strictly closer plus the tied nodes with id <= the hit.
    """
    found = [(d, v) for v, d in dist.items() if v in satisfying]
    if not found:
        return None
    hops, node = min(found)
    order = sorted((d, v) for v, d in dist.items() if (d, v) <= (hops, node))
    return Hit(node, hops, tuple(v for _, v in order))


def world_summary(world) -> tuple[int, list[set[int]], dict[str, set[int]]]:
    """Node count, adjacency and label holders of a generated (graph, truth) pair."""
    graph = world[0]
    return len(graph), graph_adjacency(graph), holders(graph)


def holders(graph) -> dict[str, set[int]]:
    """Label -> nodes whose snapshot holds an object with that label."""
    out: dict[str, set[int]] = {}
    for node in graph.nodes():
        for obj in node.snapshot.objects:
            out.setdefault(obj.label, set()).add(node.id)
    return out


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def check_compare_rows(problems, report, trial: int, n_nodes: int, hit: Hit, brute_hops: int):
    """One trial's rows: proximity stops at the closest hit, brute force scans all."""
    rows = {r.strategy: r for r in report.per_trial if r.task_id == trial}
    expect(problems, f"trial {trial} strategies", sorted(rows), ["brute_force", "proximity"])
    if len(rows) != 2:
        return
    prox, brute = rows["proximity"], rows["brute_force"]
    expect(problems, f"trial {trial} proximity calls", prox.backend_calls, len(hit.order))
    expect(problems, f"trial {trial} proximity hops", prox.hops_of_found, hit.hops)
    expect(problems, f"trial {trial} optimal hops", prox.optimal_hops, hit.hops)
    expect(problems, f"trial {trial} proximity closest", prox.found_is_closest, True)
    expect(problems, f"trial {trial} brute-force calls", brute.backend_calls, n_nodes)
    expect(problems, f"trial {trial} brute-force hops", brute.hops_of_found, brute_hops)
    expect(problems, f"trial {trial} brute-force closest", brute.found_is_closest, brute_hops == hit.hops)


def check_report_files(problems, report, out_dir: Path) -> None:
    doc = json.loads((out_dir / "compare.json").read_text(encoding="utf-8"))
    expect(problems, "compare.json rows", doc["per_trial"], report.to_json_dict()["per_trial"])
    lines = (out_dir / "compare.csv").read_text(encoding="utf-8").splitlines()
    expect(problems, "compare.csv rows", len(lines) - 1, len(report.per_trial))


# --- workloads -------------------------------------------------------------------


class Workload:
    """One round of seeded ops over state built in set-up."""

    ops: list

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def queries(self, output) -> int:
        """Live scene queries (backend calls) the op spent."""
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class CompareFresh(Workload):
    """One-trial ``run_compare`` on an inline world generated inside the op."""

    @dataclass(frozen=True)
    class Size:
        grid: int = 32
        round_ops: int = 100

    def __init__(self, seed: int, size: Size, scratch: Path, probe):
        rng = random.Random(f"compare_fresh/{seed}")
        self.probe = probe
        # Keep only what the check needs, so the world is freed inside the op.
        probe.capture_as["worldgen.generate_world"] = world_summary
        self.out_dir = scratch / "reports"
        self.ops = [
            dg.ExperimentConfig(
                world=dg.WorldSpec(size.grid, size.grid, seed=rng.getrandbits(63)),
                tasks=dg.TaskConfig("nearest_search", 1, rng.getrandbits(63)),
                report_formats=REPORT_FORMATS,
                output_dir=str(self.out_dir),
            )
            for _ in range(size.round_ops)
        ]
        self.expected: dict[int, tuple] = {}

    def run_op(self, i):
        return raise_on_errors(dg.run_compare(self.ops[i]))

    def check(self, i, report):
        problems: list[str] = []
        task = self.probe.captured["worldgen.tasks"][-1]
        if i not in self.expected:
            n_nodes, adj, by_label = self.probe.captured["worldgen.generate_world"][-1]
            label = task.query.predicate.label_equals
            dist = bfs(adj, task.agent_node)
            satisfying = by_label.get(label, set())
            hit = nearest_hit(dist, satisfying)
            if hit is None:
                return [f"op {i}: no {label!r} reachable from {task.agent_node}"]
            brute_hops = dist[min(satisfying)]
            self.expected[i] = (task.agent_node, label, n_nodes, hit, brute_hops)
        agent, label, n_nodes, hit, brute_hops = self.expected[i]
        expect(problems, "task", (task.agent_node, task.query.predicate.label_equals), (agent, label))
        check_compare_rows(problems, report, 0, n_nodes, hit, brute_hops)
        check_report_files(problems, report, self.out_dir)
        return problems

    def queries(self, report):
        return sum(row.backend_calls for row in report.per_trial)


class BigWorld(Workload):
    """``proximity_search_first`` on one large world generated, saved and reloaded."""

    @dataclass(frozen=True)
    class Size:
        grid: int = 90
        round_ops: int = 520

    def __init__(self, seed: int, size: Size, scratch: Path, probe):
        rng = random.Random(f"big_world/{seed}")
        spec = dg.WorldSpec(size.grid, size.grid, seed=rng.getrandbits(63))
        graph, truth = dg.generate_world(spec)
        self.path = scratch / "big_world.json"
        truth_path = scratch / "big_world_truth.json"
        graph.save(self.path)
        truth.save(truth_path)
        del graph, truth
        self.graph = dg.Datagraph.load(self.path)
        labels = sorted({inst.label for inst in dg.GroundTruth.load(truth_path).physical_instances()})
        adj = graph_adjacency(self.graph)
        by_label = holders(self.graph)
        self.ops = []
        for _ in range(1000 * size.round_ops):
            if len(self.ops) == size.round_ops:
                break
            label = labels[rng.randrange(len(labels))]
            agent = rng.randrange(len(self.graph))
            satisfying = by_label.get(label, set())
            hit = nearest_hit(bfs(adj, agent, until=satisfying), satisfying)
            if hit is not None:
                self.ops.append((label, agent, hit))
        else:
            raise RuntimeError("big_world: could not draw enough (label, agent) pairs")
        self.queries_for = [
            dg.Query(f"find the nearest {label}", dg.Predicate(label_equals=label))
            for label, _, _ in self.ops
        ]

    def run_op(self, i):
        backend = dg.CachingBackend(dg.OracleBackend())
        return dg.proximity_search_first(self.graph, backend, self.queries_for[i], self.ops[i][1])

    def check(self, i, result):
        problems: list[str] = []
        _, _, hit = self.ops[i]
        expect(problems, f"op {i} visit order", result.visit_order, hit.order)
        expect(problems, f"op {i} calls", result.total_backend_calls, len(hit.order))
        first = result.first_satisfied[:2] if result.first_satisfied else None
        expect(problems, f"op {i} first hit", first, (hit.node, hit.hops))
        return problems

    def queries(self, result):
        return result.total_backend_calls

    def final_check(self):
        resaved = self.path.with_name("big_world_resaved.json")
        self.graph.save(resaved)
        same = resaved.read_bytes() == self.path.read_bytes()
        resaved.unlink()
        return [] if same else ["re-saving the loaded big_world graph changed its bytes"]


class KeyfobSaved(Workload):
    """Multi-trial keyfob ``run_compare`` against a world saved in set-up."""

    @dataclass(frozen=True)
    class Size:
        grid: int = 24
        round_ops: int = 100

    def __init__(self, seed: int, size: Size, scratch: Path, probe):
        rng = random.Random(f"keyfob_saved/{seed}")
        self.probe = probe
        world_path = scratch / "keyfob_world.json"
        truth_path = scratch / "keyfob_truth.json"
        for _ in range(100):
            graph, truth = dg.generate_world(dg.WorldSpec(size.grid, size.grid, seed=rng.getrandbits(63)))
            graph.save(world_path)
            truth.save(truth_path)
            self._read_files(world_path, truth_path)
            if any(len(self.keyfob_nodes.get(number, ())) == 1 for _, number in self.doors):
                break
        else:
            raise RuntimeError("keyfob_saved: no world with a door keyed to one keyfob")
        self.out_dir = scratch / "reports"
        self.ops = [
            dg.ExperimentConfig(
                world=dg.WorldFiles(str(world_path), str(truth_path)),
                tasks=dg.TaskConfig("keyfob_match", TRIALS, rng.getrandbits(63)),
                report_formats=REPORT_FORMATS,
                output_dir=str(self.out_dir),
            )
            for _ in range(size.round_ops)
        ]
        self.distances: dict[int, dict[int, int]] = {}

    def _read_files(self, world_path: Path, truth_path: Path) -> None:
        """Doors, keyfobs and adjacency read straight from the saved JSON files."""
        world = json.loads(world_path.read_text(encoding="utf-8"))
        self.n_nodes = len(world["nodes"])
        self.adj = adjacency(((e["a"], e["b"]) for e in world["edges"]), self.n_nodes)
        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        physical = [inst for inst in truth["instances"] if inst["duplicate_of"] is None]
        self.doors = {
            (inst["home_node"], inst["attributes"]["number"])
            for inst in physical
            if inst["label"] == "door" and "number" in inst["attributes"]
        }
        self.keyfob_nodes: dict[str, set[int]] = {}
        for inst in physical:
            if inst["label"] == "keyfob" and "number" in inst["attributes"]:
                self.keyfob_nodes.setdefault(inst["attributes"]["number"], set()).add(inst["home_node"])

    def run_op(self, i):
        return raise_on_errors(dg.run_compare(self.ops[i]))

    def check(self, i, report):
        problems: list[str] = []
        tasks = self.probe.captured["worldgen.tasks"]
        expect(problems, f"op {i} tasks", len(tasks), TRIALS)
        for trial, task in enumerate(tasks):
            number = dict(task.query.predicate.attribute_equals).get("number")
            if (task.agent_node, number) not in self.doors:
                problems.append(f"op {i} trial {trial}: node {task.agent_node} has no door {number!r}")
                continue
            fobs = self.keyfob_nodes.get(number, set())
            if len(fobs) != 1:
                problems.append(f"op {i} trial {trial}: keyfob {number!r} is in nodes {sorted(fobs)}")
                continue
            if task.agent_node not in self.distances:
                self.distances[task.agent_node] = bfs(self.adj, task.agent_node)
            dist = self.distances[task.agent_node]
            hit = nearest_hit(dist, fobs)
            check_compare_rows(problems, report, trial, self.n_nodes, hit, hit.hops)
        check_report_files(problems, report, self.out_dir)
        return problems

    def queries(self, report):
        return sum(row.backend_calls for row in report.per_trial)


class RemoteRoutes(Workload):
    """``run_route_scan`` of a shortest route and detours through the loopback mock."""

    @dataclass(frozen=True)
    class Size:
        grid: int = 30
        round_ops: int = 200
        route_hops: int = 12

    def __init__(self, seed: int, size: Size, scratch: Path, probe):
        rng = random.Random(f"remote_routes/{seed}")
        self.graph, truth = dg.generate_world(dg.WorldSpec(size.grid, size.grid, seed=rng.getrandbits(63)))
        truth_path = scratch / "remote_truth.json"
        truth.save(truth_path)
        doc = json.loads(truth_path.read_text(encoding="utf-8"))
        self.hazards = {
            inst["home_node"] for inst in doc["instances"] if inst["attributes"].get("hazard") == "true"
        }
        self.adj = graph_adjacency(self.graph)
        self.route_hops = size.route_hops
        self.ops = []
        n = len(self.graph)
        for _ in range(1000 * size.round_ops):
            if len(self.ops) == size.round_ops:
                break
            start = rng.randrange(n)
            from_start = bfs(self.adj, start)
            ring = sorted(v for v, d in from_start.items() if d == size.route_hops)
            if not ring:
                continue
            goal = ring[rng.randrange(len(ring))]
            from_goal = bfs(self.adj, goal)
            # waypoints of two-hop detours: on some start-goal walk two hops longer
            waypoints = sorted(
                v for v, d in from_start.items() if d + from_goal[v] == size.route_hops + 2
            )
            if len(waypoints) >= DETOURS:
                self.ops.append((start, goal, tuple(rng.sample(waypoints, DETOURS))))
        else:
            raise RuntimeError("remote_routes: could not draw enough start/goal pairs")
        self.server = MockRemoteServer(handler=probe.wrap_handler(self.answer_request)).start()
        self.session = requests.Session()
        self.remote = dg.RemoteBackend(
            dg.RemoteEndpointConfig(self.server.base_url, max_in_flight=1), session=self.session
        )
        self.requests_expected = 0

    def answer_request(self, body: dict) -> tuple[int, dict]:
        """The mock model: a node is hazardous iff ground truth puts a hazard there."""
        hazardous = body["node_id"] in self.hazards
        return 200, {"satisfied": hazardous, "count": int(hazardous), "text": "hazard" if hazardous else "clear"}

    def run_op(self, i):
        start, goal, waypoints = self.ops[i]
        routes = [self.graph.shortest_path(start, goal, traversable_only=True)]
        for w in waypoints:
            head = self.graph.shortest_path(start, w, traversable_only=True)
            tail = self.graph.shortest_path(w, goal, traversable_only=True)
            routes.append(head + tail[1:])
        return dg.run_route_scan(
            self.graph, dg.CachingBackend(self.remote), start, goal, candidate_routes=routes
        )

    def check(self, i, report):
        problems: list[str] = []
        start, goal, waypoints = self.ops[i]
        entries = report.entries
        expect(problems, f"op {i} routes", len(entries), 1 + len(waypoints))
        for k, entry in enumerate(entries):
            route = entry.route
            want_hops = self.route_hops + (2 if k else 0)
            expect(problems, f"op {i} route {k} ends", (route[0], route[-1]), (start, goal))
            expect(problems, f"op {i} route {k} hops", entry.length_hops, want_hops)
            expect(problems, f"op {i} route {k} length", len(route) - 1, want_hops)
            if k:
                expect(problems, f"op {i} route {k} passes waypoint", waypoints[k - 1] in route, True)
            if not all(b in self.adj[a] for a, b in zip(route, route[1:])):
                problems.append(f"op {i} route {k} is not a chain of adjacent nodes")
            verdicts = tuple((v, v in self.hazards) for v in route)
            expect(problems, f"op {i} route {k} verdicts", entry.verdicts, verdicts)
            hazard_nodes = tuple(dict.fromkeys(v for v in route if v in self.hazards))
            expect(problems, f"op {i} route {k} hazard nodes", entry.hazard_nodes, hazard_nodes)
        scanned = set().union(*(entry.route for entry in entries))
        expect(problems, f"op {i} live calls", report.total_backend_calls, len(scanned))
        best = min(range(len(entries)), key=lambda k: (entries[k].hazard_count, entries[k].length_hops, entries[k].route))
        expect(problems, f"op {i} selected route", report.selected_index, best)
        self.requests_expected += report.total_backend_calls
        expect(problems, f"op {i} requests seen by the server", len(self.server.requests), self.requests_expected)
        return problems

    def queries(self, report):
        return report.total_backend_calls

    def close(self):
        self.session.close()
        self.server.stop()


WORKLOADS = {
    "compare_fresh": CompareFresh,
    "big_world": BigWorld,
    "keyfob_saved": KeyfobSaved,
    "remote_routes": RemoteRoutes,
}
