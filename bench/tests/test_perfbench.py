"""The benchmark's own tests: tiny runs of every workload, and planted faults
that the checks must catch. Run with ``python -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import datagraph as dg  # noqa: E402
import measure  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "compare_fresh": workloads.CompareFresh.Size(grid=6, round_ops=3),
    "big_world": workloads.BigWorld.Size(grid=12, round_ops=6),
    "keyfob_saved": workloads.KeyfobSaved.Size(grid=8, round_ops=2),
    "remote_routes": workloads.RemoteRoutes.Size(grid=8, round_ops=3, route_hops=4),
}


def tiny_run(name: str, tmp_path: Path, trace: bool = False) -> dict:
    return measure.measure(
        name, seed=3, seconds=0.01, trace=trace, scratch=tmp_path / "scratch", size=TINY[name], min_ops=1
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % result["ops_per_round"] == 0
    assert set(result["metrics"]) == set(measure.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "scratch").exists()


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = measure.measure(
        name, 3, 0.01, True, tmp_path / "scratch", size=TINY[name], min_ops=1, spans_path=spans
    )
    assert result["correct"]
    assert list(result["metrics"]) == [metric for metric, *_ in probe.PER_LAYER]
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"id", "parent", "name", "phase", "op", "start", "end"}
    # the probe put every library function back
    assert dg.run_compare.__module__ == "datagraph.harness"
    assert "traced" not in dg.Datagraph.hop_distances.__qualname__


def test_same_seed_same_op_list(tmp_path):
    a = workloads.BigWorld(5, TINY["big_world"], tmp_path, probe.Probe(False))
    b = workloads.BigWorld(5, TINY["big_world"], tmp_path, probe.Probe(False))
    assert a.ops == b.ops


def test_nearest_hit_counts_closer_nodes_and_ties_up_to_the_hit():
    # 0 - 1 - 3, 0 - 2 - 3 - 4: nodes 1 and 2 tie at one hop
    adj = workloads.adjacency([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)], 5)
    dist = workloads.bfs(adj, 0)
    assert dist == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    assert workloads.nearest_hit(dist, {2, 4}) == workloads.Hit(2, 1, (0, 1, 2))
    assert workloads.nearest_hit(dist, {4}).order == (0, 1, 2, 3, 4)
    assert workloads.nearest_hit(dist, set()) is None


class HidesClosestHit(dg.OracleBackend):
    """Answers 'not here' for the first satisfying scene it is asked about."""

    def __init__(self):
        self.hidden = False

    def answer(self, node, query):
        response = super().answer(node, query)
        if response.satisfied and not self.hidden:
            self.hidden = True
            return replace(response, satisfied=False, matches=(), count=0)
        return response


@pytest.mark.parametrize(
    "name, module", [("big_world", dg), ("compare_fresh", sys.modules["datagraph.harness"])]
)
def test_backend_hiding_the_closest_scene_fails_the_check(name, module, monkeypatch, tmp_path):
    monkeypatch.setattr(module, "OracleBackend", HidesClosestHit)
    result = tiny_run(name, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 0


def test_backend_raising_partway_through_a_run_fails_it(monkeypatch, tmp_path):
    class FailsFifthSearch(dg.OracleBackend):
        """Raises on every call of the fifth backend made: the second timed op,
        after the three set-ups' warm-up ops."""

        made = 0

        def __init__(self):
            type(self).made += 1
            self.fails = type(self).made == 5

        def answer(self, node, query):
            if self.fails:
                raise RuntimeError("planted failure")
            return super().answer(node, query)

    monkeypatch.setattr(dg, "OracleBackend", FailsFifthSearch)
    result = tiny_run("big_world", tmp_path)
    assert result["failed"] == 1
    assert not result["correct"]
    assert any("planted failure" in problem for problem in result["problems"])


def test_flipped_hazard_verdict_fails_the_check(monkeypatch, tmp_path):
    answer = workloads.RemoteRoutes.answer_request

    def flip_one_node(self, body):
        status, doc = answer(self, body)
        if body["node_id"] == self.ops[0][0]:
            doc = dict(doc, satisfied=not doc["satisfied"])
        return status, doc

    monkeypatch.setattr(workloads.RemoteRoutes, "answer_request", flip_one_node)
    result = tiny_run("remote_routes", tmp_path)
    assert not result["correct"]
    assert any("verdicts" in problem for problem in result["problems"])


def test_run_without_library_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "big_world", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
