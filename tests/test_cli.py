from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from datagraph import Datagraph, ReplayStore, WorldSpec, generate_world
from datagraph.cli import main
from helpers import build_graph


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def world_dir(tmp_path, runner):
    out = tmp_path / "world"
    result = runner.invoke(
        main,
        ["gen", "--grid-w", "4", "--grid-h", "3", "--seed", "12", "--objects-mean", "2.0",
         "--dup-prob", "0.4", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def test_gen_writes_world_and_sidecars(world_dir):
    assert (world_dir / "world.json").exists()
    assert (world_dir / "ground_truth.json").exists()
    assert (world_dir / "worldspec.json").exists()
    graph = Datagraph.load(world_dir / "world.json")
    assert len(graph) == 12
    assert graph.validate() == []


def test_gen_from_spec_file(tmp_path, runner):
    spec = WorldSpec(grid_w=2, grid_h=2, seed=3)
    spec_path = tmp_path / "spec.json"
    spec.save(spec_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["gen", "--spec", str(spec_path), str(out)])
    assert result.exit_code == 0, result.output
    graph, _ = generate_world(spec)
    assert Datagraph.load(out / "world.json") == graph


def test_validate_ok(world_dir, runner):
    result = runner.invoke(main, ["validate", str(world_dir / "world.json")])
    assert result.exit_code == 0
    assert "0 violations" in result.output


def test_validate_flags_corrupt_document(tmp_path, runner):
    doc = {
        "format_version": 1,
        "nodes": [
            {"id": 0, "pose": {"position": [0, 0, 0]}, "snapshot": {"objects": []}},
            {"id": 1, "pose": {"position": [1, 0, 0]}, "snapshot": {"objects": []}},
        ],
        "edges": [{"a": 0, "b": 1, "traversable": True, "length_m": -1.0}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 1
    assert "edge-length" in result.output


def test_validate_parse_error_exit_code(tmp_path, runner):
    path = tmp_path / "truncated.json"
    path.write_text('{"format_version": 1, "nodes": [')
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


def test_compare_with_config_file(tmp_path, runner):
    config = {
        "world": {"format_version": 1, "grid_w": 3, "grid_h": 3, "seed": 6},
        "tasks": {"kind": "nearest_search", "count": 2, "seed": 4},
        "report_formats": ["json", "csv"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "reports"
    result = runner.invoke(main, ["compare", "--config", str(config_path), "-o", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "compare.json").read_text())
    assert len(report["per_trial"]) == 4
    assert (out / "compare.csv").exists()
    assert "proximity" in result.output


def test_compare_flag_overrides(tmp_path, runner):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "world": {"format_version": 1, "grid_w": 3, "grid_h": 3, "seed": 6},
                "tasks": {"kind": "nearest_search", "count": 5, "seed": 4},
            }
        )
    )
    out = tmp_path / "reports"
    result = runner.invoke(
        main,
        ["compare", "--config", str(config_path), "-o", str(out),
         "--count", "1", "--strategies", "proximity"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((out / "compare.json").read_text())
    assert len(report["per_trial"]) == 1
    assert report["per_trial"][0]["strategy"] == "proximity"


def test_route_command_selects_clean_route(world_dir, runner, tmp_path):
    output = tmp_path / "route.json"
    result = runner.invoke(
        main,
        ["route", "--world", str(world_dir / "world.json"), "--start", "0", "--goal", "11",
         "--output", str(output)],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(output.read_text())
    assert doc["start"] == 0 and doc["goal"] == 11
    assert doc["selected_route"][0] == 0
    assert doc["selected_route"][-1] == 11


def test_aggregate_command_reports_truth(world_dir, runner, tmp_path):
    output = tmp_path / "agg.json"
    result = runner.invoke(
        main,
        ["aggregate", "--world", str(world_dir / "world.json"),
         "--ground-truth", str(world_dir / "ground_truth.json"),
         "--label", "extinguisher", "--radius", "0.5", "--output", str(output)],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(output.read_text())
    assert doc["count_error"] == 0
    assert "raw_total" in result.output


def test_replay_record_then_run(tmp_path, runner):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "world": {"format_version": 1, "grid_w": 3, "grid_h": 3, "seed": 2},
                "tasks": {"kind": "nearest_search", "count": 2, "seed": 9},
            }
        )
    )
    store = tmp_path / "session.json"
    record = runner.invoke(
        main, ["replay-record", "--store", str(store), "--config", str(config_path)]
    )
    assert record.exit_code == 0, record.output
    assert store.exists()
    rerun = runner.invoke(
        main, ["replay-run", "--store", str(store), "--config", str(config_path)]
    )
    assert rerun.exit_code == 0, rerun.output
    assert "closest_rate=1.0" in rerun.output


def test_compare_requires_tasks(runner, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"world": {"format_version": 1, "grid_w": 2, "grid_h": 2}}))
    result = runner.invoke(main, ["compare", "--config", str(config_path)])
    assert result.exit_code == 2
    assert result.stderr == "error: config.tasks must be an object\n"
    # flags fill in what the file leaves out
    result = runner.invoke(
        main, ["compare", "--config", str(config_path), "--kind", "nearest_search", "--count", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "proximity: trials=2 errors=0" in result.output


@pytest.fixture
def input_files(tmp_path, world_dir):
    """Paths substituted for the ``{name}`` placeholders of the failure cases."""
    files = {"world": world_dir / "world.json", "bad": tmp_path / "bad.json"}
    files["bad"].write_text("{")
    files["island"] = tmp_path / "island.json"
    build_graph(2, []).save(files["island"])
    files["empty_store"] = tmp_path / "store.json"
    ReplayStore().save(files["empty_store"])
    for name, world in [
        ("inline_shared", {"format_version": 1, "grid_w": 2, "grid_h": 2}),
        ("no_truth", {"path": str(files["world"])}),
        ("negative_seed", {"format_version": 1, "grid_w": 2, "grid_h": 2}),
    ]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({
            "world": world,
            "tasks": {"kind": "nearest_search", "count": 2, "seed": -1 if name == "negative_seed" else 0},
            "shared_cache": name == "inline_shared",
        }))
    files["short_route"] = tmp_path / "short_route.json"
    files["short_route"].write_text("[[0, 1]]")
    return files


ROUTE = ["route", "--world", "{world}", "--start", "0", "--goal", "11"]
AGGREGATE = ["aggregate", "--world", "{world}", "--label", "extinguisher"]


@pytest.mark.parametrize(
    "args, exit_code, message",
    [
        pytest.param(["compare", "--config", "{bad}"], 2, "error: config is not valid JSON",
                     id="compare-bad-json"),
        pytest.param(["compare"], 2, "error: no experiment config; pass --config FILE",
                     id="compare-no-config"),
        pytest.param(["compare", "--config", "{inline_shared}"], 2, "error: shared_cache needs a saved world",
                     id="compare-shared-inline"),
        pytest.param(["compare", "--config", "{no_truth}"], 1, "4 trial run(s) errored",
                     id="compare-errored-trials"),
        pytest.param(["compare", "--config", "{negative_seed}"], 2,
                     "error: task seed must be a non-negative integer, got -1",
                     id="compare-negative-seed"),
        pytest.param(["compare", "--config", "{no_truth}", "--seed", "-1"], 2,
                     "error: task seed must be a non-negative integer, got -1",
                     id="compare-negative-seed-flag"),
        pytest.param(["replay-run", "--store", "{bad}", "--config", "{no_truth}"], 2, "error: invalid JSON",
                     id="replay-bad-store"),
        pytest.param(["route", "--world", "{world}", "--start", "0", "--goal", "99"], 2, "error: unknown node id: 99",
                     id="route-unknown-node"),
        pytest.param(["route", "--world", "{island}", "--start", "0", "--goal", "1"], 2,
                     "error: goal 1 is unreachable from 0",
                     id="route-unreachable"),
        pytest.param(["route", "--world", "{bad}", "--start", "0", "--goal", "1"], 2, "error: invalid JSON",
                     id="route-bad-world"),
        pytest.param(ROUTE + ["--routes", "{bad}"], 2, "error: routes file",
                     id="routes-bad-json"),
        pytest.param(ROUTE + ["--routes", "{no_truth}"], 2, "expected an array of non-empty node id arrays",
                     id="routes-not-arrays"),
        pytest.param(ROUTE + ["--routes", "{short_route}"], 2,
                     "error: candidate route [0, 1] does not join 0 to 11",
                     id="routes-not-joining-start-to-goal"),
        pytest.param(ROUTE + ["--timeout-ms", "0"], 2, "error: Invalid value for '--timeout-ms'",
                     id="timeout-zero"),
        pytest.param(ROUTE + ["--backend", "replay"], 2, "error: replay backend needs a store_path",
                     id="replay-no-store"),
        pytest.param(ROUTE + ["--backend", "remote"], 2, "error: remote backend needs endpoint settings",
                     id="remote-no-url"),
        pytest.param(ROUTE + ["--backend", "replay", "--store", "{empty_store}"], 3,
                     "error: no recorded response for node 0",
                     id="route-replay-miss"),
        pytest.param(ROUTE + ["--backend", "remote", "--base-url", "http://127.0.0.1:1", "--timeout-ms", "500"],
                     3, "error: remote endpoint returned status 0",
                     id="route-remote-refused"),
        pytest.param(AGGREGATE + ["--radius", "-1"], 2, "error: Invalid value for '--radius'",
                     id="radius-negative"),
        pytest.param(AGGREGATE + ["--attr", "colour"], 2, "error: --attr needs key=value",
                     id="attr-no-value"),
        pytest.param(AGGREGATE + ["--backend", "replay", "--store", "{empty_store}"], 3,
                     "error: no recorded response for node 0",
                     id="aggregate-replay-miss"),
    ],
)
def test_failures_exit_with_code_and_one_stderr_line(runner, input_files, args, exit_code, message):
    args = [arg.format(**input_files) for arg in args]
    result = runner.invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)  # no traceback
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert message in lines[0]
