"""Every input file reader, fed a valid document with one field changed.

Each case sets one field of a valid document (at any depth) to one of about
twenty JSON values, or deletes it, writes the document to a file and reads
it the way the CLI does; a config's reader also builds the run's backend,
which opens no connection. Only a ``DatagraphError``, which the CLI prints as
one ``error:`` line, may escape.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from datagraph import (
    CachingBackend,
    DatagraphError,
    ExperimentConfig,
    OracleBackend,
    Predicate,
    Query,
    ReplayStore,
    WorldSpec,
    generate_world,
    oracle_answer,
    run_route_scan,
)
from datagraph.cli import _read_routes
from datagraph.harness import WorldFiles, build_base_backend, load_world_files

# JSON texts, written into the document as they stand: 1e400 parses as an
# infinite float and NaN as a NaN, neither of which json.dumps would write
VALUES = [
    "null", "true", "false", "0", "-1", "1", "0.5", str(2**70), "1e400", "NaN", "-Infinity",
    '""', '"x"', '"0"', '"hops"', "[]", "[0]", '["a"]', "[[0]]", "{}", '{"a": 1}',
]
DELETE = "delete"
MARK = "\x00field\x00"


def field_paths(doc, prefix=()):
    """The path of every field in ``doc``, at every depth: object keys and array indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from field_paths(value, (*prefix, key))


def mutated(doc, path, value: str) -> str:
    """``doc`` as JSON text with the field at ``path`` set to the JSON text ``value``, or deleted."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = MARK
    return json.dumps(doc).replace(json.dumps(MARK), value)


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """Reader name -> (valid documents, how the CLI reads such a file)."""
    directory = tmp_path_factory.mktemp("valid")
    spec = WorldSpec(2, 2, seed=12, objects_per_room_mean=2.0, boundary_duplicate_prob=0.5)  # one duplicate
    graph, ground_truth = generate_world(spec)
    world = WorldFiles(str(directory / "world.json"), str(directory / "ground_truth.json"))
    graph.save(world.path)
    ground_truth.save(world.ground_truth_path)
    store = ReplayStore()
    query = Query("find the door", Predicate("door"))
    for node in graph.nodes():
        store.record(node, query, oracle_answer(node.snapshot, query, node.id))
    store.save(directory / "store.json")
    path = graph.shortest_path(0, len(graph) - 1)
    start, goal = path[0], path[-1]

    def scan(routes_path):
        run_route_scan(graph, CachingBackend(OracleBackend()), start, goal, "hops", _read_routes(routes_path))

    saved_config = {
        "world": {"path": world.path, "ground_truth": world.ground_truth_path},
        "tasks": {"kind": "keyfob_match", "count": 2, "seed": 1},
        "backend": {"kind": "replay", "store_path": str(directory / "store.json"),
                    "record_path": str(directory / "record.json")},
        "strategies": ["proximity", "brute_force"],
        "cache_enabled": True,
        "shared_cache": True,
        "output_dir": str(directory),
        "report_formats": ["json", "csv"],
        "metric": "meters",
        "brute_force_stop_on_first": False,
    }
    inline_config = {
        "world": spec.to_json_dict(),
        "tasks": {"kind": "nearest_search", "count": 1},
        "backend": {"kind": "remote", "forward_annotations": True,
                    "remote": {"base_url": "http://127.0.0.1:1", "timeout_ms": 50, "max_in_flight": 2,
                               "auth_token": "t"}},
    }
    return {
        "world": (
            [json.loads((directory / "world.json").read_text())],
            lambda path: load_world_files(WorldFiles(path, world.ground_truth_path)),
        ),
        "ground-truth": (
            [json.loads((directory / "ground_truth.json").read_text())],
            lambda path: load_world_files(WorldFiles(world.path, path)),
        ),
        "world-spec": ([spec.to_json_dict()], WorldSpec.load),
        "config": (
            [saved_config, inline_config],
            lambda path: build_base_backend(ExperimentConfig.load(path).backend),
        ),
        "replay-store": ([store.to_json_dict()], ReplayStore.load),
        "routes": ([[path, [start, path[1], *path]]], scan),
    }


@pytest.mark.parametrize("reader", ["world", "ground-truth", "world-spec", "config", "replay-store", "routes"])
@settings(max_examples=1000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_document_with_one_field_changed_raises_only_a_datagraph_error(readers, tmp_path_factory, reader, data):
    # each example draws a field it has not drawn before, and hypothesis stops
    # once none is left (under 200 per reader), so every field gets every value
    documents, read = readers[reader]
    doc = data.draw(st.sampled_from(documents), label="document")
    path = data.draw(st.sampled_from(list(field_paths(doc))), label="field")
    target = tmp_path_factory.getbasetemp() / f"fuzzed-{reader}.json"
    for value in [*VALUES, DELETE]:
        target.write_text(mutated(doc, path, value))
        try:
            read(target)
        except DatagraphError:
            continue
        except Exception as exc:  # the CLI would print it as a traceback
            pytest.fail(f"{value} at {list(path)}: {type(exc).__name__}: {exc}")
