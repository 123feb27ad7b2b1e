"""Document files: the one reader, the streaming writer against ``to_json_dict``, and
atomic replacement."""

from __future__ import annotations

import ast
import gc
import json
import os
import re
import stat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    ConfigError,
    Datagraph,
    ExperimentConfig,
    GraphParseError,
    GroundTruth,
    GroundTruthInstance,
    Node,
    OutputError,
    Pose,
    Predicate,
    Query,
    QueryResponse,
    ReplayStore,
    SceneObject,
    Snapshot,
    WorldSpec,
    WorldSpecError,
    generate_world,
)
from datagraph import backends, cli, graph, output, worldgen
from helpers import build_graph, random_decorated_graph

# characters json.dumps escapes (quote, backslash, controls), non-ASCII ones it
# writes as \u escapes (a surrogate pair above the BMP), and anything else
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé 😀'), st.characters()), min_size=1, max_size=6
)
# floats whose repr has an exponent, a sign or no fraction, besides any finite one
FLOAT = st.one_of(
    st.sampled_from([1e-300, 1e16, -0.0, 5e-324, 1.7976931348623157e308, -2.5, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
LENGTH = st.one_of(st.sampled_from([1e-300, 1e16, 5e-324, 0.1]), st.floats(min_value=1e-6, max_value=1e9))
POSITION = st.tuples(FLOAT, FLOAT, FLOAT)
ORIENTATION = st.sampled_from([None, (1.0, 0.0, 0.0, 0.0), (0.0, -0.0, 0.6, 0.8), (0.5, 0.5, -0.5, 0.5)])
ATTRIBUTES = st.dictionaries(TEXT, TEXT, max_size=3)
IDS = st.integers(-(2**70), 2**70)


def scene_objects(world_position=st.one_of(st.none(), POSITION)):
    return st.builds(SceneObject, TEXT, ATTRIBUTES, world_position, IDS)


@st.composite
def graphs(draw) -> Datagraph:
    n = draw(st.integers(0, 5))
    poses, snapshots = [], []
    for _ in range(n):
        objects = draw(st.lists(scene_objects(), max_size=3))
        payload_ref = draw(st.one_of(st.none(), st.text(max_size=6), TEXT))
        snapshots.append(Snapshot(objects, payload_ref))
        poses.append(Pose(draw(POSITION), draw(ORIENTATION)))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = []
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        traversable = draw(st.booleans())
        edges.append((a, b, draw(LENGTH), traversable))
    return build_graph(n, edges, poses=poses, snapshots=snapshots)


ground_truths = st.builds(
    GroundTruth,
    st.lists(
        st.builds(GroundTruthInstance, IDS, TEXT, ATTRIBUTES, POSITION, IDS, st.one_of(st.none(), IDS)),
        max_size=4,
    ),
)


@st.composite
def stores(draw) -> ReplayStore:
    store = ReplayStore()
    for _ in range(draw(st.integers(0, 4))):
        query = Query(draw(TEXT), Predicate(label_equals=draw(TEXT)), draw(st.sampled_from(["find", "count"])))
        response = QueryResponse(
            node=draw(IDS),
            satisfied=draw(st.booleans()),
            matches=draw(st.lists(scene_objects(), max_size=2)),
            count=draw(IDS),
            text=draw(st.text(max_size=6)),
            backend_calls=draw(st.integers(0, 1)),
        )
        scene = Snapshot(draw(st.lists(scene_objects(), max_size=2)), draw(st.one_of(st.none(), TEXT)))
        store.record(Node(draw(IDS), Pose((0.0, 0.0, 0.0)), scene), query, response)
    return store


def _expected(document) -> bytes:
    return (json.dumps(document.to_json_dict(), indent=2) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def destination(tmp_path_factory):
    return tmp_path_factory.mktemp("saved") / "document.json"


@given(document=st.one_of(graphs(), ground_truths, stores()))
@settings(max_examples=300)
def test_saved_bytes_equal_json_dumps_of_the_document(destination, document):
    document.save(destination)
    assert destination.read_bytes() == _expected(document)


@pytest.mark.parametrize("document", [Datagraph([], []), GroundTruth(), ReplayStore()],
                         ids=["graph", "ground-truth", "store"])
def test_empty_documents_match_json_dumps(tmp_path, document):
    document.save(tmp_path / "empty.json")
    assert (tmp_path / "empty.json").read_bytes() == _expected(document)


def test_a_generated_world_with_duplicates_matches_json_dumps(tmp_path):
    built, truth = generate_world(WorldSpec(grid_w=7, grid_h=5, seed=11, boundary_duplicate_prob=0.3))
    built.save(tmp_path / "world.json")
    truth.save(tmp_path / "truth.json")
    assert (tmp_path / "world.json").read_bytes() == _expected(built)
    assert (tmp_path / "truth.json").read_bytes() == _expected(truth)


def _store_with_responses() -> ReplayStore:
    store = ReplayStore()
    query = Query("find the chair", Predicate(label_equals="chair"))
    for node in build_graph(4, []).nodes():
        store.record(node, query, QueryResponse(node.id, True, (SceneObject("chair"),), 1, "found"))
    return store


def _truth_with_instances() -> GroundTruth:
    _, truth = generate_world(WorldSpec(grid_w=3, grid_h=3, seed=2))
    assert len(truth.instances) > 2
    return truth


FORMATTERS = [
    pytest.param(graph, "_edge_text", lambda: random_decorated_graph(5), id="graph-edge"),
    pytest.param(graph, "_node_text", lambda: random_decorated_graph(5), id="graph-node"),
    pytest.param(worldgen, "_instance_text", _truth_with_instances, id="ground-truth"),
    pytest.param(backends, "_response_text", _store_with_responses, id="replay-store"),
]


@pytest.mark.parametrize("module, formatter, build", FORMATTERS)
def test_a_save_that_fails_part_way_leaves_the_old_file(tmp_path, monkeypatch, module, formatter, build):
    document = build()
    path = tmp_path / "document.json"
    path.write_bytes(b"the old file\n")
    real = getattr(module, formatter)
    calls = []

    def fail_on_the_second_record(record):
        calls.append(record)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real(record)

    monkeypatch.setattr(module, formatter, fail_on_the_second_record)
    with pytest.raises(RuntimeError, match="formatter failed"):
        document.save(path)
    gc.collect()  # an unclosed temporary file would warn here, and the warning is an error
    assert len(calls) == 2
    assert path.read_bytes() == b"the old file\n"
    assert os.listdir(tmp_path) == ["document.json"]


def test_a_save_replaces_the_old_file_with_the_process_umask(tmp_path):
    reference = tmp_path / "reference"
    reference.write_text("")
    path = tmp_path / "world.json"
    path.write_text("old")
    path.chmod(0o600)
    random_decorated_graph(4).save(path)
    assert path.read_bytes() == _expected(random_decorated_graph(4))
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["reference", "world.json"]


@pytest.mark.parametrize("target, reason", [
    ("missing/world.json", "No such file or directory"),
    ("a_directory", "Is a directory"),
])
def test_an_unwritable_destination_is_an_output_error(tmp_path, target, reason):
    (tmp_path / "a_directory").mkdir()
    destination = tmp_path / target
    with pytest.raises(OutputError, match=re.escape(f"cannot write {destination}: {reason}")):
        random_decorated_graph(2).save(destination)
    assert sorted(os.listdir(tmp_path)) == ["a_directory"]
    assert os.listdir(tmp_path / "a_directory") == []


# --- reading -------------------------------------------------------------------------


READERS = [
    (Datagraph.load, GraphParseError),
    (GroundTruth.load, GraphParseError),
    (ReplayStore.load, GraphParseError),
    (WorldSpec.load, WorldSpecError),
    (ExperimentConfig.load, ConfigError),
    (cli._read_routes, ConfigError),
]


@pytest.mark.parametrize("text, reason", [
    ("{", "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
    ("[1,\n 2", "invalid JSON at line 2, column 3: Expecting ',' delimiter"),
    ("1" * 5000, "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ("[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
])
@pytest.mark.parametrize("reader, error", READERS)
def test_every_reader_reports_a_malformed_file_in_one_form(tmp_path, reader, error, text, reason):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(error, match=re.escape(f"cannot read {path}: {reason}")):
        reader(path)


@pytest.mark.parametrize("reader, error, version", [
    (*reader, version) for reader, version in zip(READERS[:4], (1, 1, ReplayStore.FORMAT_VERSION, 1))
])
@pytest.mark.parametrize("found", ["another", None, True, "float", "array"])
def test_every_versioned_reader_checks_the_envelope(tmp_path, reader, error, version, found):
    # another version (a version 1 store, a version 2 world), none, a bool, the float of the version
    found = {"another": 3 - version, "float": float(version)}.get(found, found)
    doc = [] if found == "array" else {} if found is None else {"format_version": found}
    reason = "expected an object" if found == "array" else f"format_version: expected {version}, got {found}"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=re.escape(f"cannot read {path}: {reason}")):
        reader(path)


def test_read_document_returns_the_parsed_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"format_version": 1, "nodes": [1.5, "é"]}', encoding="utf-8")
    assert output.read_document(path, format_version=1) == {"format_version": 1, "nodes": [1.5, "é"]}
    assert output.read_document(path) == output.read_document(path, ConfigError, 1)


def _file_text_parsers(tree: ast.AST):
    """Calls in a module that read a file or parse JSON text: json.load(s),
    Path.read_text/read_bytes and the open builtin."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield "open", node.lineno
        elif isinstance(func, ast.Attribute):
            if func.attr in ("read_text", "read_bytes"):
                yield func.attr, node.lineno
            elif func.attr in ("load", "loads") and isinstance(func.value, ast.Name) and func.value.id == "json":
                yield f"json.{func.attr}", node.lineno


def _lines_of_function(tree: ast.AST, name: str) -> set[int]:
    """The line numbers spanned by every function called ``name`` in a module."""
    return {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
        for line in range(node.lineno, node.end_lineno + 1)
    }


def test_only_the_output_module_reads_and_parses_files():
    found = []
    for path in sorted(Path(output.__file__).parent.glob("*.py")):
        if path.name == "output.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        verdict_lines = _lines_of_function(tree, "_parse_verdict") if path.name == "backends.py" else set()
        for call, line in _file_text_parsers(tree):
            if path.name == "mock_remote.py" and call == "json.loads":
                continue  # an HTTP request body, not a file
            if call == "json.loads" and line in verdict_lines:
                continue  # the remote endpoint's response body, not a file
            found.append(f"{path.name}:{line}: {call}")
    assert found == []
