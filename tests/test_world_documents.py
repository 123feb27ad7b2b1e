"""The saved-world and ground-truth readers: what they give for every
one-field change of a valid document, and records that own their fields.

The pin reads every one-field change of ``tests/test_input_fuzz.py``'s valid
world and ground-truth documents through ``load_world_files``, as the CLI
does, and hashes what each read gives: the records' ``repr`` (the nodes, the
edges as the document form lists them and the ground-truth instances) or the
error's kind and text. The pinned digest was taken while every record was
still read through its checking constructor, so a reader that takes a
quicker path for the common kinds of field must give the same records and
the same messages for every document. Nor may a record share a dict or a
list with the document it was read from.
"""

from __future__ import annotations

import hashlib
import json

from datagraph import Datagraph, GroundTruthInstance, SceneObject, WorldSpec, generate_world
from test_input_fuzz import DELETE, VALUES, field_paths, mutated, readers  # noqa: F401  (a fixture)

READ_OUTCOMES_SHA256 = "a302cb86a65e315525b9b5108b8c0403df363470b5fdd774dc8a60d554085bc5"


def _read_outcome(read, path) -> str:
    try:
        graph, ground_truth = read(path)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"ok {graph.nodes()!r} {graph.to_json_dict()['edges']!r} {ground_truth.instances!r}"


def test_every_one_field_change_reads_as_before(readers, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    valid = readers["config"][0][0]["output_dir"]  # where the valid documents' files are
    target = base / "pinned-world.json"
    outcomes = []
    for name in ("world", "ground-truth"):
        documents, read = readers[name]
        for doc in documents:
            for path in field_paths(doc):
                for value in [*VALUES, DELETE]:
                    target.write_text(mutated(doc, path, value))
                    outcomes.append(f"{name} {list(path)} {value}: {_read_outcome(read, target)}")
    text = "\n".join(outcomes).replace(valid, "<valid>").replace(str(base), "<tmp>")
    assert hashlib.sha256(text.encode()).hexdigest() == READ_OUTCOMES_SHA256


def _mutate(doc) -> None:
    """Add a field to every object and an item to every array in ``doc``, at every depth."""
    if isinstance(doc, dict):
        for value in doc.values():
            _mutate(value)
        doc["mutated"] = "yes"
    elif isinstance(doc, list):
        for value in doc:
            _mutate(value)
        doc.append(0.5)


def test_no_record_aliases_the_document_it_was_read_from():
    graph, truth = generate_world(WorldSpec(4, 4, seed=3, objects_per_room_mean=3.0, boundary_duplicate_prob=0.5))
    world_doc, truth_doc = json.loads(json.dumps(graph.to_json_dict())), json.loads(json.dumps(truth.to_json_dict()))
    object_docs = [doc for node in world_doc["nodes"] for doc in node["snapshot"]["objects"]]
    loaded = Datagraph.from_json_dict(world_doc)
    objects = [SceneObject.from_json_dict(doc) for doc in object_docs]
    instances = [GroundTruthInstance.from_json_dict(doc) for doc in truth_doc["instances"]]
    _mutate(world_doc)
    _mutate(truth_doc)
    assert loaded == graph
    assert objects == [obj for node in graph.nodes() for obj in node.snapshot.objects]
    assert instances == list(truth.instances)


def test_saved_records_are_read_without_their_checking_constructors(monkeypatch):
    """A saved world's poses, scene objects and ground-truth instances hold
    only the kinds it writes, so the readers build them unchecked: with the
    position and attribute checks made to fail, they still read back equal
    to what was generated."""
    graph, truth = generate_world(WorldSpec(4, 4, seed=3, objects_per_room_mean=3.0, boundary_duplicate_prob=0.5))
    world_doc, truth_doc = json.loads(json.dumps(graph.to_json_dict())), json.loads(json.dumps(truth.to_json_dict()))

    def refuse(value, *what):
        raise AssertionError(f"checked {value!r}")

    for name in ("_as_vec3", "_check_attributes"):
        monkeypatch.setattr(f"datagraph.graph.{name}", refuse)
        monkeypatch.setattr(f"datagraph.worldgen.{name}", refuse)
    assert Datagraph.from_json_dict(world_doc) == graph
    assert [GroundTruthInstance.from_json_dict(doc) for doc in truth_doc["instances"]] == list(truth.instances)
