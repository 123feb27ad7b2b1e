"""The JSON documents that ``graph._document`` writes from a record's field
list, and what a report's config echo leaves out."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    BackendConfig,
    CatalogEntry,
    ExperimentConfig,
    GroundTruth,
    GroundTruthInstance,
    QueryResponse,
    RemoteEndpointConfig,
    SceneObject,
    Snapshot,
    TaskConfig,
    WorldSpec,
    generate_world,
)
from datagraph.backends import MAX_TIMEOUT_MS
from datagraph.graph import _document
from datagraph.harness import STRATEGIES, TASK_KINDS, TrialRecord, WorldFiles, run_compare
from test_config_documents import URL, paths, world_specs

OBJECT = SceneObject("keyfob", {"number": "6"}, (1.0, 2.0, 0.0), 7)


@dataclass(frozen=True)
class Inner:
    name: str

    def to_json_dict(self) -> dict:
        return {"written by": "Inner", "name": self.name}


@dataclass(frozen=True)
class Plain:  # a record without a writer of its own
    items: tuple


@dataclass(frozen=True)
class Outer:
    table: dict
    pair: tuple
    names: list
    inner: Inner
    plain: Plain
    nothing: None = None
    derived: int = field(default=0, init=False)


def containers(value, found: dict[int, object]) -> dict[int, object]:
    """Every dict and list reachable from ``value`` through containers and
    dataclass fields, by id, each kept alive so no id is reused."""
    if isinstance(value, (dict, list)):
        found[id(value)] = value
    if isinstance(value, dict):
        for item in value.values():
            containers(item, found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            containers(item, found)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            containers(getattr(value, name), found)
    return found


def test_fields_come_in_field_order_without_those_outside_init():
    doc = _document(Snapshot((OBJECT,), "scene://basement/3"))
    assert list(doc) == ["objects", "payload_ref"]  # the digest is no __init__ field
    record = Outer({"k": "v"}, (1, 2), ["a"], Inner("i"), Plain(()))
    assert list(_document(record)) == ["table", "pair", "names", "inner", "plain", "nothing"]


def test_tuples_and_lists_become_new_lists_and_dicts_are_copied():
    table = {"color": {"kind": "choice", "values": ["red", "blue"]}, "point": (1.0, 2.0)}
    record = Outer(table, (1, (2, 3)), ["a", "b"], Inner("i"), Plain(({"x": [1]},)))
    doc = _document(record)
    assert doc["table"] == {"color": {"kind": "choice", "values": ["red", "blue"]}, "point": [1.0, 2.0]}
    assert doc["pair"] == [1, [2, 3]] and doc["names"] == ["a", "b"] and doc["nothing"] is None
    assert not containers(record, {}).keys() & containers(doc, {}).keys()


def test_a_nested_record_is_written_through_its_own_writer():
    doc = _document(Outer({}, (Inner("a"),), [], Inner("b"), Plain((Inner("c"),))))
    assert doc["pair"] == [{"written by": "Inner", "name": "a"}]
    assert doc["inner"] == {"written by": "Inner", "name": "b"}
    assert doc["plain"] == {"items": [{"written by": "Inner", "name": "c"}]}  # a record without one: its fields
    assert _document(QueryResponse(3, True, (OBJECT,), 1, "raw", 0))["matches"] == [OBJECT.to_json_dict()]


SPEC = WorldSpec(6, 6, seed=3)
RECORDS = [
    SPEC,
    CatalogEntry("chair", {"color": {"kind": "choice", "values": ["red", "blue"]}}),
    GroundTruthInstance(4, "keyfob", {"number": "6"}, (1.0, 2.0, 0.0), 3, 2),
    GroundTruth((GroundTruthInstance(0, "crate", {}, (1.0, 2.0, 0.0), 0),)),
    QueryResponse(3, True, (OBJECT,), 1, "raw", 0),
    TaskConfig("keyfob_match", 2, 5),
    TrialRecord(0, "proximity", 3),
    ExperimentConfig(SPEC, TaskConfig("nearest_search"), strategies=["proximity"]),
    ExperimentConfig(WorldFiles("w.json"), TaskConfig("nearest_search"),
                     BackendConfig("remote", "s.json", "r.json", RemoteEndpointConfig(URL, auth_token="t"))),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_no_document_shares_a_dict_or_list_with_its_record(record):
    assert not containers(record, {}).keys() & containers(record.to_json_dict(), {}).keys()


def test_a_config_echo_does_not_reach_the_world_its_spec_generates():
    # the echo once held the catalog's own attribute dicts, so this edit
    # changed every world the spec generated after it
    config = ExperimentConfig(SPEC, TaskConfig("nearest_search"))
    graph, truth = generate_world(SPEC)
    echo = run_compare(config).config
    echo["world"]["catalog"][1]["attributes"]["color"]["values"].append("purple")
    echo["world"]["catalog"][1]["attributes"]["size"] = {"kind": "const", "value": "big"}
    assert config.world == WorldSpec(6, 6, seed=3)
    assert generate_world(SPEC) == (graph, truth)


# --- a config echo never carries the endpoint's auth token -------------------------

tokens = st.text(st.characters(min_codepoint=0x20, max_codepoint=0xFF, exclude_characters="\x7f"), max_size=12)
remotes = st.builds(RemoteEndpointConfig, st.sampled_from([URL, "https://example.test:8443/api"]),
                    st.integers(1, MAX_TIMEOUT_MS), st.integers(1, 16), tokens.map(lambda text: "sesame:" + text))
configs = st.builds(
    ExperimentConfig,
    world=world_specs() | st.builds(WorldFiles, paths, st.none() | paths),
    tasks=st.builds(TaskConfig, st.sampled_from(TASK_KINDS)),
    backend=st.builds(BackendConfig, st.just("remote"), remote=remotes, record_path=st.none() | paths,
                      forward_annotations=st.booleans()),
    strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True).map(tuple),
)


@settings(max_examples=200, derandomize=True)
@given(config=configs)
def test_a_config_echo_never_carries_the_auth_token(config):
    text = json.dumps(config.to_json_dict())
    token = config.backend.remote.auth_token
    assert token not in text and json.dumps(token)[1:-1] not in text
    assert list(config.to_json_dict()["backend"]["remote"]) == ["base_url", "timeout_ms", "max_in_flight"]
