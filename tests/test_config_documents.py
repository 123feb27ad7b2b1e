"""The config and world-spec readers: their messages, the defaults they leave
to the records, and the documents they read back.

The message pin reads every one-field change of ``tests/test_input_fuzz.py``'s
valid config and world-spec documents and hashes what each read gives: the
record's ``repr`` or the error's kind and text. The pinned digest was taken
when each reader still spelled out its own defaults, so a reader that leaves
them to its dataclass must give the same records and the same messages for
every document. A document that names only the required fields must read as
the record built from only those arguments, so no reader keeps a default of
its own; a report's config echo and a saved spec must read back as what wrote
them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagraph import (
    BackendConfig,
    CatalogEntry,
    ExperimentConfig,
    RemoteEndpointConfig,
    TaskConfig,
    WorldSpec,
    default_catalog,
)
from datagraph.backends import MAX_TIMEOUT_MS
from datagraph.harness import REPORT_FORMATS, STRATEGIES, TASK_KINDS, WorldFiles
from test_input_fuzz import DELETE, VALUES, field_paths, mutated, readers  # noqa: F401  (a fixture)

READ_OUTCOMES_SHA256 = "46abebba9f57b6c3496b318517ac358be30ea839cf5c55fb7c9346526e84f886"


def test_every_one_field_change_reads_as_before(readers, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    valid = readers["config"][0][0]["output_dir"]  # where the valid documents' files are
    target = base / "pinned.json"
    outcomes = []
    for name, read in (("config", ExperimentConfig.load), ("world-spec", WorldSpec.load)):
        for doc in readers[name][0]:
            for path in field_paths(doc):
                for value in [*VALUES, DELETE]:
                    target.write_text(mutated(doc, path, value))
                    try:
                        outcome = f"ok {read(target)!r}"
                    except Exception as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                    outcomes.append(f"{name} {list(path)} {value}: {outcome}")
    text = "\n".join(outcomes).replace(valid, "<valid>").replace(str(base), "<tmp>")
    assert hashlib.sha256(text.encode()).hexdigest() == READ_OUTCOMES_SHA256


# --- defaults: each record's own, whichever fields a document leaves out ------------------

SPEC = {"format_version": 1, "grid_w": 2, "grid_h": 3}
URL = "http://127.0.0.1:1"


@pytest.mark.parametrize("doc, record", [
    ({"world": SPEC, "tasks": {"kind": "nearest_search"}},
     ExperimentConfig(WorldSpec(2, 3), TaskConfig("nearest_search"))),
    ({"world": {"path": "w.json"}, "tasks": {"kind": "keyfob_match"}},
     ExperimentConfig(WorldFiles("w.json"), TaskConfig("keyfob_match"))),
    ({"world": "w.json", "tasks": {"kind": "keyfob_match"}},
     ExperimentConfig(WorldFiles("w.json"), TaskConfig("keyfob_match"))),
], ids=["inline-world", "world-files", "world-path"])
def test_a_config_naming_only_its_required_fields_takes_every_default(doc, record):
    assert ExperimentConfig.from_json_dict(doc) == record


@pytest.mark.parametrize("backend, record", [
    ({"kind": "oracle"}, BackendConfig("oracle")),
    ("oracle", BackendConfig("oracle")),
    ({"kind": "replay", "store_path": "s.json"}, BackendConfig("replay", "s.json")),
    ({"kind": "remote", "base_url": URL}, BackendConfig("remote", remote=RemoteEndpointConfig(URL))),
    ({"kind": "remote", "remote": {"base_url": URL}}, BackendConfig("remote", remote=RemoteEndpointConfig(URL))),
], ids=["oracle", "oracle-by-name", "replay", "remote", "remote-nested"])
def test_a_backend_naming_only_its_required_fields_takes_every_default(backend, record):
    doc = {"world": SPEC, "tasks": {"kind": "nearest_search"}, "backend": backend}
    assert ExperimentConfig.from_json_dict(doc).backend == record


def test_a_world_spec_naming_only_its_grid_takes_every_default():
    assert WorldSpec.from_json_dict(SPEC) == WorldSpec(2, 3)


def test_a_catalog_entry_naming_only_its_label_takes_every_default():
    assert WorldSpec.from_json_dict({**SPEC, "catalog": [{"label": "lamp"}]}).catalog == (CatalogEntry("lamp"),)


# --- a config's echo in its report, and a saved spec, read back as what wrote them --------

finite = partial(st.floats, allow_nan=False, allow_infinity=False)
names = st.text(st.characters(codec="ascii", exclude_categories=("Cc",)), min_size=1, max_size=8)
attributes = st.dictionaries(names, st.one_of(
    st.builds(lambda value: {"kind": "const", "value": value}, names),
    st.builds(lambda values: {"kind": "choice", "values": values}, st.lists(names, min_size=1, max_size=3)),
    st.just({"kind": "number_pool"}),
    st.builds(lambda label: {"kind": "number_of", "label": label}, names),
), max_size=3)
catalogs = st.one_of(
    st.builds(default_catalog),
    st.just(()),
    st.lists(st.builds(CatalogEntry, names, attributes, finite(min_value=0.1, max_value=10)),
             min_size=1, max_size=4).map(tuple),
)


@st.composite
def world_specs(draw):
    catalog = draw(catalogs)
    return WorldSpec(
        grid_w=draw(st.integers(1, 40)),
        grid_h=draw(st.integers(1, 40)),
        room_size_m=draw(finite(min_value=0.5, max_value=50)),
        door_prob=draw(finite(min_value=0, max_value=1)),
        catalog=catalog,
        objects_per_room_mean=draw(finite(min_value=0, max_value=4)) if catalog else 0.0,
        boundary_duplicate_prob=draw(finite(min_value=0, max_value=1)),
        seed=draw(st.integers(0, 2**64 - 1)),
        min_label_separation_m=draw(finite(min_value=0, max_value=5)),
    )


paths = names.map(lambda name: name + ".json")
remotes = st.builds(RemoteEndpointConfig, st.sampled_from([URL, "https://example.test:8443/api"]),
                    st.integers(1, MAX_TIMEOUT_MS), st.integers(1, 16))
backends = st.one_of(
    st.builds(BackendConfig, st.just("oracle"), record_path=st.none() | paths,
              forward_annotations=st.booleans()),
    st.builds(BackendConfig, st.just("replay"), paths, record_path=st.none() | paths,
              forward_annotations=st.booleans()),
    st.builds(BackendConfig, st.just("remote"), remote=remotes, record_path=st.none() | paths,
              forward_annotations=st.booleans()),
)
configs = st.builds(
    ExperimentConfig,
    world=world_specs() | st.builds(WorldFiles, paths, st.none() | paths),
    tasks=st.builds(TaskConfig, st.sampled_from(TASK_KINDS), st.integers(1, 100), st.integers(0, 2**64)),
    backend=backends,
    strategies=st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True).map(tuple),
    cache_enabled=st.booleans(),
    output_dir=st.none() | names,
    report_formats=st.lists(st.sampled_from(REPORT_FORMATS), unique=True).map(tuple),
    metric=st.sampled_from(["hops", "meters"]),
    shared_cache=st.booleans(),
    brute_force_stop_on_first=st.booleans(),
)


@settings(max_examples=300, derandomize=True)
@given(config=configs)
def test_a_config_echo_reads_back_as_its_config(config):
    echo = json.loads(json.dumps(config.to_json_dict()))
    assert ExperimentConfig.from_json_dict(echo) == replace(config, output_dir=None)


@settings(max_examples=300, derandomize=True)
@given(spec=world_specs())
def test_a_saved_world_spec_reads_back_as_its_spec(spec):
    assert WorldSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


def test_integral_counts_and_seeds_are_stored_as_ints():
    # a numpy integer in a config would reach the report's echo, which json.dumps refuses
    remote = RemoteEndpointConfig(URL, np.int64(500), np.uint8(2))
    config = ExperimentConfig(WorldSpec(np.int64(2), np.uint16(3), seed=np.uint64(2**63)),
                              TaskConfig("nearest_search", np.int32(4), np.int64(5)),
                              BackendConfig("remote", remote=remote))
    numbers = [config.world.grid_w, config.world.grid_h, config.world.seed, config.tasks.count, config.tasks.seed,
               remote.timeout_ms, remote.max_in_flight]
    assert numbers == [2, 3, 2**63, 4, 5, 500, 2] and {type(n) for n in numbers} == {int}
    json.dumps(config.to_json_dict())
