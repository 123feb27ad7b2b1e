from __future__ import annotations

import json
import pickle
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datagraph.backends
from datagraph import (
    BackendError,
    CachingBackend,
    GroundTruth,
    GroundTruthInstance,
    Node,
    OracleBackend,
    Pose,
    Predicate,
    Query,
    QueryResponse,
    RecordingBackend,
    ReplayMissError,
    ReplayStore,
    SceneObject,
    Snapshot,
    canonical_query_key,
    ground_truth_nearest,
    oracle_answer,
    predicate_eval,
    proximity_search_first,
)
from datagraph.backends import QUERY_MODES
from helpers import build_graph, reference_oracle_answer, reference_predicate_eval

KEYFOB_42 = SceneObject("keyfob", {"number": "42"}, (0.0, 0.0, 0.0), 1)
KEYFOB_7 = SceneObject("keyfob", {"number": "7"}, (1.0, 0.0, 0.0), 2)
DOOR_42 = SceneObject("door", {"number": "42"}, (2.0, 0.0, 0.0), 3)


def make_node(objects, node_id=0):
    return Node(node_id, Pose((0.0, 0.0, 0.0)), Snapshot(tuple(objects)))


# --- predicate ----------------------------------------------------------------


def test_predicate_needs_a_clause():
    with pytest.raises(ValueError):
        Predicate()


def test_predicate_refuses_an_empty_label_that_no_object_can_match():
    with pytest.raises(ValueError, match="label must be non-empty"):
        Predicate(label_equals="")
    with pytest.raises(ValueError, match="label must be non-empty"):
        Predicate(label_equals="", attribute_equals=(("number", "42"),))


@pytest.mark.parametrize("kwargs, field", [
    pytest.param({"label_equals": 5}, "label_equals", id="int-label"),
    pytest.param({"label_equals": b"keyfob"}, "label_equals", id="bytes-label"),
    pytest.param({"attribute_equals": ["ab"]}, "attribute_equals", id="string-clause"),  # not ("a", "b")
    pytest.param({"attribute_equals": "ab"}, "attribute_equals", id="string-of-clauses"),
    pytest.param({"attribute_equals": [("number", "42", "x")]}, "attribute_equals", id="clause-of-three"),
    pytest.param({"attribute_equals": [5]}, "attribute_equals", id="int-clause"),
])
def test_predicate_refuses_values_of_the_wrong_kind(kwargs, field):
    with pytest.raises(ValueError, match=f"predicate {field} must"):
        Predicate(**kwargs)


def test_predicate_label_match():
    assert predicate_eval(Predicate(label_equals="keyfob"), KEYFOB_42)


def test_predicate_label_and_attribute_must_both_hold():
    p = Predicate(label_equals="keyfob", attribute_equals=(("number", "42"),))
    assert not predicate_eval(p, KEYFOB_7)
    assert predicate_eval(p, KEYFOB_42)


def test_predicate_attribute_only_ignores_label():
    p = Predicate(attribute_equals=(("number", "42"),))
    assert predicate_eval(p, DOOR_42)
    assert predicate_eval(p, KEYFOB_42)
    assert not predicate_eval(p, KEYFOB_7)


def test_predicate_label_is_lowercased():
    assert predicate_eval(Predicate(label_equals="KeyFob"), KEYFOB_42)
    chair = SceneObject("Chair", {"color": "red"}, (0.0, 0.0, 0.0), 1)
    assert predicate_eval(Predicate(label_equals="chair"), chair)
    assert predicate_eval(Predicate(label_equals="CHAIR"), chair)
    assert not predicate_eval(Predicate(label_equals="chairs"), chair)


def test_oracle_matches_labels_case_insensitively():
    chair = SceneObject("Chair", {"color": "red"}, (0.0, 0.0, 0.0), 1)
    response = OracleBackend().answer(make_node([chair, KEYFOB_42]), Query("q", Predicate("chair")))
    assert response.satisfied and response.count == 1
    assert response.matches == (chair,)


def test_predicate_missing_attribute_key_fails():
    p = Predicate(attribute_equals=(("color", "red"),))
    assert not predicate_eval(p, KEYFOB_42)


# --- canonical hash ----------------------------------------------------------------


def test_hash_stable_under_clause_reordering():
    a = Query("q", Predicate(attribute_equals=(("color", "red"), ("number", "42"))))
    b = Query("q", Predicate(attribute_equals=(("number", "42"), ("color", "red"))))
    assert canonical_query_key(a) == canonical_query_key(b)


def test_hash_stable_under_label_case():
    a = Query("q", Predicate(label_equals="Keyfob"))
    b = Query("q", Predicate(label_equals="keyfob"))
    assert canonical_query_key(a) == canonical_query_key(b)


def test_hash_distinguishes_text_mode_and_clauses():
    base = Query("q", Predicate(label_equals="keyfob"))
    assert canonical_query_key(base) != canonical_query_key(replace(base, text="other"))
    assert canonical_query_key(base) != canonical_query_key(replace(base, mode="count"))
    assert canonical_query_key(base) != canonical_query_key(
        Query("q", Predicate(label_equals="door"))
    )


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "n"]), st.text(max_size=3)),
        min_size=1,
        max_size=4,
    ),
    st.randoms(),
)
def test_property_hash_invariant_under_permutation(clauses, rng):
    shuffled = clauses[:]
    rng.shuffle(shuffled)
    q1 = Query("q", Predicate(attribute_equals=tuple(clauses)))
    q2 = Query("q", Predicate(attribute_equals=tuple(shuffled)))
    assert canonical_query_key(q1) == canonical_query_key(q2)


# --- query / response types ----------------------------------------------------------


def test_query_requires_text_and_known_mode():
    with pytest.raises(ValueError):
        Query("", Predicate(label_equals="x"))
    with pytest.raises(ValueError):
        Query("q", Predicate(label_equals="x"), mode="guess")
    with pytest.raises(ValueError, match="query text must be a string, got 5"):
        Query(5, Predicate(label_equals="x"))


def test_response_json_round_trip():
    resp = QueryResponse(3, True, (KEYFOB_42,), 1, "found it", 1)
    assert QueryResponse.from_json_dict(resp.to_json_dict()) == resp


def test_response_keeps_its_dataclass_behaviour():
    resp = QueryResponse(node=3, satisfied=True, matches=[KEYFOB_42, DOOR_42], count=2, text="t")
    assert resp.matches == (KEYFOB_42, DOOR_42)  # a list becomes a tuple
    assert resp.backend_calls == 1
    assert QueryResponse(node=3, satisfied=False) == QueryResponse(3, False, (), 0, "", 1)
    assert resp == QueryResponse(3, True, (KEYFOB_42, DOOR_42), 2, "t", 1) != replace(resp, count=1)
    served = replace(resp, backend_calls=0)
    assert served.backend_calls == 0 and served.matches is resp.matches
    assert pickle.loads(pickle.dumps(resp)) == resp
    assert resp.to_json_dict() == {
        "node": 3, "satisfied": True, "matches": [KEYFOB_42.to_json_dict(), DOOR_42.to_json_dict()],
        "count": 2, "text": "t", "backend_calls": 1,
    }
    assert not hasattr(resp, "__dict__")
    with pytest.raises(AttributeError):
        resp.count = 5


def test_response_copy_equals_dataclasses_replace():
    resp = QueryResponse(3, True, (KEYFOB_42,), 1, "found it", 1)
    assert resp._with(7, 0) == replace(resp, node=7, backend_calls=0)
    assert resp._with(3, 1) == resp


# --- oracle ---------------------------------------------------------------------


def test_oracle_empty_snapshot_unsatisfied():
    resp = oracle_answer(Snapshot(), Query("any keyfob?", Predicate(label_equals="keyfob")))
    assert resp.satisfied is False
    assert resp.matches == ()
    assert resp.backend_calls == 1


def test_oracle_matches_in_snapshot_order():
    snap = Snapshot((KEYFOB_7, KEYFOB_42))
    resp = oracle_answer(
        snap, Query("q", Predicate(label_equals="keyfob", attribute_equals=(("number", "42"),)))
    )
    assert resp.satisfied is True
    assert resp.matches == (KEYFOB_42,)


def test_oracle_count_mode():
    objs = tuple(
        SceneObject("extinguisher", {}, (float(i), 0.0, 0.0), i) for i in range(3)
    )
    resp = oracle_answer(Snapshot(objs), Query("how many", Predicate(label_equals="extinguisher"), "count"))
    assert resp.count == 3
    assert resp.count == len(resp.matches)
    assert resp.satisfied is True


LABELS = st.sampled_from(["chair", "Chair", "CHAIR", "keyfob", "KeyFob", "door"])
ATTRIBUTE_KEYS = st.sampled_from(["number", "hazard", "color"])
ATTRIBUTE_VALUES = st.sampled_from(["1", "2", "true"])
SCENE_OBJECTS = st.builds(
    SceneObject, LABELS, st.dictionaries(ATTRIBUTE_KEYS, ATTRIBUTE_VALUES, max_size=2), st.just((0.0, 0.0, 0.0))
)
CLAUSES = st.dictionaries(ATTRIBUTE_KEYS, ATTRIBUTE_VALUES, min_size=1, max_size=2).map(lambda d: tuple(d.items()))
PREDICATES = st.one_of(
    st.builds(Predicate, LABELS),
    st.builds(Predicate, st.none(), CLAUSES),
    st.builds(Predicate, LABELS, CLAUSES),
)


@settings(max_examples=300, derandomize=True)
@given(
    scenes=st.lists(st.lists(st.tuples(SCENE_OBJECTS, st.booleans()), max_size=6), min_size=1, max_size=4),
    predicate=PREDICATES,
    mode=st.sampled_from(QUERY_MODES),
    agent=st.integers(0, 3),
)
def test_matching_equals_the_per_object_reference(scenes, predicate, mode, agent):
    """The oracle, the ground-truth nearest scan and the ground-truth count
    match as one ``predicate_eval`` call per object did: on a path of scenes,
    each object also a ground-truth instance, some marked duplicates."""
    query = Query("q", predicate, mode)
    instances = []
    for v, scene in enumerate(scenes):
        for obj, duplicate in scene:
            assert predicate_eval(predicate, obj) is reference_predicate_eval(predicate, obj)
            instances.append(GroundTruthInstance(
                len(instances), obj.label, obj.attributes, obj.world_position, v,
                len(instances) - 1 if duplicate and instances else None,
            ))
        snapshot = Snapshot(tuple(obj for obj, _ in scene))
        assert oracle_answer(snapshot, query, v) == reference_oracle_answer(snapshot, query, v)
    ground_truth = GroundTruth(tuple(instances))
    assert ground_truth.count_matching(predicate) == sum(
        reference_predicate_eval(predicate, inst) for inst in ground_truth.physical_instances()
    )
    n = len(scenes)
    agent = min(agent, n - 1)
    graph = build_graph(n, [(v, v + 1) for v in range(n - 1)])  # unit edges: hops equal meters
    homes = {inst.home_node for inst in instances if reference_predicate_eval(predicate, inst)}
    expected = min(((abs(v - agent), v) for v in homes), default=None)
    for metric in ("hops", "meters"):
        nearest = ground_truth_nearest(graph, ground_truth, agent, predicate, metric)
        assert nearest == (None if expected is None else (expected[1], expected[0]))


def test_oracle_backend_fills_node_id():
    node = make_node([KEYFOB_42], node_id=9)
    resp = OracleBackend().answer(node, Query("q", Predicate(label_equals="keyfob")))
    assert resp.node == 9


@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_property_oracle_satisfied_iff_some_object_matches(n_objects, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    labels = ["keyfob", "door", "crate"]
    objs = tuple(
        SceneObject(
            labels[int(rng.integers(3))],
            {"number": str(int(rng.integers(3)))},
            (float(i), 0.0, 0.0),
            i,
        )
        for i in range(n_objects)
    )
    query = Query("q", Predicate(label_equals="keyfob", attribute_equals=(("number", "1"),)))
    resp = oracle_answer(Snapshot(objs), query)
    brute = [o for o in objs if o.label == "keyfob" and o.attributes["number"] == "1"]
    assert resp.satisfied == bool(brute)
    assert list(resp.matches) == brute
    # purity: identical call, identical response
    assert oracle_answer(Snapshot(objs), query) == resp


# --- replay -----------------------------------------------------------------------


def test_record_then_replay_round_trip(tmp_path):
    node = make_node([KEYFOB_42], node_id=4)
    query = Query("q", Predicate(label_equals="keyfob"))
    recorder = RecordingBackend(OracleBackend())
    live = recorder.answer(node, query)

    replayed = recorder.store.answer(node, query)
    assert replayed.backend_calls == 0
    assert replace(replayed, backend_calls=1) == live

    path = tmp_path / "store.json"
    recorder.store.save(path)
    assert ReplayStore.load(path) == recorder.store
    assert ReplayStore() != {}  # another type is not equal, nor an error


def test_replay_miss_names_node_and_hash():
    query = Query("q", Predicate(label_equals="keyfob"))
    node = make_node([KEYFOB_42], node_id=5)
    with pytest.raises(ReplayMissError) as excinfo:
        ReplayStore().answer(node, query)
    miss = excinfo.value
    assert (miss.node_id, miss.scene_digest, miss.query_hash) == (5, node.snapshot.digest, canonical_query_key(query))
    assert str(miss) == (f"no recorded response for node 5, scene {node.snapshot.digest}, "
                         f"query hash {canonical_query_key(query)}")


def test_replay_misses_the_same_node_id_in_another_scene():
    query = Query("q", Predicate(label_equals="keyfob"))
    recorder = RecordingBackend(OracleBackend())
    recorder.answer(make_node([KEYFOB_42], node_id=5), query)
    with pytest.raises(ReplayMissError):
        recorder.store.answer(make_node([KEYFOB_7], node_id=5), query)
    assert recorder.store.answer(make_node([KEYFOB_42], node_id=5), query).satisfied


def test_first_stored_answer_wins():
    node, query = make_node([KEYFOB_42], node_id=2), Query("q", Predicate(label_equals="keyfob"))
    first, second = QueryResponse(2, True, text="first"), QueryResponse(2, False, text="second")
    store = ReplayStore()
    store.record(node, query, first)
    store.record(node, query, second)
    assert len(store) == 1 and store.answer(node, query) == first._with(2, 0)


def test_replay_store_rejects_garbage(tmp_path):
    from datagraph import GraphParseError

    path = tmp_path / "store.json"
    path.write_text("{not json")
    with pytest.raises(GraphParseError):
        ReplayStore.load(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("satisfied", "no", "satisfied must be a boolean, got 'no'"),
        ("text", 5, "text must be a string, got 5"),
        ("node", True, "node must be an integer, got True"),
        ("count", "2", "count must be an integer, got '2'"),
        ("backend_calls", 1.5, "backend_calls must be an integer, got 1.5"),
    ],
)
def test_replay_store_rejects_mistyped_fields(tmp_path, field, value, message):
    from datagraph import GraphParseError

    recorder = RecordingBackend(OracleBackend())
    recorder.answer(make_node([KEYFOB_42], node_id=4), Query("q", Predicate(label_equals="keyfob")))
    path = tmp_path / "store.json"
    recorder.store.save(path)
    doc = json.loads(path.read_text())
    (key, response), = doc["responses"].items()
    response[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(GraphParseError, match=re.escape(f"replay store entry '{key}': {message}")):
        ReplayStore.load(path)


# --- cache -----------------------------------------------------------------------


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def answer(self, node, query):
        self.calls += 1
        return self.inner.answer(node, query)


class FlakyBackend:
    """Fails the first N calls, then delegates."""

    def __init__(self, inner, failures=1):
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def answer(self, node, query):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("transient failure")
        return self.inner.answer(node, query)


def test_cache_serves_repeat_queries_without_calls():
    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    node = make_node([KEYFOB_42])
    query = Query("q", Predicate(label_equals="keyfob"))
    first = cached.answer(node, query)
    second = cached.answer(node, query)
    assert counting.calls == 1
    assert first.backend_calls == 1
    assert second.backend_calls == 0
    assert replace(second, backend_calls=1) == first
    assert cached.hits == 1 and len(cached.store) == 1


def test_cache_computes_query_key_once_per_query(monkeypatch):
    computed = []

    def counting_key(query):
        computed.append(query)
        return canonical_query_key(query)

    monkeypatch.setattr(datagraph.backends, "canonical_query_key", counting_key)
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3)], objects={3: [KEYFOB_42]})
    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    query = Query("find the keyfob", Predicate(label_equals="keyfob"))
    first = proximity_search_first(graph, cached, query, 0)
    assert (cached.hits, len(cached.store), counting.calls) == (0, 4, 4)
    second = proximity_search_first(graph, cached, query, 0)
    assert (cached.hits, len(cached.store), counting.calls) == (4, 4, 4)
    assert first.visit_order == second.visit_order == (0, 1, 2, 3)
    assert second.total_backend_calls == 0
    assert computed == [query]
    scene = graph.node(3).snapshot
    assert ReplayStore.key_for(graph.node(3), query) == f"3:{scene.digest}:{canonical_query_key(query)}"


def test_cache_keyed_per_node():
    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    query = Query("q", Predicate(label_equals="keyfob"))
    cached.answer(make_node([KEYFOB_42], node_id=0), query)
    cached.answer(make_node([KEYFOB_42], node_id=1), query)
    assert counting.calls == 2


def test_cache_keys_empty_rooms_apart():
    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    query = Query("q", Predicate(label_equals="keyfob"))
    rooms = [make_node([], node_id=0), make_node([], node_id=1)]
    assert rooms[0].snapshot.digest == rooms[1].snapshot.digest
    for room in rooms + rooms:
        cached.answer(room, query)
    assert (counting.calls, cached.hits) == (2, 2)


def test_cache_does_not_cache_errors():
    flaky = FlakyBackend(OracleBackend(), failures=1)
    cached = CachingBackend(flaky)
    node = make_node([KEYFOB_42])
    query = Query("q", Predicate(label_equals="keyfob"))
    with pytest.raises(BackendError):
        cached.answer(node, query)
    retried = cached.answer(node, query)
    assert flaky.calls == 2
    assert retried.satisfied is True


def test_cache_hit_is_content_identical_under_reordered_clauses():
    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    node = make_node([KEYFOB_42])
    q1 = Query("q", Predicate(attribute_equals=(("number", "42"), ("x", "y"))))
    q2 = Query("q", Predicate(attribute_equals=(("x", "y"), ("number", "42"))))
    cached.answer(node, q1)
    resp = cached.answer(node, q2)
    assert counting.calls == 1
    assert resp.backend_calls == 0


def test_concurrent_identical_requests_never_corrupt_cache():
    import threading

    counting = CountingBackend(OracleBackend())
    cached = CachingBackend(counting)
    node = make_node([KEYFOB_42])
    query = Query("q", Predicate(label_equals="keyfob"))
    results = []

    def hit():
        results.append(cached.answer(node, query))

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert 1 <= counting.calls <= 8
    contents = [replace(r, backend_calls=0) for r in results]
    assert all(c == contents[0] for c in contents)
    # follow-up call is a pure hit
    assert cached.answer(node, query).backend_calls == 0
