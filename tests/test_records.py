"""The records that ``graph._record`` builds: each one's generated ``_of``,
and its generated ``_init``, which is the ``__init__`` of a class that writes none."""

from __future__ import annotations

import inspect
from dataclasses import FrozenInstanceError, MISSING, field, fields

import pytest

import datagraph.backends
import datagraph.graph
import datagraph.worldgen
from datagraph import Edge, GroundTruthInstance, Node, Pose, QueryResponse, SceneObject, Snapshot
from datagraph.graph import _record, _refuse_setattr


def record_classes():
    """Every class that ``_record`` made in the modules that define records."""
    return {
        cls
        for module in (datagraph.graph, datagraph.worldgen, datagraph.backends)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and cls.__setattr__ is _refuse_setattr
    }


OBJECT = SceneObject("keyfob", {"number": "6"}, (1.0, 2.0, 0.0), 7)
POSE = Pose((1.0, 2.0, 0.0), (0.0, 0.0, 0.0, 1.0))
SNAPSHOT = Snapshot((OBJECT,), "scene://basement/3")

# valid values for the fields of __init__, in field order, each distinct from
# the others of its record, which every public constructor stores unchanged
VALUES = {
    Pose: ((1.0, 2.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
    SceneObject: ("chair", {"color": "blue"}, (1.0, 2.0, 0.0), 7),
    Snapshot: ((OBJECT,), "scene://basement/3"),
    Node: (3, POSE, SNAPSHOT),
    Edge: (1, 2, False, 2.5),
    GroundTruthInstance: (4, "keyfob", {"number": "6"}, (1.0, 2.0, 0.0), 3, 2),
    QueryResponse: (3, True, (OBJECT,), 1, "raw", 0),
}


def test_every_record_has_values():
    assert record_classes() == set(VALUES)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_of_builds_the_record_the_constructor_builds(cls):
    values = VALUES[cls]
    record = cls._of(*values)
    assert type(record) is cls
    assert record == cls(*values)
    assert repr(record) == repr(cls(*values))
    init_fields = [f for f in fields(cls) if f.init]
    assert len(init_fields) == len(values)
    for f, value in zip(init_fields, values):
        assert getattr(record, f.name) is value, f.name  # kept, not copied: a dict stays the one passed in
    for f in fields(cls):
        if not f.init:  # every slot is set: a field outside __init__ holds its default
            assert f.default is not MISSING
            assert getattr(record, f.name) == f.default, f.name
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_init_fills_the_record_that_of_builds(cls):
    """A class's own checking ``__init__`` ends in the generated ``_init``;
    a class without one has ``_init`` as its ``__init__``."""
    init = cls._init if "_init" in cls.__dict__ else cls.__init__
    record = object.__new__(cls)
    init(record, *VALUES[cls])
    assert record == cls._of(*VALUES[cls])
    assert all(getattr(record, f.name) is value for f, value in zip(fields(cls), VALUES[cls]))


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_generated_functions_check_nothing_and_name_their_record(cls):
    for name in ("_of", "_init" if "_init" in cls.__dict__ else "__init__"):
        function = inspect.getattr_static(cls, name)
        function = getattr(function, "__func__", function)
        assert function.__qualname__ == f"{cls.__name__}.{name}"
        assert function.__module__ == cls.__module__
        assert function.__code__.co_filename == f"<record {cls.__name__}>"  # a traceback names the record
    assert list(inspect.signature(cls._of).parameters) == [f.name for f in fields(cls) if f.init]
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\._of\(\) missing"):
        cls._of()
    record = cls._of(*(None for _ in VALUES[cls]))  # no field is checked
    assert all(getattr(record, f.name) is None for f in fields(cls) if f.init)


def test_a_field_outside_init_needs_a_default():
    class Broken:
        kept: int
        derived: int = field(init=False)

    with pytest.raises(TypeError, match=r"^Broken\.derived is outside __init__, so it needs a default$"):
        _record(Broken)


def test_snapshot_of_has_a_digest():
    assert Snapshot._of(*VALUES[Snapshot]).digest == Snapshot(*VALUES[Snapshot]).digest


def test_node_and_edge_keep_their_defaults_repr_and_frozenness():
    assert Edge(1, 2) == Edge(a=1, b=2, traversable=True, length_m=1.0)
    assert Edge(1, 2, length_m=2.5).traversable is True
    assert list(inspect.signature(Edge).parameters) == ["a", "b", "traversable", "length_m"]
    assert repr(Edge(1, 2)) == "Edge(a=1, b=2, traversable=True, length_m=1.0)"
    node = Node(0, Pose((0.0, 0.0, 0.0)), Snapshot())
    assert repr(node) == (
        "Node(id=0, pose=Pose(position=(0.0, 0.0, 0.0), orientation=None), "
        "snapshot=Snapshot(objects=(), payload_ref=None))"
    )
    with pytest.raises(TypeError):
        Node(0, node.pose)
    for record in (node, Edge(1, 2)):
        with pytest.raises(FrozenInstanceError):
            record.id = 1
        with pytest.raises(FrozenInstanceError):
            del record.pose
        with pytest.raises(FrozenInstanceError):
            record.extra = 1
