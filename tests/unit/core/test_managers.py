"""Unit tests for ResourceManager and ReplicationManager policies."""

import pytest

from repro.apps.counter import CounterServant
from repro.core.managers import ResourceManager
from repro.errors import ObjectGroupError
from repro.ftcorba.generic_factory import FactoryRegistry
from repro.ftcorba.properties import FTProperties, ReplicationStyle


def make_resources(nodes=("a", "b", "c")):
    registry = FactoryRegistry()
    registry.register_everywhere(nodes, "T", CounterServant)
    resources = ResourceManager(registry)
    resources.set_alive(set(nodes))
    return resources


def test_pick_node_prefers_least_loaded():
    resources = make_resources()
    resources.note_placed("a")
    resources.note_placed("a")
    resources.note_placed("b")
    assert resources.pick_node("T", 0, exclude=set()) == "c"


def test_pick_node_ties_break_on_node_id():
    resources = make_resources()
    assert resources.pick_node("T", 0, exclude=set()) == "a"


def test_pick_node_respects_exclusion():
    resources = make_resources()
    assert resources.pick_node("T", 0, exclude={"a"}) == "b"


def test_pick_node_requires_alive():
    resources = make_resources()
    resources.set_alive({"b"})
    assert resources.pick_node("T", 0, exclude=set()) == "b"
    resources.set_alive(set())
    assert resources.pick_node("T", 0, exclude=set()) is None


def test_pick_node_requires_factory():
    resources = make_resources()
    assert resources.pick_node("Unknown", 0, exclude=set()) is None


def test_load_bookkeeping_never_negative():
    resources = make_resources()
    resources.note_removed("a")
    assert resources.load_of("a") == 0
    resources.note_placed("a")
    resources.note_removed("a")
    resources.note_removed("a")
    assert resources.load_of("a") == 0


def test_version_aware_placement():
    registry = FactoryRegistry()
    registry.register_everywhere(["a"], "T", CounterServant, version=0)
    registry.register_everywhere(["b"], "T", CounterServant, version=1)
    resources = ResourceManager(registry)
    resources.set_alive({"a", "b"})
    assert resources.pick_node("T", 0, exclude=set()) == "a"
    assert resources.pick_node("T", 1, exclude=set()) == "b"


# ---------------------------------------------------------------------------
# ReplicationManager policy (through a tiny live system)
# ---------------------------------------------------------------------------

def live_system(nodes=("m", "n1", "n2")):
    from repro.simnet.system import EternalSystem
    system = EternalSystem(list(nodes))
    system.register_factory("IDL:repro/Counter:1.0", CounterServant,
                            nodes=[n for n in nodes if n != "m"])
    return system


def test_create_group_roles_active():
    system = live_system()
    managed = system.replication_manager.create_group(
        "g", "IDL:repro/Counter:1.0",
        FTProperties(initial_replicas=2), nodes=["n1", "n2"],
    )
    assert set(managed.assignments.values()) == {"active"}


def test_create_group_roles_passive():
    system = live_system()
    managed = system.replication_manager.create_group(
        "g", "IDL:repro/Counter:1.0",
        FTProperties(replication_style=ReplicationStyle.WARM_PASSIVE,
                     initial_replicas=2),
        nodes=["n1", "n2"],
    )
    roles = sorted(managed.assignments.values())
    assert roles == ["backup", "primary"]


def test_add_member_duplicate_rejected():
    system = live_system()
    rm = system.replication_manager
    rm.create_group("g", "IDL:repro/Counter:1.0",
                    FTProperties(initial_replicas=1), nodes=["n1"])
    with pytest.raises(ObjectGroupError):
        rm.add_member("g", "n1")


def test_remove_unknown_member_rejected():
    system = live_system()
    rm = system.replication_manager
    rm.create_group("g", "IDL:repro/Counter:1.0",
                    FTProperties(initial_replicas=1), nodes=["n1"])
    with pytest.raises(ObjectGroupError):
        rm.remove_member("g", "n2")


def test_remove_primary_promotes_in_assignments():
    system = live_system()
    rm = system.replication_manager
    rm.create_group("g", "IDL:repro/Counter:1.0",
                    FTProperties(replication_style=
                                 ReplicationStyle.WARM_PASSIVE,
                                 initial_replicas=2),
                    nodes=["n1", "n2"])
    primary = next(n for n, r in rm.groups["g"].assignments.items()
                   if r == "primary")
    rm.remove_member("g", primary)
    assert "primary" in rm.groups["g"].assignments.values()


def test_unknown_group_operations_rejected():
    system = live_system()
    rm = system.replication_manager
    with pytest.raises(ObjectGroupError):
        rm.add_member("ghost", "n1")
    with pytest.raises(ObjectGroupError):
        rm.remove_member("ghost", "n1")


def test_create_group_insufficient_capacity_rejected():
    system = live_system(nodes=("m",))
    with pytest.raises(ObjectGroupError):
        system.replication_manager.create_group(
            "g", "IDL:repro/Counter:1.0", FTProperties(initial_replicas=1)
        )
