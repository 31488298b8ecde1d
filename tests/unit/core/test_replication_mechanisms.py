"""Unit tests for Replication Mechanisms routing and group-view handling.

These drive a real two/three-node system but assert on the *internal*
mechanism state (bindings, group views, delivery decisions) rather than
end-to-end application behaviour.
"""

import pytest

from repro import EternalSystem, FTProperties, ReplicationStyle
from repro.apps.counter import CounterServant
from repro.core.envelope import GroupUpdate, IiopEnvelope, encode_envelope
from repro.core.identifiers import ConnectionKey, OpKind
from repro.core.replication import Phase

COUNTER = "IDL:repro/Counter:1.0"


def make_system(nodes=("m", "n1", "n2")):
    system = EternalSystem(list(nodes))
    system.register_factory(COUNTER, CounterServant,
                            nodes=[n for n in nodes if n != "m"])
    return system


def test_group_update_create_builds_operational_bindings():
    system = make_system()
    system.create_group("g", COUNTER, FTProperties(initial_replicas=2),
                        nodes=["n1", "n2"])
    system.run_for(0.05)
    for node in ("n1", "n2"):
        binding = system.mechanisms(node).bindings["g"]
        assert binding.phase is Phase.OPERATIONAL
    # non-members track the view but host nothing
    assert "g" not in system.mechanisms("m").bindings
    assert "g" in system.mechanisms("m").groups


def test_group_update_add_starts_recovery():
    system = make_system()
    system.create_group("g", COUNTER, FTProperties(initial_replicas=1,
                                                   min_replicas=1),
                        nodes=["n1"])
    system.run_for(0.05)
    system.replication_manager.add_member("g", "n2")
    # capture the recovering status before the (fast) transfer completes
    system.wait_for(lambda: "g" in system.mechanisms("n2").bindings,
                    timeout=1.0)
    system.wait_for(
        lambda: system.mechanisms("n2").bindings["g"].operational,
        timeout=2.0,
    )
    info = system.mechanisms("m").groups["g"]
    assert set(info.roles) == {"n1", "n2"}
    assert "n2" in info.operational


def test_group_update_remove_destroys_binding():
    system = make_system()
    system.create_group("g", COUNTER, FTProperties(initial_replicas=2),
                        nodes=["n1", "n2"])
    system.run_for(0.05)
    system.replication_manager.remove_member("g", "n2")
    system.run_for(0.05)
    assert "g" not in system.mechanisms("n2").bindings
    assert "n2" not in system.mechanisms("n1").groups["g"].roles


def test_iiop_for_unhosted_group_ignored():
    system = make_system()
    system.run_for(0.05)
    mechanisms = system.mechanisms("n1")
    envelope = IiopEnvelope(ConnectionKey("x", "ghost"), OpKind.REQUEST,
                            0, "m", b"junk")
    mechanisms._on_deliver("other", encode_envelope(envelope))  # no raise


def test_duplicate_request_filtered_per_replica():
    system = make_system()
    group = system.create_group("g", COUNTER,
                                FTProperties(initial_replicas=1),
                                nodes=["n1"])
    system.run_for(0.05)
    mechanisms = system.mechanisms("n1")
    binding = mechanisms.bindings["g"]
    from repro.giop.messages import RequestMessage, encode_message
    from repro.orb.objectkey import make_key
    wire = encode_message(RequestMessage(
        request_id=0, object_key=make_key("RootPOA", b"g"),
        operation="increment", args=(1,),
    ))
    envelope = IiopEnvelope(ConnectionKey("cli", "g"), OpKind.REQUEST, 0,
                            "other", wire)
    mechanisms._on_deliver("other", encode_envelope(envelope))
    mechanisms._on_deliver("other", encode_envelope(envelope))  # duplicate
    system.run_for(0.01)
    assert binding.container.servant.value == 1


def test_recovering_binding_drops_pre_sync_and_queues_post_sync():
    system = make_system()
    system.create_group("g", COUNTER, FTProperties(initial_replicas=1),
                        nodes=["n1"])
    system.run_for(0.05)
    mechanisms = system.mechanisms("n1")
    binding = mechanisms.bindings["g"]
    binding.phase = Phase.JOINING
    envelope = IiopEnvelope(ConnectionKey("cli", "g"), OpKind.REQUEST, 0,
                            "other", b"bytes")
    mechanisms._on_deliver("other", encode_envelope(envelope))
    assert not binding.enqueued              # pre-sync-point: dropped
    binding.phase = Phase.SYNCING
    envelope2 = IiopEnvelope(ConnectionKey("cli", "g"), OpKind.REQUEST, 1,
                             "other", b"bytes")
    mechanisms._on_deliver("other", encode_envelope(envelope2))
    assert list(binding.enqueued) == [(2, envelope2)]  # post-sync-point


def test_backup_logs_but_does_not_execute():
    system = make_system()
    system.create_group(
        "g", COUNTER,
        FTProperties(replication_style=ReplicationStyle.WARM_PASSIVE,
                     initial_replicas=2, min_replicas=1),
        nodes=["n1", "n2"],
    )
    system.run_for(0.05)
    info = system.mechanisms("m").groups["g"]
    backup = [n for n in ("n1", "n2") if n != info.primary_node][0]
    mechanisms = system.mechanisms(backup)
    binding = mechanisms.bindings["g"]
    from repro.giop.messages import RequestMessage, encode_message
    from repro.orb.objectkey import make_key
    wire = encode_message(RequestMessage(
        request_id=0, object_key=make_key("RootPOA", b"g"),
        operation="increment", args=(1,),
    ))
    envelope = IiopEnvelope(ConnectionKey("cli", "g"), OpKind.REQUEST, 0,
                            "other", wire)
    mechanisms._on_deliver("other", encode_envelope(envelope))
    system.run_for(0.01)
    assert binding.log.log_length == 1
    assert binding.container.servant.value == 0


def test_view_listeners_receive_losses():
    system = make_system()
    system.run_for(0.05)
    events = []
    system.mechanisms("m").on_view_event(
        lambda view, lost, joined: events.append((set(lost), set(joined)))
    )
    system.kill_node("n2")
    system.run_for(0.2)
    assert any(lost == {"n2"} for lost, joined in events)
