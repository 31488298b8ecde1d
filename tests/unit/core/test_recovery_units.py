"""Unit tests for Recovery Mechanisms internals (dedup guards, snapshots,
transfer-id handling) using a small live system for realistic wiring."""

import pytest

from repro import EternalSystem, FTProperties, ReplicationStyle
from repro.apps.counter import CounterServant
from repro.core.envelope import StateGet, StateSet, TransferPurpose

COUNTER = "IDL:repro/Counter:1.0"


def make_system(style=ReplicationStyle.ACTIVE):
    system = EternalSystem(["m", "n1", "n2"])
    system.register_factory(COUNTER, CounterServant, nodes=["n1", "n2"])
    system.create_group(
        "g", COUNTER,
        FTProperties(replication_style=style, initial_replicas=2,
                     min_replicas=1, checkpoint_interval=60.0),
        nodes=["n1", "n2"],
    )
    system.run_for(0.05)
    return system


def test_duplicate_state_get_handled_once():
    system = make_system()
    recovery = system.mechanisms("n1").recovery
    get = StateGet("g", "tid-1", TransferPurpose.RECOVERY, "n2", "n2")
    recovery.handle_state_get(get)
    queued_after_first = system.mechanisms("n1").bindings["g"] \
        .container.queue_depth
    recovery.handle_state_get(get)      # duplicate: ignored
    queued_after_second = system.mechanisms("n1").bindings["g"] \
        .container.queue_depth
    assert queued_after_first == queued_after_second


def test_duplicate_state_set_handled_once():
    system = make_system()
    recovery = system.mechanisms("n1").recovery
    blob = b""
    st = StateSet("g", "tid-9", TransferPurpose.CHECKPOINT, "n2", "",
                  blob, blob, blob)
    recovery.handle_state_set(st)
    checkpoints = system.mechanisms("n1").bindings["g"].log.checkpoints_taken
    recovery.handle_state_set(st)
    assert system.mechanisms("n1").bindings["g"].log.checkpoints_taken \
        == checkpoints


def test_state_get_for_unknown_group_ignored():
    system = make_system()
    recovery = system.mechanisms("n1").recovery
    recovery.handle_state_get(
        StateGet("ghost", "t", TransferPurpose.RECOVERY, "x", "y")
    )   # must not raise


def test_filter_snapshot_taken_at_get_and_consumed():
    system = make_system()
    mechanisms = system.mechanisms("n1")
    recovery = mechanisms.recovery
    get = StateGet("g", "tid-snap", TransferPurpose.RECOVERY, "n2", "n2")
    recovery.handle_state_get(get)
    assert "tid-snap" in recovery._filter_snapshots
    system.run_for(0.05)    # get_state completes, SET multicast
    assert "tid-snap" not in recovery._filter_snapshots


def test_checkpoint_initiation_requires_primary():
    system = make_system(style=ReplicationStyle.WARM_PASSIVE)
    info = system.mechanisms("m").groups["g"]
    backup = [n for n in ("n1", "n2") if n != info.primary_node][0]
    recovery = system.mechanisms(backup).recovery
    before = system.tracer.count("recovery.checkpoint_initiated")
    recovery.initiate_checkpoint("g")       # not the primary: no-op
    assert system.tracer.count("recovery.checkpoint_initiated") == before
    primary_recovery = system.mechanisms(info.primary_node).recovery
    primary_recovery.initiate_checkpoint("g")
    assert system.tracer.count("recovery.checkpoint_initiated") == before + 1


def test_checkpoint_initiation_skips_while_one_pending():
    system = make_system(style=ReplicationStyle.WARM_PASSIVE)
    info = system.mechanisms("m").groups["g"]
    recovery = system.mechanisms(info.primary_node).recovery
    recovery.initiate_checkpoint("g")
    recovery.initiate_checkpoint("g")       # guard: one in flight
    assert system.tracer.count("recovery.checkpoint_initiated") == 1
    system.run_for(0.1)                     # transfer completes
    recovery.initiate_checkpoint("g")
    assert system.tracer.count("recovery.checkpoint_initiated") == 2


def test_active_groups_never_checkpoint_spontaneously():
    system = make_system(style=ReplicationStyle.ACTIVE)
    system.run_for(1.0)
    assert system.tracer.count("recovery.checkpoint_initiated") == 0


def test_transfer_ids_are_unique_per_announcement():
    system = make_system()
    recovery = system.mechanisms("n1").recovery
    binding = system.mechanisms("n1").bindings["g"]
    ids = set()
    for _ in range(5):
        recovery.announce_join(binding)
        ids.add(binding.pending_transfer)
    assert len(ids) == 5


def test_pending_checkpoint_of_one_group_does_not_block_a_prefix_named_one():
    """The in-flight guard is per group: ``a:b``'s pending checkpoint used
    to match ``a``'s id prefix and silently block it."""
    system = make_system(style=ReplicationStyle.WARM_PASSIVE)
    for group_id in ("a", "a:b"):
        system.create_group(
            group_id, COUNTER,
            FTProperties(replication_style=ReplicationStyle.WARM_PASSIVE,
                         initial_replicas=2, min_replicas=1,
                         checkpoint_interval=60.0),
            nodes=["n1", "n2"],
        )
    system.run_for(0.05)
    groups = system.mechanisms("m").groups
    primary = groups["a"].primary_node
    assert groups["a:b"].primary_node == primary
    recovery = system.mechanisms(primary).recovery
    recovery.initiate_checkpoint("a:b")
    assert system.tracer.count("recovery.checkpoint_initiated") == 1
    recovery.initiate_checkpoint("a")
    assert system.tracer.count("recovery.checkpoint_initiated") == 2


def test_checkpoint_guard_released_when_binding_is_gone_at_capture():
    """If the binding is destroyed while the capture is queued, the node
    must still be able to initiate the group's next checkpoint."""
    system = make_system(style=ReplicationStyle.WARM_PASSIVE)
    info = system.mechanisms("m").groups["g"]
    mechanisms = system.mechanisms(info.primary_node)
    recovery = mechanisms.recovery
    binding = mechanisms.bindings["g"]
    recovery.initiate_checkpoint("g")
    # The GET has been delivered (filter snapshot taken), capture queued.
    assert system.wait_for(lambda: recovery._filter_snapshots, timeout=1.0)
    mechanisms._destroy_binding("g")
    system.run_for(0.1)             # capture completes against no binding
    mechanisms.bindings["g"] = binding
    recovery.initiate_checkpoint("g")
    assert system.tracer.count("recovery.checkpoint_initiated") == 2
