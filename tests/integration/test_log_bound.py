"""Integration: bounded message logs force early checkpoints (§3.3 ext).

With ``max_log_messages`` set, the primary fabricates a checkpoint
get_state() as soon as the log reaches the bound, independent of the
checkpoint interval — bounding both log memory and failover replay time.
The per-group FTProperties bound wins when set; otherwise the deployment
default ``replication.MAX_LOG_LENGTH`` applies (0 disables both).
"""

import pytest

from repro import EternalSystem, FTProperties, ReplicationStyle
from repro.apps.kvstore import make_kvstore_factory
from repro.apps.packet_driver import PacketDriverServant
from repro.core import replication

KVSTORE = "IDL:repro/KvStore:1.0"
DRIVER = "IDL:repro/PacketDriver:1.0"


def deploy(max_log_messages, checkpoint_interval=60.0):
    system = EternalSystem(["m", "c1", "s1", "s2"],
                           keep_trace_records=False)
    system.register_factory(KVSTORE, make_kvstore_factory(1000),
                            nodes=["s1", "s2"])
    store = system.create_group(
        "store", KVSTORE,
        FTProperties(replication_style=ReplicationStyle.WARM_PASSIVE,
                     initial_replicas=2, min_replicas=1,
                     checkpoint_interval=checkpoint_interval,
                     max_log_messages=max_log_messages),
        nodes=["s1", "s2"],
    )
    system.run_for(0.05)
    iogr = store.iogr().stringify()
    system.register_factory(DRIVER, lambda: PacketDriverServant(iogr),
                            nodes=["c1"])
    system.create_group("drv", DRIVER, FTProperties(initial_replicas=1),
                        nodes=["c1"])
    system.run_for(0.1)
    return system, store


def test_bound_forces_checkpoints_despite_huge_interval():
    system, store = deploy(max_log_messages=100)
    system.run_for(1.0)
    # the 60 s interval alone would give zero checkpoints in 1 s
    assert system.tracer.count("recovery.checkpoint_initiated") >= 3


def test_unbounded_log_grows_without_checkpoints(monkeypatch):
    # group bound of 0 falls back to the deployment default, so that has
    # to be switched off too for a truly unbounded log
    monkeypatch.setattr(replication, "MAX_LOG_LENGTH", 0)
    system, store = deploy(max_log_messages=0)
    system.run_for(1.0)
    assert system.tracer.count("recovery.checkpoint_initiated") == 0
    backup = [n for n in ("s1", "s2") if n != store.primary_node()][0]
    assert store.binding_on(backup).log.log_length > 500


def test_log_stays_near_bound():
    system, store = deploy(max_log_messages=100)
    system.run_for(1.0)
    primary = store.primary_node()
    log_length = store.binding_on(primary).log.log_length
    # bound plus the traffic of one in-flight checkpoint transfer
    assert log_length < 300


def test_failover_replay_bounded():
    system, store = deploy(max_log_messages=100)
    system.run_for(1.0)
    primary = store.primary_node()
    backup = [n for n in ("s1", "s2") if n != primary][0]
    replay_len = len(
        store.binding_on(backup).log.messages_since_checkpoint()
    )
    assert replay_len < 300


def test_deployment_default_bound_applies_when_group_unset(monkeypatch):
    # no per-group bound: replication.MAX_LOG_LENGTH kicks in
    monkeypatch.setattr(replication, "MAX_LOG_LENGTH", 100)
    system, store = deploy(max_log_messages=0)
    system.run_for(1.0)
    assert system.tracer.count("recovery.checkpoint_initiated") >= 3
    primary = store.primary_node()
    assert store.binding_on(primary).log.log_length < 300


def test_group_bound_overrides_deployment_default(monkeypatch):
    # a tight group bound wins over a loose deployment default
    monkeypatch.setattr(replication, "MAX_LOG_LENGTH", 100_000)
    system, store = deploy(max_log_messages=100)
    system.run_for(1.0)
    assert system.tracer.count("recovery.checkpoint_initiated") >= 3


def test_invalid_bound_rejected():
    from repro.errors import PropertyError
    with pytest.raises(PropertyError):
        FTProperties(max_log_messages=-1)
