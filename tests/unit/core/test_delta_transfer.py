"""Behaviour tests for delta state transfer in the recovery protocol.

The responder ships page deltas only when the transfer names a base
checkpoint it also holds; every mismatch — stale base, undecodable body,
missing checkpoint — must degrade to a full snapshot without breaking
the transfer.
"""

from repro import EternalSystem, FTProperties, ReplicationStyle
from repro.apps.kvstore import KvStoreServant, make_kvstore_factory
from repro.core.config import EternalConfig
from repro.core.envelope import ReplicaJoin
from repro.core.replication import Phase

KVSTORE = "IDL:repro/KvStore:1.0"
PAYLOAD = 40_000        # ~40 pages of bulk state


def make_system(payload=PAYLOAD, eternal_config=None):
    system = EternalSystem(["m", "n1", "n2"], keep_trace_records=True,
                           eternal_config=eternal_config)
    system.register_factory(KVSTORE, make_kvstore_factory(payload),
                            nodes=["n1", "n2"])
    system.create_group(
        "g", KVSTORE,
        FTProperties(replication_style=ReplicationStyle.WARM_PASSIVE,
                     initial_replicas=2, min_replicas=1,
                     checkpoint_interval=60.0),
        nodes=["n1", "n2"],
    )
    system.run_for(0.1)
    return system


def _primary_recovery(system):
    info = system.mechanisms("m").groups["g"]
    return system.mechanisms(info.primary_node).recovery, info.primary_node


def _scribble(system, node, fraction=0.1):
    servant = system.mechanisms(node).bindings["g"].container.servant
    assert isinstance(servant, KvStoreServant)
    return servant.scribble(fraction)


def _delta_records(system, event):
    return [r for r in system.tracer.records
            if r.category == "delta" and r.event == event]


def _xfer_bytes(system, transfer_id):
    """``app_bytes`` of the ``set_state`` body each responder sent for
    ``transfer_id`` (its ``recovery.xfer`` spans)."""
    return [r.fields["app_bytes"] for r in system.tracer.records
            if r.event == "span_start"
            and r.fields["name"] == "recovery.xfer"
            and r.fields["span"].startswith(f"{transfer_id}/xfer@")]


def test_second_checkpoint_ships_delta():
    system = make_system()
    recovery, primary = _primary_recovery(system)
    recovery.initiate_checkpoint("g")       # first: no base -> full
    system.run_for(0.3)
    assert system.tracer.count("delta.delta_sent") == 0
    for node in ("n1", "n2"):
        _scribble(system, node)             # dirty ~10 % on both replicas
    recovery.initiate_checkpoint("g")       # second: shared base -> delta
    system.run_for(0.3)
    sent = _delta_records(system, "delta_sent")
    assert sent
    economics = sent[-1].fields
    assert economics["pages_skipped"] > economics["pages_sent"]
    assert economics["wire_bytes"] < economics["full_bytes"] / 2
    # both replicas end with byte-identical checkpoints
    digests = {system.mechanisms(n).bindings["g"].log.checkpoint.app_digest
               for n in ("n1", "n2")}
    assert len(digests) == 1


def test_unchanged_state_ships_near_empty_delta():
    system = make_system()
    recovery, _ = _primary_recovery(system)
    recovery.initiate_checkpoint("g")
    system.run_for(0.3)
    recovery.initiate_checkpoint("g")       # nothing changed in between
    system.run_for(0.3)
    sent = _delta_records(system, "delta_sent")
    assert sent and sent[-1].fields["pages_sent"] == 0


def test_recovery_transfer_uses_delta_against_checkpoint():
    system = make_system()
    recovery, primary = _primary_recovery(system)
    recovery.initiate_checkpoint("g")       # align a group-wide base
    system.run_for(0.3)
    for node in ("n1", "n2"):
        _scribble(system, node)
    backup = "n2" if primary == "n1" else "n1"
    mechanisms = system.mechanisms(backup)
    binding = mechanisms.bindings["g"]
    # Put the backup (which holds the aligned checkpoint) back through the
    # §5.1 protocol: the announcement names its checkpoint as delta base.
    binding.phase = Phase.JOINING
    mechanisms.recovery.announce_join(binding)
    transfer_id = binding.pending_transfer
    assert system.wait_for(lambda: binding.operational, timeout=5.0)
    assert system.tracer.count("delta.delta_sent") >= 1
    # The target rebuilt the full snapshot from a smaller delta body.
    sent = _xfer_bytes(system, transfer_id)
    applied = [r.fields["app_bytes"] for r in system.tracer.records
               if (r.category, r.event)
               == ("recovery", "recovery_set_received")
               and r.fields["node"] == backup]
    assert sent and applied and max(sent) < applied[-1]
    # recovered replica's state matches the primary's, byte for byte
    survivor = system.mechanisms(primary).bindings["g"].container.servant
    recovered = binding.container.servant
    assert recovered.payload == survivor.payload
    assert recovered.scribble_count == survivor.scribble_count


def test_base_digest_mismatch_falls_back_to_full():
    system = make_system()
    recovery, _ = _primary_recovery(system)
    recovery.initiate_checkpoint("g")
    system.run_for(0.3)
    deltas_before = system.tracer.count("delta.delta_sent")
    # A join naming a base nobody holds: the responder must ship the full
    # snapshot rather than a delta against the wrong base.
    system.mechanisms("n2").multicast(ReplicaJoin(
        group_id="g", node_id="n2", transfer_id="tid-stale-base",
        base_digest="sha256:no-such-checkpoint"))
    system.run_for(0.5)
    assert _xfer_bytes(system, "tid-stale-base")
    assert all(size >= PAYLOAD
               for size in _xfer_bytes(system, "tid-stale-base"))
    assert system.tracer.count("delta.delta_sent") == deltas_before


def test_delta_disabled_by_config_sends_full_bodies():
    system = make_system(
        eternal_config=EternalConfig(delta_state_transfer=False))
    recovery, _ = _primary_recovery(system)
    recovery.initiate_checkpoint("g")
    system.run_for(0.3)
    recovery.initiate_checkpoint("g")
    system.run_for(0.3)
    assert system.tracer.count("delta.delta_sent") == 0
    assert system.mechanisms("n1").bindings["g"].log.checkpoint is not None
