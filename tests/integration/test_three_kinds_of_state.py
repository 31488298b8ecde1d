"""Integration: the paper's three kinds of state, inspected on the wire.

§4 of the paper defines recovery as the synchronized transfer of
application-level, ORB/POA-level, and infrastructure-level state.  These
tests capture an actual fabricated ``set_state()`` envelope off the
multicast stream and verify each piggybacked blob carries exactly what the
paper says it must.
"""

import pytest

from repro.bench.deployments import build_client_server
from repro.core.envelope import StateSet, TransferPurpose, decode_envelope
from repro.core.identifiers import ConnectionKey
from repro.core.infra_state import InfraState
from repro.core.orb_state import OrbStateTracker
from repro.ftcorba.properties import ReplicationStyle
from repro.store.memory import MemoryStore
from repro.giop.messages import RequestMessage, decode_message
from repro.giop.service_context import VENDOR_HANDSHAKE_ID, find_context
from repro.giop.types import decode_any


@pytest.fixture
def captured_set():
    """Run a recovery and intercept the fabricated StateSet envelope."""
    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=3_000,
        warmup=0.3,
    )
    system = deployment.system
    captured = []
    original_multicast = system.mechanisms("s1").multicast

    def spy(envelope):
        if isinstance(envelope, StateSet) \
                and envelope.purpose is TransferPurpose.RECOVERY:
            captured.append(envelope)
        original_multicast(envelope)

    system.mechanisms("s1").multicast = spy
    system.kill_node("s2")
    system.run_for(0.1)
    system.restart_node("s2")
    assert system.wait_for(
        lambda: deployment.server_group.is_operational_on("s2"),
        timeout=5.0,
    )
    assert captured, "no recovery StateSet observed"
    return deployment, captured[0]


def test_application_level_state_is_the_checkpointable_any(captured_set):
    """§4.1: the state returned by get_state(), encoded as a CORBA any."""
    deployment, envelope = captured_set
    state = decode_any(envelope.app_state).value
    live = deployment.server_servant("s1")
    assert state["payload"] == live.payload
    assert isinstance(state["echo_count"], int)
    assert set(state) == {"data", "payload", "echo_count",
                          "scribble_count"}


def test_orb_level_state_carries_request_ids_and_handshake(captured_set):
    """§4.2: per-connection GIOP request_ids (discovered by parsing the
    IIOP stream) and the stored client-server handshake message."""
    deployment, envelope = captured_set
    tracker = OrbStateTracker.decode(envelope.orb_state)
    conn = ConnectionKey("driver", "store")
    # the handshake for the driver connection, as raw GIOP bytes…
    assert conn in tracker.handshakes
    handshake = decode_message(tracker.handshakes[conn])
    assert isinstance(handshake, RequestMessage)
    # …which indeed carries the vendor negotiation context
    assert find_context(list(handshake.service_contexts),
                        VENDOR_HANDSHAKE_ID) is not None
    # the server replica issues no client requests, so no request_id
    # counters are expected on this (server-side) capture
    assert all(isinstance(v, int)
               for v in tracker.client_request_ids.values())


def test_infrastructure_level_state_carries_dedup_and_role(captured_set):
    """§4.3: duplicate-suppression filter, issued/awaiting bookkeeping,
    and the replica's style/role."""
    deployment, envelope = captured_set
    infra = InfraState.decode(envelope.infra_state)
    assert infra.style == "active"
    assert infra.role == "active"
    conn = ConnectionKey("driver", "store")
    # the filter must already have seen the driver's past requests: the
    # next fresh id is NOT a duplicate, a long-past one IS
    from repro.core.identifiers import OperationId, OpKind
    past = OperationId(conn, 0, OpKind.REQUEST)
    assert infra.duplicates.seen_before(past) is True


# ---------------------------------------------------------------------------
# §4.3 assignment order, for every source the state can come from
# ---------------------------------------------------------------------------

def _deploy(style=ReplicationStyle.ACTIVE, state_size=3_000, store=False):
    return build_client_server(
        style=style, server_replicas=2, state_size=state_size,
        # Long interval: checkpoints happen only when a scenario forces one.
        checkpoint_interval=5.0, warmup=0.2, keep_trace_records=True,
        store_factory=(lambda node_id: MemoryStore()) if store else None,
    )


def _force_checkpoint(dep):
    initiator = dep.server_group.primary_node() or "s1"
    dep.system.mechanisms(initiator).recovery.initiate_checkpoint("store")
    dep.system.run_for(0.2)


def _network_recovery(state_size, store=False):
    """Kill and restart s2; it recovers from s1 over the network."""
    def run():
        dep = _deploy(state_size=state_size, store=store)
        if store:
            _force_checkpoint(dep)      # the base a delta is cut against
        dep.system.kill_node("s2")
        dep.system.run_for(0.05)
        mark = len(dep.system.tracer.records)
        dep.system.restart_node("s2")
        return dep, "s2", mark
    return run


def _failover(style):
    """Kill the primary; the backup installs its logged checkpoint."""
    def run():
        dep = _deploy(style=style)
        _force_checkpoint(dep)
        primary = dep.server_group.primary_node()
        backup = next(n for n in dep.server_nodes if n != primary)
        mark = len(dep.system.tracer.records)
        dep.system.kill_node(primary)
        return dep, backup, mark
    return run


def _cold_seed():
    """Kill the whole group; the best journal re-seeds it."""
    dep = _deploy(state_size=20_000, store=True)
    _force_checkpoint(dep)
    for node in dep.server_nodes:
        dep.system.kill_node(node)
    dep.system.run_for(0.1)
    mark = len(dep.system.tracer.records)
    for node in dep.server_nodes:
        dep.system.restart_node(node)
    assert dep.system.wait_for(
        lambda: dep.system.tracer.count("recovery.cold_seed_restore"),
        timeout=20.0)
    assert dep.system.tracer.count("store.cold_seed_claimed") >= 1
    seed = next(dep.system.tracer.find("recovery", "cold_seed_restore"))
    return dep, seed.fields["node"], mark


def _checkpoint_sync():
    """A warm backup synchronizes to a periodic checkpoint."""
    dep = _deploy(style=ReplicationStyle.WARM_PASSIVE)
    primary = dep.server_group.primary_node()
    backup = next(n for n in dep.server_nodes if n != primary)
    mark = len(dep.system.tracer.records)
    dep.system.mechanisms(primary).recovery.initiate_checkpoint("store")
    return dep, backup, mark


def _install_sequence(dep, node, mark):
    """The install-related records of ``node``'s replica, in trace order
    (consecutive repeats collapsed: one handshake per client connection)."""
    wanted = {("replica", "set_state"), ("recovery", "handshake_replayed"),
              ("recovery", "install"), ("recovery", "recovered")}
    sequence = []
    for record in dep.system.tracer.records[mark:]:
        if ((record.category, record.event) not in wanted
                or record.fields.get("node") != node
                or record.fields.get("group") != "store"):
            continue
        name = record.fields.get("step", record.event)
        if not sequence or sequence[-1] != name:
            sequence.append(name)
    return sequence


# set_state is the container applying the application state; the
# handshake replay is the ORB/POA-level assignment's visible effect.
ASSIGNMENT = ["set_state", "app", "handshake_replayed", "orb", "infra"]
TO_OPERATIONAL = ["replay", "operational", "drain", "recovered"]


@pytest.mark.parametrize("scenario,evidence,network", [
    (_network_recovery(3_000), "recovery.recovery_set_received", True),
    (_network_recovery(40_000, store=True), "delta.delta_sent", True),
    (_network_recovery(100_000), "recovery.bulk", True),
    (_failover(ReplicationStyle.WARM_PASSIVE), "recovery.failover_begin",
     False),
    (_failover(ReplicationStyle.COLD_PASSIVE), "recovery.failover_begin",
     False),
    (_cold_seed, "recovery.cold_seed_restore", False),
], ids=["network-full", "network-delta", "network-bulk",
        "failover-warm", "failover-cold", "cold-seed"])
def test_assignment_order_app_then_orb_then_infra(strict_audit, scenario,
                                                  evidence, network):
    """§4.3: 'assign the application-level state first, the ORB/POA-level
    state next, and finally the infrastructure-level state' — then replay
    the log past the installed record, go operational, drain — whatever
    the source of the state."""
    dep, node, mark = scenario()
    system = dep.system
    assert system.wait_for(
        lambda: _install_sequence(dep, node, mark)[-1:] == ["recovered"],
        timeout=20.0)
    records = system.tracer.records[mark:]
    # The evidence is a record kind, or the name of a span that ran.
    assert evidence in ({f"{r.category}.{r.event}" for r in records}
                        | {r.fields["name"] for r in records
                           if r.event == "span_start"})
    assert _install_sequence(dep, node, mark) == ASSIGNMENT + TO_OPERATIONAL
    if network:
        # A network transfer's record is committed before it is installed,
        # and the commit prunes whatever tail a journal restored: network
        # recovery is failover with an empty log.
        replay = next(r for r in records
                      if (r.category, r.event) == ("recovery", "install")
                      and r.fields["node"] == node
                      and r.fields["step"] == "replay")
        assert replay.fields["messages"] == 0
        assert dep.server_group.binding_on(node).log.log_length == 0
        if evidence == "delta.delta_sent":
            # ...even though the journal did restore a tail, all of it
            # at or before the GET's position.
            load = next(r.fields["span"] for r in records
                        if r.event == "span_start"
                        and r.fields["name"] == "recovery.store.load")
            restored = next(r for r in records if r.event == "span_end"
                            and r.fields["span"] == load)
            assert restored.fields["messages"] > 0
        # ...and the recovered replica converges with the survivor
        system.run_for(0.2)
        assert (dep.server_servant("s1").get_state()
                == dep.server_servant("s2").get_state())
    binding = dep.server_group.binding_on(node)
    assert binding.container.orb.requests_discarded == 0


def test_warm_backup_checkpoint_sync_assigns_in_the_same_order():
    """The periodic checkpoint sync is the same install, cut short: nothing
    to replay and no phase to change."""
    dep, backup, mark = _checkpoint_sync()
    dep.system.run_for(0.2)
    assert _install_sequence(dep, backup, mark) == ASSIGNMENT
    assert dep.server_group.binding_on(backup).operational
