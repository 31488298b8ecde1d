"""Integration: the durable store's recovery ladder (repro.store).

Cold-restart scenarios on the simulator with per-node in-memory journals
(the system-owned :class:`~repro.store.memory.MemoryStore` survives a
kill the way a disk survives a power cycle):

* a warm restart restores the durable checkpoint locally and fetches only
  the digest-negotiated tail — an order of magnitude fewer wire bytes
  than a journal-less recovery of the same state;
* a **full-cluster** kill, fatal to the journal-less system, cold-boots:
  the replica with the deepest journal elects itself seed, replays its
  log, and re-seeds the group with every committed invocation intact;
* a corrupt journal is quarantined — structured ``store.corrupt`` trace,
  full network recovery, audit-clean convergence;
* without a store configured, the volatile-loss behavior of the paper's
  system is preserved bit for bit.
"""

from repro.bench.deployments import build_client_server
from repro.ftcorba.properties import ReplicationStyle
from repro.store.memory import MemoryStore

STATE = 350_000


def deploy(*, store=True, server_replicas=3, state_size=STATE):
    return build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=server_replicas,
        state_size=state_size,
        # Long interval: checkpoints happen when the test forces them, so
        # measurement windows stay free of periodic transfers.
        checkpoint_interval=5.0,
        store_factory=(lambda node_id: MemoryStore()) if store else None,
        warmup=0.2,
    )


def _wire_bytes(system):
    c = system.tracer.counters
    return c.get("bulk.inorder.bytes", 0) + c.get("bulk.oob.bytes", 0)


def _force_checkpoint(dep, node="s1"):
    dep.system.mechanisms(node).recovery.initiate_checkpoint("store")
    dep.system.run_for(0.2)


def journal_loads(system):
    """The outcome of every later ``recovery.store.load`` span:
    ``"restored"``, or ``"corrupt"`` for a quarantined journal."""
    started, outcomes = set(), []

    def note(record):
        if record.category != "span":
            return
        if (record.event == "span_start"
                and record.fields["name"] == "recovery.store.load"):
            started.add(record.fields["span"])
        elif record.event == "span_end" and record.fields["span"] in started:
            outcomes.append(record.fields.get("outcome", "restored"))
    system.tracer.subscribe(note)
    return outcomes


def _restart(dep, node, *, downtime=0.05, timeout=10.0):
    system = dep.system
    system.kill_node(node)
    system.run_for(downtime)
    before = _wire_bytes(system)
    system.restart_node(node)
    assert system.wait_for(
        lambda: dep.server_group.is_operational_on(node), timeout=timeout)
    system.run_for(0.2)
    return _wire_bytes(system) - before


def test_warm_restart_ships_only_the_tail(strict_audit):
    warm = deploy()
    _force_checkpoint(warm)
    loads = journal_loads(warm.system)
    warm_bytes = _restart(warm, "s2")
    assert loads.count("restored") >= 1

    cold = deploy(store=False)
    cold_bytes = _restart(cold, "s2")

    # Acceptance gate: the journal-backed restart moves >=10x fewer state
    # bytes than the journal-less one at 350 kB of state.
    assert cold_bytes >= STATE          # full snapshot went over the wire
    assert warm_bytes * 10 <= cold_bytes


def test_full_cluster_kill_cold_boots_with_all_committed_state(strict_audit):
    dep = deploy(state_size=20_000)
    system = dep.system
    _force_checkpoint(dep)
    system.run_for(0.2)                 # more invocations past the ckpt
    acked_before = dep.driver.acked
    assert acked_before > 0

    for node in dep.server_nodes:
        system.kill_node(node)
    system.run_for(0.1)
    for node in dep.server_nodes:
        system.restart_node(node)
    assert system.wait_for(
        lambda: all(dep.server_group.is_operational_on(n)
                    for n in dep.server_nodes), timeout=20.0), \
        "group did not cold-boot from its journals"

    c = system.tracer.counters
    assert c.get("store.cold_seed_claimed", 0) >= 1
    # Every acknowledged invocation was journaled write-ahead of its
    # reply, so the cold-booted replicas must remember all of them.
    counts = {n: dep.server_servant(n).echo_count for n in dep.server_nodes}
    assert min(counts.values()) >= acked_before, counts

    # The service is actually alive again, not just marked operational.
    assert system.wait_for(lambda: dep.driver.acked > acked_before,
                           timeout=10.0)
    system.run_for(0.3)
    reference = dep.server_servant(dep.server_nodes[0]).get_state()
    for node in dep.server_nodes[1:]:
        assert dep.server_servant(node).get_state() == reference


def test_journal_less_full_cluster_kill_stays_dead():
    """Volatile-loss behavior preserved: without a store, whole-group
    death is fatal, exactly as in the paper's system."""
    dep = deploy(store=False, state_size=10_000)
    system = dep.system
    for node in dep.server_nodes:
        system.kill_node(node)
    system.run_for(0.1)
    for node in dep.server_nodes:
        system.restart_node(node)
    assert not system.wait_for(
        lambda: any(dep.server_group.is_operational_on(n)
                    for n in dep.server_nodes), timeout=3.0)
    assert system.tracer.counters.get("store.cold_seed_claimed", 0) == 0


def test_corrupt_journal_quarantined_and_recovered_over_network(strict_audit):
    dep = deploy(state_size=40_000)
    system = dep.system
    _force_checkpoint(dep)
    system.kill_node("s2")
    system.run_for(0.05)
    # Damage the dead node's journal mid-blob: a CRC mismatch in a sealed
    # region, not a torn tail.
    backend = system.stores["s2"].group("store").backend
    assert len(backend.blob) > 100
    backend.blob[len(backend.blob) // 2] ^= 0xFF
    loads = journal_loads(system)
    system.restart_node("s2")
    assert system.wait_for(
        lambda: dep.server_group.is_operational_on("s2"), timeout=10.0)
    c = system.tracer.counters
    assert c.get("store.corrupt", 0) >= 1
    assert loads.count("restored") == 0
    system.run_for(0.3)
    assert (dep.server_servant("s2").get_state()
            == dep.server_servant("s1").get_state())


def test_restart_without_new_work_ships_no_state(strict_audit):
    """A replica that missed nothing needs nothing: restart with a
    journal covering the group's frontier moves no bulk state at all."""
    dep = deploy(state_size=30_000, server_replicas=3)
    system = dep.system
    _force_checkpoint(dep)
    # Stop the driver's flow by killing the client node: the group is
    # quiescent, so the journal frontier equals the group frontier.
    system.kill_node(dep.client_nodes[0])
    system.run_for(0.3)
    delta = _restart(dep, "s3", timeout=10.0)
    # Only the digest negotiation and (at most) a page-less delta should
    # have moved — a small fraction of the 30 kB state.
    assert delta < 10_000, delta
