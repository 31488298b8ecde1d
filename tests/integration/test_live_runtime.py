"""Live-runtime integration: a real 3-node ring on loopback UDP.

The wall-clock counterpart of the simulated kill/recover scenarios: form
a Totem ring over real sockets, replicate a counter under closed-loop
load, SIGKILL-style one replica, re-launch it, and require the §5.1
recovery to reinstate it — with a consistency-auditor-clean trace —
inside a wall-clock deadline.  Timeouts are generous (shared CI boxes);
a healthy run recovers in well under a second.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.counter import CounterServant
from repro.ftcorba.properties import FTProperties
from repro.live.loadgen import DRIVER_TYPE, make_driver_factory
from repro.live.system import LiveSystem

pytestmark = pytest.mark.live

NODES = ["n1", "n2", "n3"]


async def _kill_recover_scenario():
    system = LiveSystem(NODES)
    auditor = system.attach_auditor()
    try:
        assert await system.wait_for(system.ring_formed, timeout=15.0), \
            "Totem ring did not form on loopback UDP"

        server_nodes = ["n2", "n3"]
        system.register_factory(CounterServant.type_id, CounterServant,
                                nodes=server_nodes)
        group = system.create_group(
            "counter", CounterServant.type_id,
            FTProperties(initial_replicas=2, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=server_nodes,
        )
        assert await system.wait_for(
            lambda: all(group.is_operational_on(n) for n in server_nodes),
            timeout=15.0), "counter group never became operational"

        iogr = group.iogr().stringify()
        system.register_factory(
            DRIVER_TYPE, make_driver_factory(iogr, "increment"),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", DRIVER_TYPE,
            FTProperties(initial_replicas=1, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=["n1"],
        )
        assert await system.wait_for(
            lambda: driver_group.is_operational_on("n1"), timeout=15.0)
        driver = driver_group.servant_on("n1")
        assert await system.wait_for(lambda: driver.acked >= 10,
                                     timeout=15.0), "no load flowing"

        # SIGKILL-style: socket closed, volatile state gone.
        system.kill_node("n3")
        await system.run_for(0.3)
        relaunched_at = system.now
        system.restart_node("n3")
        assert await system.wait_for(
            lambda: group.is_operational_on("n3"), timeout=30.0), \
            "killed replica was not reinstated within the wall-clock budget"
        recovery_wall = system.now - relaunched_at

        # Service keeps making progress after the recovery …
        acked = driver.acked
        assert await system.wait_for(lambda: driver.acked > acked,
                                     timeout=10.0)
        # … and the recovered replica converges to the survivor's state
        # (the closed-loop driver keeps one request in flight, so the
        # replicas equalize between deliveries).
        assert await system.wait_for(
            lambda: (group.servant_on("n2").value
                     == group.servant_on("n3").value), timeout=10.0), \
            "recovered replica never converged with the survivor"
        return recovery_wall, auditor
    finally:
        system.close()


async def _durable_restart_scenario(store_dir):
    """Kill/re-launch with ``store_dir`` set: the relaunched node must come
    back through its on-disk journal (store restore, not a state-less
    rejoin), and the journal must actually exist on disk."""
    system = LiveSystem(NODES, store_dir=store_dir)
    auditor = system.attach_auditor()
    try:
        assert await system.wait_for(system.ring_formed, timeout=15.0)
        server_nodes = ["n2", "n3"]
        system.register_factory(CounterServant.type_id, CounterServant,
                                nodes=server_nodes)
        group = system.create_group(
            "counter", CounterServant.type_id,
            FTProperties(initial_replicas=2, min_replicas=1,
                         fault_monitoring_interval=0.5,
                         checkpoint_interval=0.2),
            nodes=server_nodes,
        )
        assert await system.wait_for(
            lambda: all(group.is_operational_on(n) for n in server_nodes),
            timeout=15.0)
        iogr = group.iogr().stringify()
        system.register_factory(
            DRIVER_TYPE, make_driver_factory(iogr, "increment"),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", DRIVER_TYPE,
            FTProperties(initial_replicas=1, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=["n1"],
        )
        assert await system.wait_for(
            lambda: driver_group.is_operational_on("n1"), timeout=15.0)
        driver = driver_group.servant_on("n1")
        assert await system.wait_for(lambda: driver.acked >= 10,
                                     timeout=15.0)
        # Let at least one periodic checkpoint land in the journals.
        await system.run_for(0.5)

        system.kill_node("n3")
        await system.run_for(0.3)
        restored_before = system.tracer.counters.get("store.restored", 0)
        system.restart_node("n3")
        assert await system.wait_for(
            lambda: group.is_operational_on("n3"), timeout=30.0)
        assert (system.tracer.counters.get("store.restored", 0)
                > restored_before), \
            "relaunched node rejoined without restoring from its journal"
        acked = driver.acked
        assert await system.wait_for(lambda: driver.acked > acked,
                                     timeout=10.0)
        assert await system.wait_for(
            lambda: (group.servant_on("n2").value
                     == group.servant_on("n3").value), timeout=10.0)
        return auditor
    finally:
        system.close()


def test_kill_and_recover_with_durable_store(tmp_path):
    import os

    auditor = asyncio.run(_durable_restart_scenario(str(tmp_path)))
    auditor.finish(raise_on_findings=True)
    journals = [
        os.path.join(root, name)
        for root, _dirs, names in os.walk(tmp_path)
        for name in names if name.endswith(".jrnl")
    ]
    assert journals, "no journal segments written under --store-dir"


def test_three_node_ring_kill_and_recover_clean_audit():
    recovery_wall, auditor = asyncio.run(_kill_recover_scenario())
    # Wall-clock budget: generous for CI, tight enough to catch a hang
    # masquerading as recovery via retries.
    assert recovery_wall < 10.0
    # The §5.1 invariants must hold on real time exactly as simulated.
    auditor.finish(raise_on_findings=True)
    assert auditor.records_scanned > 0


async def _token_visits_per_put(acks: int):
    """The deployment ``repro.bench.livebench`` measures — manager node
    n1 hosting one closed-loop driver, a kvstore replicated on n2 and n3 —
    streaming ``put`` only.  Returns Totem counter deltas over ``acks``
    acknowledged invocations, and the auditor."""
    from repro.live.loadgen import LIVE_APPS, ReadMixDriver

    app = LIVE_APPS["kvstore-read"]
    server_nodes = ["n2", "n3"]
    system = LiveSystem(NODES)
    auditor = system.attach_auditor()
    try:
        assert await system.wait_for(system.ring_formed, timeout=15.0)
        system.register_factory(app.type_id, app.make_factory(1_000),
                                nodes=server_nodes)
        group = system.create_group(
            "app", app.type_id,
            FTProperties(initial_replicas=2, min_replicas=1),
            nodes=server_nodes)
        assert await system.wait_for(
            lambda: all(group.is_operational_on(n) for n in server_nodes),
            timeout=15.0)
        iogr = group.iogr().stringify()
        system.register_factory(
            DRIVER_TYPE, lambda: ReadMixDriver(iogr, write_every=1),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", DRIVER_TYPE,
            FTProperties(initial_replicas=1, min_replicas=1), nodes=["n1"])
        assert await system.wait_for(
            lambda: driver_group.is_operational_on("n1"), timeout=15.0)
        driver = driver_group.servant_on("n1")
        assert await system.wait_for(lambda: driver.acked >= 20,
                                     timeout=15.0), "no load flowing"
        names = ("totem.token", "totem.retransmit", "totem.token_timeout")
        before = {name: system.tracer.count(name) for name in names}
        acked0 = driver.acked
        assert await system.wait_for(
            lambda: driver.acked >= acked0 + acks, timeout=60.0)
        delta = {name: system.tracer.count(name) - before[name]
                 for name in names}
        return delta, driver.acked - acked0, auditor
    finally:
        system.close()


def test_ordered_invocation_costs_one_rotation_not_two():
    """A count-based guard that needs no quiet host: request and reply
    each ride the token visit during which they were queued, so one
    closed-loop ``put`` costs one rotation of the three-member ring (3
    token visits; 6 when every frame waits for the *next* visit, as it
    did while the token could overtake its data).  Retransmits and token
    timeouts are 0 on a quiet host; the bound leaves room for a scheduler
    stall on a loaded one, not for a repair per invocation."""
    delta, acked, auditor = asyncio.run(_token_visits_per_put(300))
    assert delta["totem.token"] / acked <= 4.0
    assert delta["totem.retransmit"] <= acked // 100
    assert delta["totem.token_timeout"] <= acked // 100
    auditor.finish(raise_on_findings=True)
