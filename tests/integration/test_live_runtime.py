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
import collections
import contextlib
import dataclasses

import pytest

from repro.apps.counter import CounterServant
from repro.apps.packet_driver import ClosedLoopDriver, ReadMixDriver
from repro.ftcorba.properties import FTProperties
from repro.live.loadgen import LIVE_APPS, deploy
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
            ClosedLoopDriver.type_id,
            lambda: ClosedLoopDriver(iogr, "increment"),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", ClosedLoopDriver.type_id,
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
            ClosedLoopDriver.type_id,
            lambda: ClosedLoopDriver(iogr, "increment"),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", ClosedLoopDriver.type_id,
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
        loads, restored = set(), []

        def note(record):
            # n3's journal load ends without ``outcome="corrupt"``.
            fields = record.fields
            if (record.event == "span_start" and fields.get("node") == "n3"
                    and fields.get("name") == "recovery.store.load"):
                loads.add(fields["span"])
            elif (record.event == "span_end" and fields.get("span") in loads
                    and "outcome" not in fields):
                restored.append(record)
        system.tracer.subscribe(note)
        system.restart_node("n3")
        assert await system.wait_for(
            lambda: group.is_operational_on("n3"), timeout=30.0)
        assert restored, \
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


@contextlib.asynccontextmanager
async def _put_deployment(make_driver):
    """The deployment ``repro.bench.livebench`` measures — manager node
    n1 hosting one driver, a kvstore replicated on n2 and n3 — with load
    flowing.  Yields the system (closed on exit), the driver servant
    ``make_driver(iogr)`` built, and the auditor."""
    app = dataclasses.replace(LIVE_APPS["kvstore-read"],
                              make_driver=make_driver)
    system = LiveSystem(NODES)
    system.hold_cancels = collections.Counter()

    def count_hold_cancel(record):
        if record.category == "totem" and record.event == "hold_cancel":
            system.hold_cancels[record.fields["role"]] += 1

    system.tracer.subscribe(count_hold_cancel)
    try:
        auditor = system.attach_auditor()
        assert await system.wait_for(system.ring_formed, timeout=15.0)
        _, (driver,) = await deploy(system, app, NODES, state_size=1_000)
        yield system, driver, auditor
    finally:
        system.close()


def _ring_counts(system):
    """Totem's repair counters, token visits, and hold cancels by role
    (counted off the ``totem.hold_cancel`` records)."""
    counts = {name: system.tracer.count(f"totem.{name}")
              for name in ("token", "retransmit", "token_timeout")}
    for role in ("sent", "released", "noted"):
        counts[role] = system.hold_cancels[role]
    return counts


def _since(system, before):
    return {name: value - before[name]
            for name, value in _ring_counts(system).items()}


async def _token_visits_per_put(acks: int):
    """Stream ``put`` only, closed loop.  Returns Totem counter deltas
    over ``acks`` acknowledged invocations, and the auditor."""
    async with _put_deployment(
            lambda iogr: ReadMixDriver(iogr, write_every=1)
    ) as (system, driver, auditor):
        before = _ring_counts(system)
        acked0 = driver.acked
        assert await system.wait_for(
            lambda: driver.acked >= acked0 + acks, timeout=60.0)
        return _since(system, before), driver.acked - acked0, auditor


async def _visits_per_spaced_put(puts: int, gap: float):
    """``puts`` invocations, each issued ``gap`` seconds or a little more
    after the previous one was acknowledged — long enough for the ring to
    go quiet and park the token, and stepped so that the puts find it at
    different members.  Returns the counter deltas, the token visits
    between each put's ``multicast`` at n1 and n1's own delivery of it,
    and the auditor."""
    class SteppedDriver(ReadMixDriver):
        """Closed loop until ``stepped``; then one put per ``step()``."""

        stepped = False

        def _send_next(self) -> None:
            if not self.stepped:
                super()._send_next()

        def step(self) -> None:
            super()._send_next()

    async with _put_deployment(
            lambda iogr: SteppedDriver(iogr, write_every=1)
    ) as (system, driver, auditor):
        driver.stepped = True
        assert await system.wait_for(lambda: driver.acked == driver.sent)
        member = system.stack("n1").totem
        deliver, issued_at, visits = member.on_deliver, [], []

        def on_deliver(origin, payload):
            if origin == "n1" and issued_at:
                visits.append(system.tracer.count("totem.token")
                              - issued_at.pop())
            deliver(origin, payload)

        member.on_deliver = on_deliver
        before = _ring_counts(system)
        for index in range(puts):
            await system.run_for(gap * (1 + index % 7 / 10))
            issued_at.append(system.tracer.count("totem.token"))
            driver.step()
            assert await system.wait_for(
                lambda: driver.acked == driver.sent, poll_interval=0.0005)
        return _since(system, before), visits, auditor


def test_ordered_invocation_costs_one_rotation_not_two():
    """A count-based guard that needs no quiet host: request and reply
    each ride the token visit during which they were queued, so one
    closed-loop ``put`` costs one rotation of the three-member ring (3
    token visits; 6 when every frame waits for the *next* visit, as it
    did while the token could overtake its data).  Retransmits and token
    timeouts are 0 on a quiet host; the bound leaves room for a scheduler
    stall on a loaded one, not for a repair per invocation."""
    delta, acked, auditor = asyncio.run(_token_visits_per_put(300))
    assert delta["token"] / acked <= 4.0
    assert delta["retransmit"] <= acked // 100
    assert delta["token_timeout"] <= acked // 100
    # Steady traffic never parks the token, so nobody has to wake it.
    assert delta["sent"] <= 3
    auditor.finish(raise_on_findings=True)


def test_write_after_a_quiet_spell_wakes_the_parked_token():
    """The count-based guard of the hold cancel: each put issued onto a
    ring that has gone quiet sends one ``HoldCancel`` (none when n1
    itself is parked on the token: it releases its own), a parked token
    is released for most of them (the rest find it in flight), and the
    put is sequenced by the token's first arrival at n1, not by a later
    rotation."""
    puts = 60
    delta, visits, auditor = asyncio.run(_visits_per_spaced_put(puts, 0.005))
    assert 0.5 * puts <= delta["sent"] <= 1.5 * puts
    assert puts // 4 <= delta["released"] <= 1.5 * puts
    assert len(visits) == puts and max(visits) <= 4
    assert delta["retransmit"] <= puts // 100
    assert delta["token_timeout"] <= puts // 100
    auditor.finish(raise_on_findings=True)
