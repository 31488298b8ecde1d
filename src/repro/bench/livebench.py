"""Closed-loop throughput of the live (loopback-UDP) hot path (O-7).

Two arms over identical deployments — three real event-loop nodes, a
replicated kvstore, and a :class:`~repro.live.loadgen.ReadMixDriver`
streaming a read-heavy put/get mix — differing only in
``EternalConfig.read_lease``:

* **total-order** — every invocation rides Totem's token rotation (the
  paper's behaviour);
* **read-lease** — read-only operations divert to the ring leaseholder
  point-to-point (:mod:`repro.core.readfast`); writes stay ordered.

Both arms exercise the batched UDP transport (sendmmsg/recvmmsg, drain
to EAGAIN, per-tick send coalescing) and the zero-copy CDR decode, so
the arm ratio isolates what the lease buys *on top of* the raw-speed
work, and the per-arm ops/s track the transport itself.

Wall-clock throughput is machine-dependent, so the regression record
(``BENCH_live.json``) gates on machine-*independent*, lower-is-better
shapes instead of absolute rates:

* ``order_per_lease`` — total-order ops/s over read-lease ops/s (the
  inverse speedup; ~0.58 with both arms CPU-bound and one rotation per
  ordered invocation, gated < 0.8, i.e. the lease buys at least
  ``registry.LIVE_MIN_SPEEDUP`` = 1.25x — the ratio rises whenever the
  ordered path gets faster);
* ``wakeups_per_datagram`` — socket wakeups over datagrams received in
  a saturation arm running :data:`SATURATION_DRIVERS` concurrent
  drivers (< 0.67 means the drain loop averages > 1.5 datagrams per
  wakeup; one latency-bound driver cannot queue arrivals, so the probe
  needs the concurrency).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

from repro.core.config import EternalConfig
from repro.ftcorba.properties import FTProperties
from repro.live.clock import new_event_loop
from repro.live.loadgen import DRIVER_TYPE, LIVE_APPS
from repro.live.system import LiveSystem

#: Application state carried by the kvstore under test (bytes).
STATE_SIZE = 1_000


async def _run_arm(read_lease: bool, *, duration: float,
                   n_drivers: int = 1,
                   warmup_acks: int = 20) -> Dict[str, Any]:
    """One deployment, one measurement window; returns the arm's stats.

    ``n_drivers`` > 1 deploys that many independent closed-loop drivers
    on the manager node — a saturation workload whose concurrent arrivals
    exercise the drain loop's receive batching (one driver is latency-
    bound: each datagram arrives alone, so batches stay near 1).
    """
    node_ids = ["n1", "n2", "n3"]
    manager, server_nodes = node_ids[0], node_ids[1:]
    app = LIVE_APPS["kvstore-read"]
    system = LiveSystem(
        node_ids, eternal_config=EternalConfig(read_lease=read_lease))
    auditor = system.attach_auditor()
    try:
        if not await system.wait_for(system.ring_formed, timeout=15.0):
            raise RuntimeError("Totem ring did not form within 15 s")
        system.register_factory(app.type_id, app.make_factory(STATE_SIZE),
                                nodes=server_nodes)
        group = system.create_group(
            "app", app.type_id,
            FTProperties(initial_replicas=len(server_nodes),
                         min_replicas=1),
            nodes=server_nodes)
        if not await system.wait_for(
                lambda: all(group.is_operational_on(n)
                            for n in server_nodes), timeout=15.0):
            raise RuntimeError("app group never became operational")
        iogr = group.iogr().stringify()
        system.register_factory(DRIVER_TYPE, app.make_driver(iogr),
                                nodes=[manager])
        driver_groups = [
            system.create_group(
                f"driver{i}" if n_drivers > 1 else "driver", DRIVER_TYPE,
                FTProperties(initial_replicas=1, min_replicas=1),
                nodes=[manager])
            for i in range(n_drivers)]

        def _drivers():
            return [g.servant_on(manager) for g in driver_groups]

        def _warm() -> bool:
            return all(d is not None and d.acked >= warmup_acks
                       for d in _drivers())

        if not await system.wait_for(_warm, timeout=20.0):
            raise RuntimeError("no load flowing within 20 s")

        tracer = system.tracer
        acked0 = sum(d.acked for d in _drivers())
        batches0 = tracer.count("live.sys.recv_batches")
        datagrams0 = tracer.count("live.sys.recv_datagrams")
        t0 = system.now
        await system.run_for(duration)
        window = system.now - t0
        drivers = _drivers()
        acked = sum(d.acked for d in drivers) - acked0
        batches = tracer.count("live.sys.recv_batches") - batches0
        datagrams = tracer.count("live.sys.recv_datagrams") - datagrams0
        stats = {
            "read_lease": read_lease,
            "n_drivers": n_drivers,
            "window_s": window,
            "acked": acked,
            "acked_per_s": acked / window if window > 0 else 0.0,
            "reads_acked": sum(d.reads_acked for d in drivers),
            "writes_acked": sum(d.writes_acked for d in drivers),
            "fast_reads": tracer.count("interceptor.request_fast"),
            "fallbacks": tracer.count("lease.fallback"),
            "recv_batches": batches,
            "recv_datagrams": datagrams,
            "datagrams_per_wakeup": (datagrams / batches
                                     if batches else 0.0),
        }
    finally:
        system.close()
    auditor.finish()
    if not auditor.ok:
        raise RuntimeError(f"consistency audit failed: "
                           f"{auditor.summary()}")
    stats["audit_records"] = auditor.records_scanned
    return stats


#: Concurrent drivers in the saturation arm (the receive-batching probe).
#: Deep enough that reply-completion bursts dominate the per-iteration
#: send coalescing; one latency-bound driver would never queue arrivals.
SATURATION_DRIVERS = 16


def run_arm(read_lease: bool, *, duration: float = 2.0,
            n_drivers: int = 1,
            use_uvloop: bool = False) -> Dict[str, Any]:
    """Run one arm on a fresh event loop (uvloop's when requested)."""
    with asyncio.Runner(loop_factory=lambda: new_event_loop(
            use_uvloop=use_uvloop)) as runner:
        return runner.run(_run_arm(read_lease, duration=duration,
                                   n_drivers=n_drivers))


def run_live_throughput(duration: float = 2.0, *,
                        use_uvloop: bool = False) -> Dict[str, Any]:
    """Both single-driver arms (the speedup pair) plus a saturation arm
    probing receive batching, and the ratio-derived regression points."""
    ordered = run_arm(False, duration=duration, use_uvloop=use_uvloop)
    leased = run_arm(True, duration=duration, use_uvloop=use_uvloop)
    saturated = run_arm(True, duration=duration,
                        n_drivers=SATURATION_DRIVERS,
                        use_uvloop=use_uvloop)
    ratio = (leased["acked_per_s"] / ordered["acked_per_s"]
             if ordered["acked_per_s"] > 0 else float("inf"))
    # Lower-is-better, machine-independent gate points (see module doc).
    points = {
        "order_per_lease": round(1.0 / ratio, 4) if ratio > 0 else 1.0,
        "wakeups_per_datagram": round(
            saturated["recv_batches"] / saturated["recv_datagrams"], 4)
        if saturated["recv_datagrams"] else 1.0,
    }
    return {
        "ordered": ordered,
        "leased": leased,
        "saturated": saturated,
        "speedup": ratio,
        "points": points,
    }
