"""The four live workloads: the paper's section-6 topology on loopback UDP.

Three ``LiveSystem`` nodes in one process on one event-loop thread:
``n1`` hosts the managers and the closed-loop drivers, ``n2``/``n3`` an
actively replicated ``KvStoreServant``.  Default ``LIVE_TOTEM_CONFIG``,
default ``EternalConfig`` except ``read_lease``, strict auditor attached,
no injected delay or loss — latency is processor time plus the stack's
own timers.
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import gc
import hashlib
import itertools
import random
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.kvstore import KvStoreServant, make_kvstore_factory
from repro.core.config import EternalConfig
from repro.ftcorba.properties import FTProperties
from repro.live.clock import new_event_loop
from repro.live.system import LiveSystem

import summary
from driver import DRIVER_TYPE, TimingDriver

MANAGER = "n1"
SERVERS = ("n2", "n3")
VICTIM = "n3"
WARMUP_ACKS = 20

#: Deployments built (and, all but the last, torn down) per run; the
#: reported ``setup_s`` is the median of the faster half of them.
SETUP_REPEATS = 7

#: Length of one slice of a steady window; a fault window's slices are its
#: kill/restart cycles.  The end-to-end metrics are taken over the quiet
#: half of the slices (``summary.quiet_half``).
SLICE_SECONDS = 0.5

#: recover-350k fault schedule.  Each cycle serves SERVE_ACKS acks (plus a
#: seeded offset below SERVE_JITTER_ACKS, which moves the kill to another
#: phase of the token rotation), kills the victim, holds it down DOWNTIME
#: seconds, restarts it, and allows RECOVERY_LIMIT seconds to operational.
#: Counting service in acks rather than seconds keeps the in-service share
#: of every cycle equal however long the ring takes to re-form.
SERVE_ACKS = 110
SERVE_JITTER_ACKS = 20
DOWNTIME = 0.4
RECOVERY_LIMIT = 30.0
FAULT_POLL = 0.0005
SERVE_POLL = 0.002


@dataclasses.dataclass(frozen=True)
class LiveSpec:
    name: str
    drivers: int
    write_every: int        # 1: put only; 16: 15 get to 1 put
    read_lease: bool
    state_size: int
    faults: bool = False


LIVE_WORKLOADS = {spec.name: spec for spec in (
    LiveSpec("ordered-write", drivers=1, write_every=1, read_lease=False,
             state_size=1_000),
    LiveSpec("leased-read", drivers=1, write_every=16, read_lease=True,
             state_size=1_000),
    LiveSpec("saturated-write", drivers=16, write_every=1, read_lease=False,
             state_size=1_000),
    LiveSpec("recover-350k", drivers=1, write_every=1, read_lease=False,
             state_size=350_000, faults=True),
)}


class GateFailure(RuntimeError):
    """The deployment could not be brought up or driven at all."""


def state_digest(servant) -> str:
    """Digest of one replica's application-level state."""
    state = servant.get_state()
    blob = repr((sorted(state["data"].items()), state["payload"],
                 state["echo_count"], state["scribble_count"]))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


class Deployment:
    """One warmed-up live system and the handles the workloads need."""

    def __init__(self, spec: LiveSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.system: Optional[LiveSystem] = None
        self.auditor = None
        self.group = None
        self.driver_groups: List[Any] = []

    async def start(self) -> "Deployment":
        spec = self.spec
        system = self.system = LiveSystem(
            [MANAGER, *SERVERS],
            eternal_config=EternalConfig(read_lease=spec.read_lease))
        self.auditor = system.attach_auditor()
        if not await system.wait_for(system.ring_formed, timeout=15.0):
            raise GateFailure("Totem ring did not form within 15 s")
        servers = list(SERVERS)
        system.register_factory(KvStoreServant.type_id,
                                make_kvstore_factory(spec.state_size),
                                nodes=servers)
        self.group = system.create_group(
            "app", KvStoreServant.type_id,
            FTProperties(initial_replicas=len(servers), min_replicas=1),
            nodes=servers)
        if not await system.wait_for(
                lambda: all(self.group.is_operational_on(n)
                            for n in servers), timeout=15.0):
            raise GateFailure("kvstore group never became operational")
        iogr = self.group.iogr().stringify()
        # Each factory call builds the next driver: its index keys its inputs.
        indices = itertools.count()
        system.register_factory(
            DRIVER_TYPE,
            lambda: TimingDriver(iogr, seed=self.seed, index=next(indices),
                                 write_every=spec.write_every),
            nodes=[MANAGER])
        self.driver_groups = [
            system.create_group(
                f"driver{i}", DRIVER_TYPE,
                FTProperties(initial_replicas=1, min_replicas=1),
                nodes=[MANAGER])
            for i in range(spec.drivers)]
        if not await system.wait_for(
                lambda: all(d is not None and d.acked >= WARMUP_ACKS
                            for d in self.drivers()), timeout=20.0):
            raise GateFailure("no load flowing within 20 s")
        return self

    def drivers(self) -> List[Optional[TimingDriver]]:
        return [g.servant_on(MANAGER) for g in self.driver_groups]

    def servant(self, node: str):
        return self.group.servant_on(node)

    def close(self) -> None:
        if self.system is not None:
            self.system.close()
            self.system = None


async def deploy_repeatedly(spec: LiveSpec, seed: int,
                            repeats: int = SETUP_REPEATS):
    """Build the deployment ``repeats`` times, keep the last; returns it
    with the wall time of each build."""
    times: List[float] = []
    deployment = None
    for _ in range(repeats):
        if deployment is not None:
            deployment.close()
        t0 = time.perf_counter()
        deployment = await Deployment(spec, seed).start()
        times.append(time.perf_counter() - t0)
    return deployment, times


# ----------------------------------------------------------------------
# Measurement windows
# ----------------------------------------------------------------------

class Window:
    """Marks taken at the edges of one measurement window."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment
        gc.collect()
        self.counters0 = dict(deployment.system.tracer.counters)
        self.sent0 = sum(d.sent for d in deployment.drivers())
        self.failed0 = sum(d.failed for d in deployment.drivers())
        self.cpu0 = self.cpu1 = time.process_time()
        self.t0 = self.t1 = time.perf_counter()
        self.counters: Dict[str, int] = {}
        #: ``perf_counter`` at every slice edge, the window's own two
        #: edges included.
        self.marks: List[float] = [self.t0]
        #: ``[start, end]`` intervals with the ring down (fault workloads).
        self.blackouts: List[Tuple[float, float]] = []

    def mark(self) -> None:
        """End one slice and begin the next."""
        self.marks.append(time.perf_counter())

    def close(self) -> None:
        self.mark()
        self.t1 = self.marks[-1]
        self.cpu1 = time.process_time()
        counters = self.deployment.system.tracer.counters
        self.counters = {key: value - self.counters0.get(key, 0)
                         for key, value in counters.items()
                         if value != self.counters0.get(key, 0)}

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def _in_blackout(self, sent: float, acked: float) -> bool:
        return any(sent <= end and acked >= start
                   for start, end in self.blackouts)

    def samples(self) -> Dict[str, List[float]]:
        """Per-invocation samples acked inside the window, in ack order.
        ``service_ack_times`` with its ``latencies`` (seconds), and their
        split into ``write_latencies`` and ``read_latencies``, leave out
        the invocations that waited across a ring blackout; ``ack_times``
        keeps every ack."""
        acks = sorted(
            (t, lat, is_write)
            for d in self.deployment.drivers()
            for t, lat, is_write in zip(d.ack_times, d.latencies, d.is_write)
            if self.t0 <= t < self.t1)
        out: Dict[str, List[float]] = {
            "ack_times": [t for t, _, _ in acks], "service_ack_times": [],
            "latencies": [], "write_latencies": [], "read_latencies": []}
        for t, lat, is_write in acks:
            if self._in_blackout(t - lat, t):
                continue
            out["service_ack_times"].append(t)
            out["latencies"].append(lat)
            out["write_latencies" if is_write
                else "read_latencies"].append(lat)
        return out

    def slices(self, samples: Dict[str, List[float]]) -> List["Slice"]:
        """The window cut at its marks."""
        service = samples["service_ack_times"]
        out = []
        for t0, t1 in zip(self.marks, self.marks[1:]):
            down = sum(max(0.0, min(end, t1) - max(start, t0))
                       for start, end in self.blackouts)
            out.append(Slice(
                service_s=t1 - t0 - down,
                latencies=samples["latencies"][
                    bisect.bisect_left(service, t0):
                    bisect.bisect_left(service, t1)]))
        return out


@dataclasses.dataclass(frozen=True)
class Slice:
    """One slice of a window."""
    service_s: float            # its length less the time the ring was down
    latencies: List[float]      # of the acks that crossed no blackout (s)

    @property
    def service_rate(self) -> float:
        return (len(self.latencies) / self.service_s
                if self.service_s > 0 else 0.0)


async def steady_window(deployment: Deployment, seconds: float) -> Window:
    window = Window(deployment)
    while True:
        remaining = window.t0 + seconds - time.perf_counter()
        if remaining <= SLICE_SECONDS:
            break
        await asyncio.sleep(SLICE_SECONDS)
        window.mark()
    await asyncio.sleep(max(0.0, remaining))
    window.close()
    return window


async def fault_window(deployment: Deployment, seconds: float, seed: int,
                       cycles: List[Dict[str, Any]]) -> Window:
    """Kill, hold down, restart and await recovery of the victim, cycle
    after cycle until ``seconds`` have passed, while the driver keeps
    issuing requests.  A cycle begun inside the window is completed."""
    system, group = deployment.system, deployment.group
    driver = deployment.drivers()[0]
    rng = random.Random(seed)
    window = Window(deployment)

    async def poll_until(predicate, deadline: float,
                         interval: float = FAULT_POLL) -> Optional[float]:
        while True:
            if predicate():
                return time.perf_counter()
            if time.perf_counter() >= deadline:
                return None
            await asyncio.sleep(interval)

    while True:
        if cycles:
            window.mark()
        target = (driver.acked + SERVE_ACKS
                  + rng.randrange(SERVE_JITTER_ACKS))
        await poll_until(lambda: driver.acked >= target,
                         window.t0 + seconds, SERVE_POLL)
        if cycles and time.perf_counter() >= window.t0 + seconds:
            break
        gathers0 = system.tracer.count("totem.gather")
        t_kill = time.perf_counter()
        system.kill_node(VICTIM)
        t_reformed = await poll_until(system.ring_formed, t_kill + DOWNTIME)
        await asyncio.sleep(max(0.0, t_kill + DOWNTIME - time.perf_counter()))
        t_restart = time.perf_counter()
        system.restart_node(VICTIM)
        deadline = t_restart + RECOVERY_LIMIT
        t_rejoined = await poll_until(system.ring_formed, deadline)
        t_operational = (await poll_until(
            lambda: group.is_operational_on(VICTIM), deadline)
            if t_rejoined is not None else None)
        cycles.append({
            "t_kill": t_kill, "t_reformed": t_reformed,
            "t_restart": t_restart, "t_rejoined": t_rejoined,
            "t_operational": t_operational,
            "gathers": system.tracer.count("totem.gather") - gathers0,
        })
        if t_operational is None:
            break
        # The ring is down from the kill until it has re-formed, and again
        # from the restart (the join forces a new ring) until it holds
        # all three members.
        if t_reformed is None:
            window.blackouts.append((t_kill, t_rejoined))
        else:
            window.blackouts += [(t_kill, t_reformed),
                                 (t_restart, t_rejoined)]
    window.close()
    return window


def cycle_samples(cycles: List[Dict[str, Any]],
                  ack_times: List[float]) -> Dict[str, Any]:
    """What the fault cycles looked like from outside the stack (ms)."""
    def ms(values):
        return [v * 1e3 for v in values]

    ack_times = sorted(ack_times)

    def longest_gap(lo: float, hi: float) -> float:
        """Longest inter-ack gap overlapping ``[lo, hi]``."""
        first = max(0, bisect.bisect_right(ack_times, lo) - 1)
        last = min(len(ack_times) - 1, bisect.bisect_left(ack_times, hi))
        return max((b - a for a, b in zip(ack_times[first:last],
                                          ack_times[first + 1:last + 1])),
                   default=0.0)

    done = [c for c in cycles if c["t_operational"] is not None]
    return {
        "cycles": len(cycles),
        "recovered": len(done),
        "blackout_ms": ms(longest_gap(c["t_kill"], c["t_restart"])
                          for c in cycles),
        "state_sync_ms": ms(c["t_operational"] - c["t_rejoined"]
                            for c in done),
        "recovery_ms": ms(c["t_operational"] - c["t_restart"] for c in done),
        "rejoin_ms": ms(c["t_rejoined"] - c["t_restart"] for c in done),
        "reform_ms": ms(c["t_reformed"] - c["t_kill"] for c in cycles
                        if c["t_reformed"] is not None),
        "gathers": [c["gathers"] for c in cycles],
        "marks": cycles,
    }


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

async def quiesce(deployment: Deployment, timeout: float = 5.0) -> bool:
    """Stop the drivers and wait for every invocation in flight."""
    drivers = deployment.drivers()
    for d in drivers:
        d.stop()
    return await deployment.system.wait_for(
        lambda: all(d.acked + d.failed >= d.sent for d in drivers),
        timeout=timeout, poll_interval=0.002)


async def check_replicas(deployment: Deployment,
                         timeout: float = 5.0) -> List[str]:
    """Replica digests equal and every acked put present in both."""
    problems: List[str] = []

    def digests() -> List[str]:
        return [state_digest(deployment.servant(n)) for n in SERVERS]

    # The reply that released the driver came from the faster replica;
    # the other may still be executing the same (suppressed-reply) request.
    if not await deployment.system.wait_for(
            lambda: len(set(digests())) == 1,
            timeout=timeout, poll_interval=0.01):
        problems.append(f"replica state digests differ: {digests()}")
    for d in deployment.drivers():
        for node in SERVERS:
            data = deployment.servant(node).data
            missing = [key for key, value in d.model.items()
                       if data.get(key) != value
                       and (key, data.get(key)) != d.pending_put]
            if missing:
                problems.append(f"acked puts {missing} of driver {d.index} "
                                f"missing on {node}")
    return problems


def finish_gate(deployment: Deployment, window: Window, drained: bool,
                cycles: List[Dict[str, Any]],
                problems: List[str]) -> Dict[str, Any]:
    """Close the deployment, finish the audit, and count the outcome."""
    drivers = deployment.drivers()
    sent = sum(d.sent for d in drivers)
    acked = sum(d.acked for d in drivers)
    if not drained:
        problems.append(f"{sent - acked} invocation(s) never answered")
    if not acked <= sent <= acked + len(drivers):
        problems.append(f"closed loop violated: sent={sent} acked={acked}")
    unrecovered = sum(1 for c in cycles if c["t_operational"] is None)
    if unrecovered:
        problems.append(f"{unrecovered} cycle(s) not operational within "
                        f"{RECOVERY_LIMIT:.0f} s")
    attempted = sent - window.sent0
    failed = sum(d.failed for d in drivers) - window.failed0
    auditor = deployment.auditor
    deployment.close()
    auditor.finish()
    if not auditor.ok:
        problems.append(f"consistency audit: {auditor.summary()}")
    return {"correct": not problems, "problems": problems,
            "attempted": attempted,
            "failed": attempted if problems else failed,
            "audit_records": auditor.records_scanned}


def end_to_end(samples: Dict[str, List[float]], window: Window,
               faults: bool) -> Dict[str, Any]:
    """The three measured end-to-end metrics of one live window, taken
    over the quiet half of its slices."""
    slices = window.slices(samples)
    if faults and len(slices) > 1:
        # What follows the last whole cycle holds service and no recovery.
        slices = slices[:-1]
    kept = summary.quiet_half(slices, lambda s: s.service_rate)
    latencies_ms = [lat * 1e3 for s in kept for lat in s.latencies]
    if len(latencies_ms) < 2:
        raise GateFailure("fewer than two invocations acked in the window")
    tail_ms, tail_pct = summary.tail(latencies_ms)
    return {
        "ops_per_s": len(latencies_ms) / sum(s.service_s for s in kept),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p99_ms": tail_ms,
        "tail_percentile": tail_pct,
        "acked": len(samples["ack_times"]),
        "timed": len(latencies_ms),
        "slices": len(slices),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

async def _run(spec: LiveSpec, seed: int, seconds: float, window_hook,
               setup_repeats: int) -> Dict[str, Any]:
    deployment, setup_times = await deploy_repeatedly(spec, seed,
                                                      setup_repeats)
    cycles: List[Dict[str, Any]] = []
    try:
        if window_hook is not None:
            window_hook("start", deployment)
        if spec.faults:
            window = await fault_window(deployment, seconds, seed, cycles)
        else:
            window = await steady_window(deployment, seconds)
        if window_hook is not None:
            window_hook("end", deployment)
        drained = await quiesce(deployment)
        problems = await check_replicas(deployment)
    except BaseException:
        deployment.close()
        raise
    samples = window.samples()
    gate = finish_gate(deployment, window, drained, cycles, problems)
    result: Dict[str, Any] = {
        "setup_times_s": setup_times,
        "window_s": window.seconds,
        "cpu_s": window.cpu1 - window.cpu0,
        "e2e": end_to_end(samples, window, spec.faults),
        "samples": samples,
        "counters": window.counters,
        "gate": gate,
    }
    if spec.faults:
        result["cycles"] = cycle_samples(cycles, samples["ack_times"])
    return result


def run_live(spec: LiveSpec, seed: int, seconds: float, window_hook=None,
             *, setup_repeats: int = SETUP_REPEATS,
             faults: Optional[bool] = None) -> Dict[str, Any]:
    """Run one live workload on a fresh event loop.  ``window_hook(edge,
    deployment)`` is called at the ``"start"`` and ``"end"`` of the window;
    ``faults=False`` runs a fault workload's deployment without its faults."""
    if faults is not None:
        spec = dataclasses.replace(spec, faults=faults)
    with asyncio.Runner(loop_factory=new_event_loop) as runner:
        result = runner.run(_run(spec, seed, seconds, window_hook,
                                 setup_repeats))
        result["event_loop"] = type(runner.get_loop()).__qualname__
        return result
