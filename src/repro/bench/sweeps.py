"""The sweep points: one ``run_*_point`` per measured experiment.

The CLI rows of :mod:`repro.bench.registry` and the pytest benchmarks
drive the same point functions, so the recorded regression baselines and
the asserted benchmark claims measure identical workloads.

* :func:`run_fig6_point` — the paper's Figure 6 experiment: kill and
  re-launch one of two active replicas at a given state size.
* :func:`run_styles_point` — client-visible disruption when the serving
  replica of one replication style is killed (§6).
* :func:`run_checkpoint_point` — warm-passive deployment under a
  scribbling (10 %-dirty) packet-driver workload; the cost metric is the
  median ``recovery.xfer`` span, which in a fault-free passive run times
  exactly the checkpoint's StateSet wire transfer.
* :func:`run_throughput_point` — the open-loop offered-load probe from
  the saturation extension, parameterized on Totem frame packing.
* :func:`run_recovery_scale_point` — the fig-6 kill/re-launch experiment
  at large state sizes, parameterized on the out-of-band bulk lane, with
  the client's request throughput sampled around the recovery window.
* :func:`run_obs_overhead_point` — wall-clock cost of the telemetry plane
  on a fault-free throughput workload (telemetry on vs. off).
* :func:`run_prof_overhead_point` — the same in-situ discipline applied
  to the span-resource profiler (:mod:`repro.obs.profiling`): proves the
  disabled profiler costs exactly nothing and gates the enabled one.

Overhead measurement is one audited code path:
:class:`repro.obs.profiling.InSituProbe` patches the measured plane's
entry points to accumulate their own wall-clock share inside the run
(see :func:`run_obs_overhead_point` for why on/off A-B deltas fail).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.deployments import build_client_server, measure_recovery
from repro.bench.workloads import make_open_loop_factory, uniform_schedule
from repro.core.config import EternalConfig
from repro.ftcorba.properties import FTProperties, ReplicationStyle
from repro.obs.profiling import InSituProbe, ProfileSession
from repro.totem.config import TotemConfig

#: Near-zero simulated ``echo`` cost: with the default 50 µs/op servant
#: cost the saturation knee is server CPU, which hides the send path; a
#: 1 µs echo makes the sweep wire-bound, where frame packing is visible.
WIRE_BOUND_ECHO = 1e-6

OPEN_LOOP_TYPE = "IDL:repro/OpenLoopDriver:1.0"


# ---------------------------------------------------------------------------
# Figure 6 and the replication-style comparison
# ---------------------------------------------------------------------------

def run_fig6_point(state_size: int, *, bulk: bool = True,
                   profile: Optional[ProfileSession] = None
                   ) -> Dict[str, Any]:
    """Kill and re-launch one of two active replicas at ``state_size``.

    Returns the recovery time (simulated milliseconds) and the run's
    metrics registry, whose ``span.recovery.*`` histograms give the
    per-phase breakdown.  ``bulk=False`` is the paper's purely in-order
    state transfer.  Raises ``TimeoutError`` if recovery never completes.
    """
    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=state_size,
        eternal_config=EternalConfig(bulk_lane=bulk),
        profiling=profile.config if profile else None,
        warmup=0.2,
    )
    if profile is not None:
        profile.attach(deployment.system)
    return {
        "recovery_ms": measure_recovery(deployment, "s2") * 1000.0,
        "metrics": deployment.system.metrics,
    }


def run_styles_point(style: ReplicationStyle) -> Dict[str, float]:
    """Kill the serving replica of a 2-way ``style`` group under load and
    time until the client has 20 more replies (simulated milliseconds)."""
    deployment = build_client_server(style=style, server_replicas=2,
                                     state_size=20_000,
                                     checkpoint_interval=0.2,
                                     warmup=0.2)
    system = deployment.system
    driver = deployment.driver
    system.run_for(0.5)
    victim = (deployment.server_group.primary_node()
              if style.is_passive else "s1")
    acked = driver.acked
    kill_time = system.now
    system.kill_node(victim)
    if not system.wait_for(lambda: driver.acked > acked + 20, timeout=5.0):
        raise RuntimeError(
            f"{style.value} never resumed service after the fault "
            f"(driver stuck at {driver.acked} acks)")
    return {"disruption_ms": (system.now - kill_time) * 1000.0}


# ---------------------------------------------------------------------------
# Checkpoint-transfer cost under a dirtying workload
# ---------------------------------------------------------------------------

def run_checkpoint_point(state_size: int, *,
                         delta: bool = True,
                         checkpoint_interval: float = 0.25,
                         duration: float = 3.0,
                         scribble_every: int = 600,
                         scribble_fraction: float = 0.1,
                         seed: int = 0) -> Dict[str, float]:
    """Measure the per-checkpoint state-transfer cost at one state size.

    Deploys the paper's topology with a warm-passive server whose
    packet-driver client mixes one ``scribble(0.1)`` into every
    ``scribble_every`` echoes, dirtying a rotating ~10 % window of the
    bulk state between checkpoints.  Returns the median/p95 of the
    ``recovery.xfer`` span (milliseconds) over the run's checkpoints plus
    the delta wire economics.
    """
    config = EternalConfig(delta_state_transfer=delta)
    deployment = build_client_server(
        style=ReplicationStyle.WARM_PASSIVE,
        server_replicas=2,
        state_size=state_size,
        checkpoint_interval=checkpoint_interval,
        eternal_config=config,
        seed=seed,
        warmup=0.2,
        scribble_every=scribble_every,
        scribble_fraction=scribble_fraction,
    )
    system = deployment.system
    system.run_for(duration)
    xfer = None
    for _name, labels, metric in system.metrics.find("span.recovery.xfer"):
        if labels.get("group") != "store":
            continue
        if xfer is None:
            xfer = metric.spawn_empty()
        xfer.merge(metric)
    if xfer is None or xfer.count == 0:
        raise RuntimeError(
            f"no checkpoint transfers observed at state_size={state_size} "
            f"(interval={checkpoint_interval}, duration={duration})"
        )

    def counter_total(name: str) -> float:
        return sum(metric.value
                   for _n, labels, metric in system.metrics.find(name)
                   if labels.get("group", "store") == "store")

    return {
        "state_size": state_size,
        "checkpoints": xfer.count,
        "median_ms": xfer.p50 * 1000.0,
        "p95_ms": xfer.p95 * 1000.0,
        "mean_ms": xfer.mean * 1000.0,
        "scribbles": float(deployment.driver.scribbles_acked),
        "delta_transfers": counter_total("delta.transfers_delta"),
        "wire_bytes": counter_total("delta.wire_bytes"),
        "full_bytes": counter_total("delta.full_bytes"),
    }


# ---------------------------------------------------------------------------
# Open-loop throughput (parameterized on Totem frame packing)
# ---------------------------------------------------------------------------

def _deploy_open_loop(rate: int, window: float, **deployment):
    """The 2-way active store with an open-loop driver on its one client
    node (``c1``, beside the deployment's own closed-loop driver) issuing
    ``rate`` invocations/s for ``window`` seconds from time 0.  Returns
    the system and the open-loop driver's group handle."""
    built = build_client_server(style=ReplicationStyle.ACTIVE,
                                server_replicas=2, client_replicas=1,
                                warmup=0.05, **deployment)
    system = built.system
    iogr = built.server_group.iogr().stringify()
    system.register_factory(
        OPEN_LOOP_TYPE,
        make_open_loop_factory(iogr, uniform_schedule(rate, window)),
        nodes=["c1"])
    return system, system.create_group(
        "openloop", OPEN_LOOP_TYPE,
        FTProperties(initial_replicas=1, min_replicas=1), nodes=["c1"])


def run_throughput_point(rate: int, *,
                         frame_packing: Optional[bool] = None,
                         window: float = 1.0,
                         drain: float = 0.3,
                         state_size: int = 100,
                         echo_duration: Optional[float] = None,
                         profile: Optional[ProfileSession] = None,
                         seed: int = 0) -> Dict[str, float]:
    """Drive the 2-way active group open-loop at ``rate`` invocations/s.

    ``frame_packing=None`` keeps the Totem default; ``True``/``False``
    force the token-rotation frame-packing optimization on or off.
    ``echo_duration`` overrides the servant's simulated per-``echo`` cost
    (pass :data:`WIRE_BOUND_ECHO` to saturate the medium instead of the
    server CPU).  ``profile`` attributes the run's host CPU/allocations
    to protocol phases (``--profile`` on the CLI).  Returns
    offered/achieved throughput and latency statistics.
    """
    system, group = _deploy_open_loop(
        rate, window, state_size=state_size, seed=seed,
        echo_duration=echo_duration,
        totem_config=(None if frame_packing is None
                      else TotemConfig(frame_packing=frame_packing)),
        profiling=profile.config if profile else None)
    if profile is not None:
        profile.attach(system)
    system.run_for(window + drain)   # schedule window plus a short drain
    driver = group.servant_on("c1")
    return {
        "offered": float(rate),
        "sent": float(driver.sent),
        "achieved": driver.completed / window,
        "mean_ms": driver.mean_latency * 1000.0,
        "p99_ms": driver.p99_latency * 1000.0,
    }


# ---------------------------------------------------------------------------
# Recovery at scale (parameterized on the out-of-band bulk lane)
# ---------------------------------------------------------------------------

def run_recovery_scale_point(state_size: int, *,
                             bulk: bool = True,
                             server_replicas: int = 3,
                             downtime: float = 0.05,
                             window: float = 0.2,
                             profile: Optional[ProfileSession] = None,
                             seed: int = 0) -> Dict[str, float]:
    """Kill/re-launch one active replica at ``state_size`` and time it.

    ``bulk=False`` is the ablation: the paper's in-order fragmented
    set_state multicast.  Besides the fig-6 recovery time, the packet
    driver's acked-invocation rate is sampled over a fixed ``window``
    before the kill and again from the re-launch, so the sweep also
    quantifies how much a concurrent large-state transfer disturbs
    fault-free request traffic (the in-order transfer hogs the total
    order; the bulk lane leaves it to the manifest).
    """
    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=server_replicas,
        state_size=state_size,
        eternal_config=EternalConfig(bulk_lane=bulk),
        profiling=profile.config if profile else None,
        seed=seed,
        warmup=0.2,
    )
    system = deployment.system
    if profile is not None:
        profile.attach(system)
    driver = deployment.driver

    before = driver.acked
    system.run_for(window)
    baseline_per_s = (driver.acked - before) / window

    system.kill_node("s1")
    system.run_for(downtime)
    at_restart = driver.acked
    restart_at = system.now
    system.restart_node("s1")
    if not system.wait_for(
            lambda: deployment.server_group.is_operational_on("s1"),
            timeout=10.0):
        raise RuntimeError(
            f"recovery did not complete at state_size={state_size} "
            f"(bulk={bulk})")
    recovery_s = system.now - restart_at
    # acked rate over the same fixed window, starting at the re-launch:
    # the whole state transfer sits inside it, so any total-order
    # disruption it causes shows up as a dip vs the fault-free baseline
    system.run_until(restart_at + window)
    during_per_s = (driver.acked - at_restart) / window

    counters = system.tracer.counters
    return {
        "state_size": state_size,
        "recovery_ms": recovery_s * 1000.0,
        "baseline_per_s": baseline_per_s,
        "during_per_s": during_per_s,
        "during_ratio": (during_per_s / baseline_per_s
                         if baseline_per_s else 0.0),
        "oob_bytes": float(counters.get("bulk.oob.bytes", 0)),
        "inorder_bytes": float(counters.get("bulk.inorder.bytes", 0)),
        "bulk_sessions": float(counters.get("bulk.session_complete", 0)),
    }


# ---------------------------------------------------------------------------
# Cold restart: the durable-store rung of the recovery ladder
# ---------------------------------------------------------------------------

#: State sizes for the cold-restart sweep; 350 kB is the acceptance point.
COLD_RESTART_SIZES = [64_000, 350_000]
COLD_RESTART_SIZES_QUICK = [350_000]


def _wire_bytes(system) -> float:
    """Total state bytes moved for recovery, both lanes (the in-order
    set_state payloads plus the out-of-band bulk pages)."""
    counters = system.tracer.counters
    return (float(counters.get("bulk.inorder.bytes", 0))
            + float(counters.get("bulk.oob.bytes", 0)))


def _restart_and_measure(deployment, node: str, *,
                         downtime: float) -> Tuple[float, float]:
    """Kill/re-launch one server replica; returns ``(recovery_seconds,
    state_wire_bytes)`` where the byte count is the delta over exactly the
    recovery window (kill → operational), so warm-up traffic and
    checkpoints taken before the fault don't pollute it."""
    system = deployment.system
    system.kill_node(node)
    system.run_for(downtime)
    bytes_before = _wire_bytes(system)
    restart_at = system.now
    system.restart_node(node)
    if not system.wait_for(
            lambda: deployment.server_group.is_operational_on(node),
            timeout=10.0):
        raise RuntimeError(f"replica on {node} did not recover")
    return system.now - restart_at, _wire_bytes(system) - bytes_before


def run_cold_restart_point(state_size: int, *,
                           checkpoint_interval: float = 5.0,
                           downtime: float = 0.05,
                           seed: int = 0) -> Dict[str, float]:
    """Measure what a durable journal saves on restart at one state size.

    Three arms, all on the paper's topology with three active server
    replicas and a closed-loop driver:

    * **warm**: every node keeps a durable store
      (:class:`~repro.store.memory.MemoryStore` — same journal codec as
      the disk backend, deterministic under the simulator).  One
      checkpoint is forced before the fault, then one replica is
      killed and re-launched; it restores checkpoint + log from its
      journal and fetches only the digest-negotiated tail from live
      peers.
    * **no-store**: the identical kill/re-launch without a store — the
      whole state crosses the wire (the pre-store behaviour).
    * **cold boot**: with stores, *all three* replicas are killed and
      re-launched; nobody is left to recover from, so the group seeds
      itself from the best journal (cold-boot election) and replays.

    The checkpoint interval is long (and the one checkpoint forced
    explicitly) so no periodic checkpoint transfer lands inside a
    measurement window.  The gated claim: ``wire_ratio =
    no-store / warm state bytes >= 10`` at 350 kB.
    """
    from repro.store.memory import MemoryStore

    def build(with_store: bool):
        return build_client_server(
            style=ReplicationStyle.ACTIVE,
            server_replicas=3,
            state_size=state_size,
            checkpoint_interval=checkpoint_interval,
            store_factory=(lambda node_id: MemoryStore())
                          if with_store else None,
            seed=seed,
            warmup=0.2,
        )

    # -- warm arm: journal-backed single-replica restart -------------------
    deployment = build(True)
    system = deployment.system
    # Force the durable checkpoint the restart will restore from.
    system.mechanisms("s1").recovery.initiate_checkpoint("store")
    system.run_for(0.2)
    warm_s, warm_bytes = _restart_and_measure(deployment, "s2",
                                              downtime=downtime)

    # -- cold-boot arm: the same system loses every replica ----------------
    acked_before = deployment.driver.acked
    for node in deployment.server_nodes:
        system.kill_node(node)
    system.run_for(downtime)
    restart_at = system.now
    for node in deployment.server_nodes:
        system.restart_node(node)
    if not system.wait_for(
            lambda: all(deployment.server_group.is_operational_on(n)
                        for n in deployment.server_nodes),
            timeout=20.0):
        raise RuntimeError("full-cluster cold boot did not recover "
                           f"at state_size={state_size}")
    cold_s = system.now - restart_at
    if not system.wait_for(
            lambda: deployment.driver.acked > acked_before, timeout=10.0):
        raise RuntimeError("driver never resumed after the cold boot")
    cold_seeds = float(system.tracer.counters.get("store.cold_seed_claimed",
                                                  0))

    # -- no-store arm: the ablation ----------------------------------------
    ablation = build(False)
    nostore_s, nostore_bytes = _restart_and_measure(ablation, "s2",
                                                    downtime=downtime)

    return {
        "state_size": state_size,
        "warm_recovery_ms": warm_s * 1000.0,
        "warm_wire_bytes": warm_bytes,
        "nostore_recovery_ms": nostore_s * 1000.0,
        "nostore_wire_bytes": nostore_bytes,
        "wire_ratio": (nostore_bytes / warm_bytes if warm_bytes
                       else float("inf")),
        "cold_recovery_ms": cold_s * 1000.0,
        "cold_seeds": cold_seeds,
    }


# ---------------------------------------------------------------------------
# Telemetry-plane overhead (wall clock)
# ---------------------------------------------------------------------------

def _obs_workload_wall_clock(rate: int, *, telemetry=None, profiling=None,
                             window: float, drain: float, state_size: int,
                             seed: int) -> float:
    """Wall-clock seconds to simulate one fault-free open-loop throughput
    run with the given telemetry/profiling configs (the simulated workload
    is identical either way — only the host CPU cost differs)."""
    system, _group = _deploy_open_loop(
        rate, window, state_size=state_size, seed=seed,
        echo_duration=WIRE_BOUND_ECHO, telemetry=telemetry,
        profiling=profiling)
    start = time.perf_counter()
    system.run_for(window + drain)
    return time.perf_counter() - start


def _obs_instrumented_wall_clock(rate: int, *, sample_interval: float,
                                 window: float, drain: float,
                                 state_size: int, seed: int
                                 ) -> Tuple[float, float]:
    """One telemetry-ON run with the plane's two entry points wrapped to
    accumulate their own wall-clock cost in situ.

    Returns ``(run_seconds, plane_seconds)`` where ``plane_seconds`` is
    the time spent inside :meth:`FlightRecorder._admit` (per-record ring
    admission, including the amortized batch trims that destroy
    long-retained records) and :meth:`TelemetryPlane.sample_now` (the
    periodic poll-and-snapshot), accumulated by an
    :class:`~repro.obs.profiling.InSituProbe` — installed before the
    system is built (subscription captures bound methods) and restored
    after.  See the probe's docstring for the over-counting direction.
    """
    from repro.obs.telemetry import (FlightRecorder, TelemetryConfig,
                                     TelemetryPlane)

    with InSituProbe() as probe:
        probe.patch(FlightRecorder, "_admit")
        probe.patch(TelemetryPlane, "sample_now")
        run_s = _obs_workload_wall_clock(
            rate,
            telemetry=TelemetryConfig(enabled=True,
                                      sample_interval=sample_interval),
            window=window, drain=drain, state_size=state_size, seed=seed)
    return run_s, probe.seconds


def run_obs_overhead_point(rate: int, *,
                           repeats: int = 3,
                           window: float = 0.5,
                           drain: float = 0.2,
                           state_size: int = 100,
                           sample_interval: float = 0.05,
                           seed: int = 0) -> Dict[str, float]:
    """Measure the telemetry plane's cost at one offered load.

    The gated metric is the plane's **in-situ share** of a fault-free
    throughput run: telemetry-ON runs execute with the plane's entry
    points instrumented, and ``overhead_ratio = run / (run - plane)`` —
    what the run would have cost without the time provably spent in the
    plane.  A plain ON-vs-OFF wall-clock comparison is the obvious
    estimator and it does not work on shared hardware: interference
    bursts of 10 %+ lasting seconds swamp a percent-level effect, and
    min-of-N interleaved arms still produced swings from -10 % to +15 %
    for a *no-op* plane on an idle-looking box.  The in-situ share puts
    numerator and denominator inside the same run, so interference
    cancels to first order and repeated measurements agree to ~0.1 %.
    It also over-counts slightly (the instrumentation's clock reads are
    charged to the plane) — the right direction for a budget gate.

    ``on_s``/``off_s`` (min over ``repeats``, interleaved) are reported
    for context but deliberately not gated.  The simulated clock is
    useless here because the sampler consumes zero simulated time.
    """
    from repro.obs.telemetry import TelemetryConfig

    off = TelemetryConfig(enabled=False)
    ratios: List[float] = []
    on_times: List[float] = []
    off_times: List[float] = []
    for _ in range(repeats):
        off_times.append(_obs_workload_wall_clock(
            rate, telemetry=off, window=window, drain=drain,
            state_size=state_size, seed=seed))
        run_s, plane_s = _obs_instrumented_wall_clock(
            rate, sample_interval=sample_interval, window=window,
            drain=drain, state_size=state_size, seed=seed)
        on_times.append(run_s)
        ratios.append(run_s / (run_s - plane_s))
    return {
        "offered": float(rate),
        "on_s": min(on_times),
        "off_s": min(off_times),
        "overhead_ratio": min(ratios),
    }


# ---------------------------------------------------------------------------
# Profiler overhead (wall clock)
# ---------------------------------------------------------------------------

def run_prof_overhead_point(rate: int, *,
                            repeats: int = 3,
                            window: float = 0.5,
                            drain: float = 0.2,
                            state_size: int = 100,
                            sample_interval: float = 0.005,
                            seed: int = 0) -> Dict[str, float]:
    """Measure the span-resource profiler's cost at one offered load.

    Same in-situ discipline as :func:`run_obs_overhead_point` (see there
    for why on/off wall A-B fails on shared hardware), applied to the
    profiler's two entry points:

    * **off**: the workload runs with ``ProfilingConfig(enabled=False)``
      while both :meth:`SpanResourceProfiler.observe_record` and
      :meth:`~SpanResourceProfiler.observe_span` are probed.  A disabled
      profiler never subscribes to the tracer, so the probes accumulate
      **exactly zero** and the ratio is exactly 1.0 — the "off = zero
      cost" half of the gate is structural, not statistical.
    * **on**: the workload runs with the profiler enabled and a live
      stack sampler; the probe wraps ``observe_span`` (the per-span
      CPU/alloc bookkeeping) and :meth:`StackSampler.sample_once` (the
      periodic stack walk), and ``overhead_ratio = run / (run - plane)``.
      ``observe_record`` — one category compare per trace record — is
      deliberately left unprobed in the ON arm: wrapping it would charge
      the probe's own clock reads to every non-span record, measuring
      the instrumentation instead of the profiler (observed 5x the real
      cost).  The dispatch itself is one attribute compare and is
      covered by the off arm's structural-zero check.

    Probes patch classes before the system is built (subscription
    captures bound methods).  The min over ``repeats`` is gated.
    """
    from repro.obs.profiling import (ProfilingConfig, SpanResourceProfiler,
                                     StackSampler)

    off_ratios: List[float] = []
    on_ratios: List[float] = []
    on_times: List[float] = []
    off_times: List[float] = []
    for _ in range(repeats):
        with InSituProbe() as probe:
            probe.patch(SpanResourceProfiler, "observe_record")
            probe.patch(SpanResourceProfiler, "observe_span")
            off_s = _obs_workload_wall_clock(
                rate, profiling=ProfilingConfig(enabled=False),
                window=window, drain=drain, state_size=state_size, seed=seed)
        off_times.append(off_s)
        off_ratios.append(probe.overhead_ratio(off_s))

        with InSituProbe() as probe:
            probe.patch(SpanResourceProfiler, "observe_span")
            probe.patch(StackSampler, "sample_once")
            sampler = StackSampler(interval=sample_interval)
            sampler.start()
            try:
                on_s = _obs_workload_wall_clock(
                    rate, profiling=ProfilingConfig(enabled=True),
                    window=window, drain=drain, state_size=state_size,
                    seed=seed)
            finally:
                sampler.stop()
        on_times.append(on_s)
        on_ratios.append(probe.overhead_ratio(on_s))
    return {
        "offered": float(rate),
        "on_s": min(on_times),
        "off_s": min(off_times),
        "off_ratio": min(off_ratios),
        "overhead_ratio": min(on_ratios),
    }
