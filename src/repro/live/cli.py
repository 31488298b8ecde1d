"""The ``python -m repro live`` scenario: the paper's §6 experiment on UDP.

Builds a :class:`~repro.live.sharded.LiveShardedSystem` of ``--rings``
independent loopback-UDP rings (``--rings 1``, the default, is simply the
one-ring case), deploys one of the :data:`~repro.live.loadgen.LIVE_APPS`
on every ring with a closed-loop driver streaming at it, then kills one
replica of ring ``r0``, re-launches it, and reports the wall-clock
recovery latency with the §5.1 per-phase breakdown — the live
counterpart of the simulated Figure 6 numbers.  Every observability flag
(trace, health, flight dumps, profile) works at every ring count.

Exit codes: 0 on a clean run; 1 if a ring, deployment or recovery fails,
the faulted ring's driver never resumes, a healthy ring stops acking
while ``r0`` is faulted, or the consistency auditor reports findings; 2
if a produced artifact (health exposition) fails its self-check.
"""

from __future__ import annotations

import asyncio
import sys

from repro.core.config import EternalConfig
from repro.live.clock import new_event_loop
from repro.live.health_http import start_health_server
from repro.live.loadgen import LIVE_APPS, deploy
from repro.live.sharded import LiveShardedSystem
from repro.obs.exporters import ChromeTraceWriter
from repro.obs.telemetry import TelemetryConfig, install_crash_hooks

#: The ring whose last server replica is killed and re-launched.
VICTIM_RING = "r0"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _print_dumps(dumps) -> None:
    for dump in dumps:
        where = dump.path or f"(in memory, {len(dump.records)} records)"
        print(f"flight dump [{dump.reason}] {dump.node}: {where}",
              file=sys.stderr)


async def _run(args) -> int:
    suffixes = [f"n{i + 1}" for i in range(args.nodes)]
    app = LIVE_APPS[args.app]
    # jsonl export re-reads the retained records at the end; the chrome
    # exporter streams each event as it happens (survives abrupt exits),
    # so it needs no retention at all.
    keep_records = bool(args.trace_out) and args.trace_format == "jsonl"
    profile_session = None
    if args.profile:
        from repro.obs.profiling import ProfileSession
        profile_session = ProfileSession(
            sample_interval=args.profile_sample_interval)
    # --no-read-lease restores the paper's pure total order; servants
    # without read_only operations are unaffected either way.
    system = LiveShardedSystem(
        rings=args.rings, node_template=tuple(suffixes),
        eternal_config=EternalConfig(read_lease=args.read_lease),
        keep_trace_records=keep_records,
        telemetry=(TelemetryConfig(flight_dir=args.flight_dir)
                   if args.flight_dir else None),
        profiling=profile_session.config if profile_session else None,
        store_dir=args.store_dir, store_fsync=args.store_fsync)
    if args.store_dir:
        print(f"durable journals under {args.store_dir} "
              f"(fsync={args.store_fsync})")
    if profile_session is not None:
        profile_session.attach(system)
        profile_session.start()
    trace_writer = None
    if args.trace_out and args.trace_format == "chrome":
        trace_writer = ChromeTraceWriter(args.trace_out)
        system.tracer.subscribe(trace_writer.feed)
    # However this process dies — unhandled exception, SIGINT, plain
    # exit — every node's flight ring lands in --flight-dir first.
    uninstall_hooks = install_crash_hooks(system.telemetry,
                                          on_dump=_print_dumps)
    auditor = system.attach_auditor()
    health_server = None
    try:
        if args.health_port is not None:
            health_server, port = await start_health_server(
                system, args.health_port)
            print(f"health exposition at http://127.0.0.1:{port}/")

        # -- rings + deployment -----------------------------------------
        if not await system.wait_for(system.ring_formed, timeout=20.0):
            return _fail(f"{args.rings} Totem ring(s) did not all form "
                         f"within 20 s")
        print(f"{args.rings} ring(s) formed ({args.nodes} nodes each) at "
              f"t={system.now * 1000:.0f} ms (wall clock)")
        groups, drivers = {}, {}
        for name in system.rings:
            try:
                groups[name], (drivers[name],) = await deploy(
                    system, app, [f"{name}.{s}" for s in suffixes],
                    state_size=args.state_size, suffix=f".{name}")
            except RuntimeError as exc:
                return _fail(f"ring {name}: {exc}")
        t0 = system.now
        print(f"app {args.app!r} ({args.state_size} B state) operational "
              f"and closed-loop load flowing on {args.rings} ring(s)")

        # -- kill / recover inside r0; the other rings never notice -----
        victim = f"{VICTIM_RING}.{suffixes[-1]}"
        group, driver = groups[VICTIM_RING], drivers[VICTIM_RING]
        await system.run_for(max(0.0, (t0 + args.kill_after) - system.now))
        acked_at_kill = {name: d.acked for name, d in drivers.items()}
        print(f"killing {victim} at t={system.now - t0:.2f} s …")
        system.kill_node(victim)
        await system.run_for(args.downtime)
        relaunched_at = system.now
        print(f"re-launching {victim} after {args.downtime * 1000:.0f} ms "
              f"downtime …")
        system.restart_node(victim)
        if not await system.wait_for(
                lambda: group.is_operational_on(victim), timeout=30.0):
            return _fail(f"replica on {victim} did not recover within 30 s")
        recovery_wall = system.now - relaunched_at
        gained_while_faulted = {name: d.acked - acked_at_kill[name]
                                for name, d in drivers.items()}
        acked_at_recovery = driver.acked
        if not await system.wait_for(
                lambda: driver.acked > acked_at_recovery, timeout=10.0):
            return _fail(f"ring {VICTIM_RING}: the driver got no reply "
                         f"within 10 s of {victim} recovering")

        # -- let the remaining duration play out ------------------------
        await system.run_for(max(0.0, (t0 + args.duration) - system.now))

        # -- report ------------------------------------------------------
        print(f"\nrecovered {victim} in {recovery_wall * 1000:.2f} ms "
              f"(wall clock, re-launch → operational)")
        print("\nper-phase breakdown (§5.1 steps, wall-clock ms):")
        print(system.metrics.format_table(prefix="span.recovery",
                                          scale=1000.0, unit="ms"))
        for name, d in drivers.items():
            marker = " (faulted ring)" if name == VICTIM_RING else ""
            print(f"ring {name}: driver sent={d.sent} acked={d.acked} "
                  f"(+{gained_while_faulted[name]} while {VICTIM_RING} "
                  f"was faulted){marker}")
            servants = {n: groups[name].servant_on(n)
                        for n in (f"{name}.{s}" for s in suffixes[1:])}
            print("  replica progress: " + " ".join(
                f"{n}={app.progress_of(servant)}"
                for n, servant in servants.items() if servant is not None))
        print(f"gateway: {system.bridge.forwarded} cross-ring forwards, "
              f"{system.bridge.duplicates} duplicates suppressed")
        batches = system.tracer.count("live.sys.recv_batches")
        datagrams = system.tracer.count("live.sys.recv_datagrams")
        if batches:
            print(f"socket batching: {datagrams} datagrams over "
                  f"{batches} wakeups "
                  f"({datagrams / batches:.2f} datagrams/wakeup)")
        fast = system.tracer.count("interceptor.request_fast")
        if args.read_lease and fast:
            print(f"read fast path: {fast} reads diverted to the "
                  f"leaseholder, "
                  f"{system.tracer.count('lease.fallback')} fell back "
                  f"to the total order")
        stalled = [name for name, gained in gained_while_faulted.items()
                   if name != VICTIM_RING and gained <= 0]
        if stalled:
            return _fail(f"fault in {VICTIM_RING} stalled healthy "
                         f"rings: {', '.join(stalled)}")

        if args.health_out or args.health_port is not None:
            from repro.obs.health import parse_exposition, render_health
            exposition = render_health(system, auditor=auditor)
            try:
                parse_exposition(exposition)
            except ValueError as exc:
                print(f"error: health exposition failed its self-check: "
                      f"{exc}", file=sys.stderr)
                return 2
            if args.health_out:
                with open(args.health_out, "w", encoding="utf-8") as fh:
                    fh.write(exposition)
                print(f"wrote health exposition to {args.health_out}")
    finally:
        if health_server is not None:
            health_server.close()
        if profile_session is not None:
            profile_session.stop()
        system.close()

    if args.trace_out:
        if trace_writer is not None:
            trace_writer.close()
            print(f"wrote {trace_writer.events_written} trace events to "
                  f"{args.trace_out} (chrome, streamed)")
        else:
            written = system.export_trace(args.trace_out,
                                          fmt=args.trace_format)
            print(f"wrote {written} trace events to {args.trace_out} "
                  f"({args.trace_format})")
    if profile_session is not None:
        from repro.obs.profiling import syscall_counters
        print("\nper-phase resource attribution (wall vs CPU vs allocs "
              "vs syscalls):")
        print(profile_session.render_table(
            syscalls=syscall_counters(system.tracer.counters)))
        lines = profile_session.write_folded(args.profile_out)
        print(f"wrote {lines} folded stacks to {args.profile_out} "
              f"({profile_session.sampler.samples_taken} samples; render "
              f"with flamegraph.pl or speedscope)")
    if args.flight_dir:
        # Orderly completion: dump the surviving nodes' rings too, so the
        # run's dumps stitch into full cross-node timelines (the killed
        # node already dumped itself at the moment of the crash).
        _print_dumps(system.telemetry.flight.dump_all("shutdown"))
    uninstall_hooks()
    auditor.finish()
    print(auditor.summary())
    return 0 if auditor.ok else 1


def run_live(args) -> int:
    """Entry point used by ``python -m repro live`` (and ``profile
    --live``, which parses its arguments with the same sub-parser)."""
    if args.nodes < 3:
        return _fail("--nodes must be >= 3 (manager + at least two "
                     "app replicas)")
    if args.kill_after >= args.duration:
        return _fail("--kill-after must be less than --duration")
    if args.rings < 1:
        return _fail("--rings must be >= 1")
    try:
        # asyncio.Runner so the loop factory is pluggable (--uvloop swaps
        # in uvloop's implementation when the optional extra is present).
        with asyncio.Runner(
                loop_factory=lambda: new_event_loop(
                    use_uvloop=args.uvloop)) as runner:
            return runner.run(_run(args))
    except RuntimeError as exc:
        if "uvloop" in str(exc):
            return _fail(str(exc))
        raise
