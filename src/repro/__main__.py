"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — deploy a replicated counter, kill/recover a replica, and
                  narrate the §5.1 protocol from the trace (``--trace-out``
                  additionally exports the run as a Chrome trace).
* ``fig6``      — quick reproduction of the paper's Figure 6 sweep, with
                  per-phase latency percentiles from the metrics registry
                  (``--no-bulk-lane`` restores the paper's purely in-order
                  state transfer).
* ``recovery-scale`` — recovery time and concurrent request throughput
                  vs large state sizes, exercising the out-of-band bulk
                  lane (``--no-bulk-lane`` for the in-order ablation).
* ``checkpoint`` — warm-passive checkpoint transfer cost vs state size
                  under a ~10%-dirty workload (delta state transfer;
                  ``--no-delta`` restores the paper's full snapshots).
* ``throughput`` — open-loop wire-bound throughput sweep exercising
                  token-rotation frame packing (``--no-packing`` to
                  disable).
* ``cold-restart`` — durable-journal restart economics: warm-journal vs
                  no-store state bytes over the wire, and a full-cluster
                  kill recovered by cold-boot election from the journals
                  (gated at a ≥10x wire saving).
* ``store``     — inspect (and optionally compact) the durable journals
                  under a ``live --store-dir``.
* ``styles``    — compare active / warm passive / cold passive at a fault.
* ``trace``     — run the kill/recover scenario and export the trace (Chrome
                  ``trace_event`` JSON and/or JSONL) for Perfetto.
* ``metrics``   — run a short workload and print the metrics registry
                  (``--watch <sec>`` re-renders in place as the scenario
                  unfolds instead of one final dump).
* ``health``    — run kill/recover, audit the trace for consistency
                  violations, and print the Prometheus-style health
                  exposition (exit 1 on audit findings; ``--watch``
                  re-renders live like ``metrics``).
* ``top``       — live-refreshing per-node table of the telemetry plane's
                  sampled series (rotation latency, queue depths, token
                  RTT); drives a simulated kill/recover by default, or
                  polls a live node's ``/metrics/history`` with ``--url``.
* ``obs-overhead`` — wall-clock cost of the telemetry plane on the
                  fault-free throughput workload, gated at ≤3%.
* ``profile``   — run the kill/recover scenario with span-scoped resource
                  attribution and a sampling stack profiler: per-phase
                  cost table (wall vs CPU vs allocs, plus syscalls with
                  ``--live``) and a ``.folded`` flame-graph artifact.
* ``prof-overhead`` — wall-clock cost of the profiler itself, gated:
                  disabled must cost exactly nothing, enabled ≤5%.
* ``live``      — run the stack over real loopback-UDP sockets and
                  wall-clock time (see :mod:`repro.live`): form a ring,
                  kill and recover a replica under closed-loop load, and
                  report the wall-clock recovery latency.
* ``version``   — print the library version.

Every command exits non-zero on its failure paths (regressions, audit
findings, timeouts, unreadable baselines), so they can gate CI directly.
"""

from __future__ import annotations

import argparse
import sys

import repro


def _cmd_version(_args) -> int:
    print(f"repro {repro.__version__} — Eternal (DSN 2001) reproduction")
    return 0


def _run_kill_recover(state_size: int):
    """Deploy the kv-store, kill and recover replica s2, return the
    deployment with a fully retained trace (shared by demo/trace/metrics)."""
    from repro.bench.deployments import build_client_server
    from repro.ftcorba.properties import ReplicationStyle

    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=state_size,
        warmup=0.2,
        keep_trace_records=True,
    )
    system = deployment.system
    deployment.kill_time = system.now
    system.kill_node("s2")
    system.run_for(0.1)
    system.restart_node("s2")
    system.wait_for(
        lambda: deployment.server_group.is_operational_on("s2"), timeout=5.0
    )
    system.run_for(0.2)
    return deployment


def _audit_retained_trace(system):
    """Replay the system's retained trace through a fresh auditor."""
    from repro.obs.audit import ConsistencyAuditor

    auditor = ConsistencyAuditor.from_records(system.tracer.records,
                                              metrics=system.metrics)
    auditor.finish()
    return auditor


def _watch_kill_recover(args, render) -> int:
    """--watch mode shared by ``metrics`` and ``health``: advance the
    kill/recover scenario in ``--watch``-second steps of simulated time,
    clearing the terminal and re-rendering after each step.  The kill and
    re-launch are pre-scheduled inside the watch window so the rendered
    series visibly react to the fault."""
    from repro.bench.deployments import build_client_server
    from repro.ftcorba.properties import ReplicationStyle

    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=args.state_size,
        warmup=0.2,
        keep_trace_records=True,
    )
    system = deployment.system
    system.attach_auditor()
    horizon = args.watch * args.watch_count
    system.faults.crash_after(horizon * 0.3, "s2")
    system.faults.restart_after(horizon * 0.5, "s2")
    for tick in range(1, args.watch_count + 1):
        system.run_for(args.watch)
        sys.stdout.write("\x1b[2J\x1b[H")     # clear + home: render in place
        print(f"t={system.now:.3f}s simulated — tick {tick}/"
              f"{args.watch_count} (interval {args.watch}s; s2 killed at "
              f"{horizon * 0.3:.2f}s, re-launched at {horizon * 0.5:.2f}s)")
        print(render(system))
        sys.stdout.flush()
    return 0


def _cmd_health(args) -> int:
    from repro.obs.health import parse_exposition, render_health

    if args.watch:
        return _watch_kill_recover(
            args,
            lambda system: render_health(system, auditor=system.auditor))

    print(f"running kill/recover scenario ({args.state_size} B state) …",
          file=sys.stderr)
    deployment = _run_kill_recover(args.state_size)
    system = deployment.system
    auditor = _audit_retained_trace(system)
    exposition = render_health(system, auditor=auditor)
    try:
        parse_exposition(exposition)
    except ValueError as exc:
        print(f"error: health exposition failed its self-check: {exc}",
              file=sys.stderr)
        return 2
    print(exposition, end="")
    print(auditor.summary(), file=sys.stderr)
    return 0 if auditor.ok else 1


def _cmd_demo(args) -> int:
    from repro.tools import recovery_summary, render_phase_table, \
        render_timeline

    print(f"deploying: 2-way active kv-store ({args.state_size} B state) "
          f"+ packet driver …")
    print("killing replica s2, re-launching after 100 ms (simulated) …")
    deployment = _run_kill_recover(args.state_size)
    system = deployment.system
    print("\ntimeline:")
    print(render_timeline(system.tracer,
                          categories={"fault", "process", "recovery"},
                          since=deployment.kill_time, group="store"))
    for summary in recovery_summary(system.tracer):
        print(f"\nrecovered {summary.group}@{summary.node} in "
              f"{(summary.duration or 0) * 1000:.2f} ms "
              f"({summary.state_bytes} B of state)")
    print("\nper-phase breakdown (§5.1 steps i–vi):")
    print(render_phase_table(system.tracer))
    if args.trace_out:
        written = system.export_trace(args.trace_out, fmt=args.trace_format)
        print(f"\nwrote {written} trace events to {args.trace_out} "
              f"({args.trace_format})")
    s1 = deployment.server_servant("s1")
    s2 = deployment.server_servant("s2")
    print(f"consistency: s1={s1.echo_count} s2={s2.echo_count} "
          f"equal={s1.echo_count == s2.echo_count}")
    audit_ok = True
    if args.health:
        from repro.obs.health import render_health
        auditor = _audit_retained_trace(system)
        audit_ok = auditor.ok
        print("\nhealth snapshot:")
        print(render_health(system, auditor=auditor), end="")
        print(auditor.summary())
    return 0 if s1.echo_count == s2.echo_count and audit_ok else 1


def _cmd_trace(args) -> int:
    from repro.obs.spans import SpanTracker

    print(f"running kill/recover scenario ({args.state_size} B state) …")
    deployment = _run_kill_recover(args.state_size)
    system = deployment.system
    tracker = SpanTracker.from_tracer(system.tracer)
    complete = sum(1 for s in tracker.spans if s.complete)
    print(f"captured {len(system.tracer.records)} trace records, "
          f"{complete} complete spans "
          f"({len(tracker.unfinished)} unfinished)")
    if not args.out and not args.jsonl_out:
        print("nothing to write — pass --out and/or --jsonl-out")
        return 2
    if args.out:
        written = system.export_trace(args.out, fmt="chrome")
        print(f"wrote {written} Chrome trace events to {args.out} "
              f"(open in Perfetto or chrome://tracing)")
    if args.jsonl_out:
        written = system.export_trace(args.jsonl_out, fmt="jsonl")
        print(f"wrote {written} JSONL records to {args.jsonl_out}")
    return 0


def _cmd_metrics(args) -> int:
    if args.watch:
        return _watch_kill_recover(
            args,
            lambda system: system.metrics.format_table(
                prefix=args.prefix, scale=1000.0, unit="ms"))

    print(f"running kill/recover scenario ({args.state_size} B state) …")
    deployment = _run_kill_recover(args.state_size)
    system = deployment.system
    print("\nmetrics registry (durations in ms):")
    print(system.metrics.format_table(prefix=args.prefix, scale=1000.0,
                                      unit="ms"))
    return 0


def _cmd_top(args) -> int:
    import json
    import time as wallclock

    from repro.obs.telemetry import render_top

    if args.url:
        # Poll a live node's /metrics/history endpoint.
        import urllib.error
        import urllib.request
        endpoint = args.url.rstrip("/") + "/metrics/history"
        saw_profile_series = False
        for tick in range(args.count):
            try:
                with urllib.request.urlopen(endpoint, timeout=5.0) as resp:
                    snapshot = json.loads(resp.read().decode("utf-8"))
            except (urllib.error.URLError, OSError, ValueError) as exc:
                print(f"error: cannot fetch {endpoint}: {exc}",
                      file=sys.stderr)
                return 2
            if not isinstance(snapshot, dict) or "series" not in snapshot:
                print(f"error: {endpoint} returned no metrics-history "
                      f"series — the node predates the telemetry plane or "
                      f"serves a different payload; upgrade it or point "
                      f"--url at a /metrics/history-capable health port",
                      file=sys.stderr)
                return 1
            if any(key.startswith("profile.")
                   for key in snapshot["series"]):
                saw_profile_series = True
            sys.stdout.write("\x1b[2J\x1b[H")
            print(f"{endpoint}  (refresh {args.interval}s, "
                  f"tick {tick + 1}/{args.count})")
            print(render_top(snapshot))
            sys.stdout.flush()
            if tick + 1 < args.count:
                wallclock.sleep(args.interval)
        if not saw_profile_series:
            print("note: the endpoint never served profile.* series, so "
                  "the cpu%/allocs columns stayed empty — run the node "
                  "with profiling enabled (e.g. `python -m repro live "
                  "--profile`) to feed them",
                  file=sys.stderr)
            return 1
        return 0

    # Simulated mode: drive the kill/recover scenario, advancing
    # --interval seconds of simulated time per rendered frame.  Profiling
    # is on so the cpu%/allocs columns are fed; note the cpu%% reading is
    # host CPU over *simulated* seconds, so >100% is expected.
    from repro.bench.deployments import build_client_server
    from repro.ftcorba.properties import ReplicationStyle
    from repro.obs.profiling import ProfilingConfig

    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=args.state_size,
        warmup=0.2,
        profiling=ProfilingConfig(enabled=True),
    )
    system = deployment.system
    horizon = args.interval * args.count
    system.faults.crash_after(horizon * 0.3, "s2")
    system.faults.restart_after(horizon * 0.5, "s2")
    for tick in range(1, args.count + 1):
        system.run_for(args.interval)
        system.telemetry.sample_now()
        sys.stdout.write("\x1b[2J\x1b[H")
        print(f"t={system.now:.3f}s simulated — tick {tick}/{args.count} "
              f"(s2 killed at {horizon * 0.3:.2f}s, re-launched at "
              f"{horizon * 0.5:.2f}s)")
        print(render_top(system.telemetry.history.snapshot()))
        sys.stdout.flush()
    return 0


def _cmd_obs_overhead(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (OBS_OVERHEAD_LOADS,
                                    OBS_OVERHEAD_LOADS_QUICK,
                                    run_obs_overhead_point)

    rates = OBS_OVERHEAD_LOADS_QUICK if args.quick else OBS_OVERHEAD_LOADS
    rows = []
    points = {}
    for rate in rates:
        result = run_obs_overhead_point(rate,
                                        repeats=2 if args.quick else 3)
        ratio = result["overhead_ratio"]
        rows.append([rate, round(result["off_s"] * 1000, 1),
                     round(result["on_s"] * 1000, 1), round(ratio, 4)])
        points[str(rate)] = round(ratio, 4)
    footer, code = _record_and_compare(args, "obs_overhead",
                                       "overhead_ratio", "ratio", points)
    if code == 2:
        return 2
    worst = max(points.values())
    budget_line = (f"worst overhead {100 * (worst - 1):+.2f}% "
                   f"(budget ≤{100 * args.max_overhead:.0f}%)")
    if worst - 1.0 > args.max_overhead:
        budget_line += "  — OVER BUDGET"
        code = max(code, 1)
    footer = budget_line if footer is None else f"{footer}\n{budget_line}"
    print_table(
        "Telemetry-plane overhead — fault-free throughput",
        ["offered_per_s", "telemetry_off_ms", "telemetry_on_ms",
         "plane_overhead"],
        rows,
        paper_note="plane_overhead = run / (run - in-situ plane time): "
                   "perf_counter accumulated inside ring admission and "
                   "sampler ticks during a telemetry-on run.  Wall-clock "
                   "on/off A-B deltas on shared hardware swing +/-10% — "
                   "far above a 3% budget — so the gate measures the "
                   "plane's own share, which is stable to ~0.1%.",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _start_profile_session(args):
    """Build and start a :class:`~repro.obs.profiling.ProfileSession` when
    ``--profile`` was passed (None otherwise) — shared by the sweep
    commands."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs.profiling import ProfileSession
    session = ProfileSession(
        sample_interval=getattr(args, "profile_sample_interval", 0.005))
    session.start()
    return session


def _finish_profile_session(session, args, *, syscalls=None) -> None:
    """Stop the session, print the per-phase cost table, and write the
    ``.folded`` artifact to ``--profile-out``."""
    if session is None:
        return
    session.stop()
    print("\nper-phase resource attribution (profiler):")
    print(session.render_table(syscalls=syscalls))
    out = getattr(args, "profile_out", None) or "profile.folded"
    lines = session.write_folded(out)
    print(f"\nwrote {lines} folded stacks to {out} "
          f"({session.sampler.samples_taken} samples; render with "
          f"flamegraph.pl or speedscope)")


def _cmd_profile(args) -> int:
    from repro.obs.profiling import ProfileSession, syscall_counters

    if args.live:
        # Delegate to the live runner with profiling switched on: real
        # sockets, so the table includes the transport's syscall counters.
        from repro.live.cli import run_live
        live_args = argparse.Namespace(
            nodes=3, app="kvstore", state_size=args.state_size,
            duration=3.0 if args.quick else 8.0,
            kill_after=1.0 if args.quick else 2.0,
            downtime=0.5, health_port=None, health_out=None,
            trace_out=None, trace_format="chrome", flight_dir=None,
            profile=True, profile_out=args.out,
            profile_sample_interval=args.sample_interval,
        )
        return run_live(live_args)

    from repro.bench.deployments import build_client_server, measure_recovery
    from repro.ftcorba.properties import ReplicationStyle

    session = ProfileSession(sample_interval=args.sample_interval,
                             alloc_trace=args.alloc_trace)
    session.start()
    print(f"profiling the kill/recover scenario ({args.state_size} B "
          f"state) …", file=sys.stderr)
    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=2,
        state_size=args.state_size,
        warmup=0.2,
        profiling=session.config,
    )
    session.attach(deployment.system)
    system = deployment.system
    system.run_for(0.1 if args.quick else 0.5)     # fault-free load phase
    try:
        recovery_time = measure_recovery(deployment, "s2")
    except TimeoutError as exc:
        session.stop()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    system.run_for(0.1)
    session.stop()
    phases = session.merged_phases()
    print(f"recovered s2 in {recovery_time * 1000:.2f} ms (simulated); "
          f"host costs per phase:")
    print(session.render_table(
        syscalls=syscall_counters(system.tracer.counters),
        wall_label="sim"))
    lines = session.write_folded(args.out)
    print(f"\nwrote {lines} folded stacks to {args.out} "
          f"({session.sampler.samples_taken} samples; render with "
          f"flamegraph.pl or speedscope)")
    missing = [name for name in ("recovery.announce", "recovery.capture",
                                 "recovery.apply", "recovery.assign",
                                 "recovery.drain", "totem.rotation")
               if name not in phases]
    if missing:
        print(f"error: no resource attribution for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_prof_overhead(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (PROF_OVERHEAD_LOADS,
                                    PROF_OVERHEAD_LOADS_QUICK,
                                    run_prof_overhead_point)

    rates = PROF_OVERHEAD_LOADS_QUICK if args.quick else PROF_OVERHEAD_LOADS
    rows = []
    points = {}
    worst_off = 1.0
    for rate in rates:
        result = run_prof_overhead_point(rate,
                                         repeats=2 if args.quick else 3)
        ratio = result["overhead_ratio"]
        rows.append([rate, round(result["off_s"] * 1000, 1),
                     round(result["on_s"] * 1000, 1),
                     round(result["off_ratio"], 4), round(ratio, 4)])
        points[f"off:{rate}"] = round(result["off_ratio"], 4)
        points[f"on:{rate}"] = round(ratio, 4)
        worst_off = max(worst_off, result["off_ratio"])
    footer, code = _record_and_compare(args, "prof_overhead",
                                       "overhead_ratio", "ratio", points)
    if code == 2:
        return 2
    worst_on = max(v for k, v in points.items() if k.startswith("on:"))
    budget_line = (f"off overhead {100 * (worst_off - 1):+.4f}% "
                   f"(must be 0), on {100 * (worst_on - 1):+.2f}% "
                   f"(budget ≤{100 * args.max_overhead:.0f}%)")
    if worst_off > 1.0 + 1e-9 or worst_on - 1.0 > args.max_overhead:
        budget_line += "  — OVER BUDGET"
        code = max(code, 1)
    footer = budget_line if footer is None else f"{footer}\n{budget_line}"
    print_table(
        "Profiler overhead — fault-free throughput",
        ["offered_per_s", "profiler_off_ms", "profiler_on_ms",
         "off_ratio", "on_ratio"],
        rows,
        paper_note="in-situ shares (InSituProbe inside span bookkeeping "
                   "and sampler walks), like obs-overhead.  off_ratio is "
                   "structural: a disabled profiler never subscribes to "
                   "the tracer, so its probed share is exactly zero.",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _record_and_compare(args, name: str, metric: str, unit: str,
                        points) -> "tuple":
    """Shared --record/--compare handling for the sweep commands.

    Returns ``(footer, exit_code)``: a verdict line for the table footer
    (or None) and the exit code (0 ok, 1 regression, 2 unusable baseline);
    writes the record to ``args.record`` when requested.
    """
    if not (args.record or args.compare):
        return None, 0
    from repro.bench.regression import BenchRecord, compare_bench_records
    record = BenchRecord.from_points(name, metric, unit, points)
    footer = None
    code = 0
    if args.compare:
        try:
            baseline = BenchRecord.load(args.compare)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot load baseline {args.compare!r}: {exc}",
                  file=sys.stderr)
            return None, 2
        comparison = compare_bench_records(baseline, record,
                                           tolerance=args.tolerance)
        footer = comparison.verdict
        code = 0 if comparison.ok else 1
    if args.record:
        record.write(args.record)
    return footer, code


def _cmd_checkpoint(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (CHECKPOINT_SIZES,
                                    CHECKPOINT_SIZES_QUICK,
                                    run_checkpoint_point)

    sizes = CHECKPOINT_SIZES_QUICK if args.quick else CHECKPOINT_SIZES
    rows = []
    points = {}
    for size in sizes:
        result = run_checkpoint_point(size, delta=not args.no_delta)
        rows.append([size, result["checkpoints"],
                     round(result["median_ms"], 3),
                     round(result["p95_ms"], 3),
                     int(result["wire_bytes"]), int(result["full_bytes"])])
        points[str(size)] = round(result["median_ms"], 3)
    footer, code = _record_and_compare(args, "checkpoint",
                                       "checkpoint_xfer_ms", "ms", points)
    if code == 2:
        return 2
    mode = "full snapshots" if args.no_delta else "page deltas"
    print_table(
        f"Checkpoint transfer cost vs state size ({mode}, ~10% dirty)",
        ["state_bytes", "ckpts", "median_ms", "p95_ms",
         "delta_wire_B", "full_equiv_B"],
        rows,
        paper_note="§3.3 ships the whole state every interval; deltas "
                   "make the cost linear in changed pages",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_throughput(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (THROUGHPUT_LOADS,
                                    THROUGHPUT_LOADS_QUICK,
                                    WIRE_BOUND_ECHO, run_throughput_point)

    rates = THROUGHPUT_LOADS_QUICK if args.quick else THROUGHPUT_LOADS
    session = _start_profile_session(args)
    rows = []
    points = {}
    for rate in rates:
        result = run_throughput_point(
            rate,
            frame_packing=not args.no_packing,
            echo_duration=WIRE_BOUND_ECHO,
            profile=session,
        )
        rows.append([rate, int(result["achieved"]),
                     round(result["mean_ms"], 3),
                     round(result["p99_ms"], 3)])
        points[str(rate)] = round(result["mean_ms"], 3)
    footer, code = _record_and_compare(args, "throughput",
                                       "mean_latency_ms", "ms", points)
    if code == 2:
        return 2
    mode = "frame packing off" if args.no_packing else "frame packing on"
    print_table(
        f"Open-loop wire-bound throughput sweep ({mode})",
        ["offered_per_s", "achieved_per_s", "mean_latency_ms",
         "p99_latency_ms"],
        rows,
        paper_note="multi-payload DATA frames amortize per-frame header, "
                   "inter-frame gap, and per-frame CPU",
        footer=footer,
    )
    _finish_profile_session(session, args)
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_fig6(args) -> int:
    from repro.bench.deployments import build_client_server, measure_recovery
    from repro.bench.reporting import print_table
    from repro.core.config import EternalConfig
    from repro.ftcorba.properties import ReplicationStyle

    from repro.obs.metrics import merge_registries

    eternal_config = EternalConfig(bulk_lane=not args.no_bulk_lane)

    sizes = [10, 1_000, 10_000, 50_000, 100_000, 200_000, 350_000]
    if args.quick:
        sizes = [10, 10_000, 100_000, 350_000]
    session = _start_profile_session(args)
    rows = []
    registries = []
    points = {}
    for size in sizes:
        deployment = build_client_server(style=ReplicationStyle.ACTIVE,
                                         server_replicas=2,
                                         state_size=size,
                                         eternal_config=eternal_config,
                                         profiling=(session.config
                                                    if session else None),
                                         warmup=0.2)
        if session is not None:
            session.attach(deployment.system)
        try:
            recovery_time = measure_recovery(deployment, "s2")
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        recovery_ms = round(recovery_time * 1000, 3)
        rows.append([size, recovery_ms])
        points[str(size)] = recovery_ms
        registries.append(deployment.system.metrics)

    footer, code = _record_and_compare(args, "fig6", "recovery_ms", "ms",
                                       points)
    if code == 2:
        return 2
    print_table("Figure 6 — recovery time vs application-level state size",
                ["state_bytes", "recovery_ms"], rows,
                paper_note="flat below one Ethernet frame, then linear in "
                           "the fragment count",
                footer=footer)
    merged = merge_registries(registries)
    print("\nper-phase latency across the sweep (ms):")
    print(merged.format_table(prefix="span.recovery", scale=1000.0,
                              unit="ms"))
    _finish_profile_session(session, args)
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_recovery_scale(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (RECOVERY_SCALE_SIZES,
                                    RECOVERY_SCALE_SIZES_QUICK,
                                    run_recovery_scale_sweep)

    sizes = (RECOVERY_SCALE_SIZES_QUICK if args.quick
             else RECOVERY_SCALE_SIZES)
    bulk = not args.no_bulk_lane
    session = _start_profile_session(args)
    try:
        sweep = run_recovery_scale_sweep(sizes, bulk=bulk, profile=session)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = []
    points = {}
    for point in sweep:
        size = int(point["state_size"])
        recovery_ms = round(point["recovery_ms"], 3)
        rows.append([
            size, recovery_ms,
            round(point["oob_bytes"] / 1000.0, 1),
            round(point["inorder_bytes"] / 1000.0, 1),
            int(point["baseline_per_s"]),
            int(point["during_per_s"]),
            round(point["during_ratio"], 3),
        ])
        points[str(size)] = recovery_ms

    footer, code = _record_and_compare(args, "recovery_scale", "recovery_ms",
                                       "ms", points)
    if code == 2:
        return 2
    mode = ("in-order ablation (--no-bulk-lane)" if args.no_bulk_lane
            else "out-of-band bulk lane")
    print_table(
        f"Recovery at scale — {mode}",
        ["state_bytes", "recovery_ms", "oob_kB", "inorder_kB",
         "driver_base_per_s", "driver_during_per_s", "during_ratio"],
        rows,
        paper_note="the bulk lane moves checkpoint pages off the totally "
                   "ordered ring; the set_state multicast carries only a "
                   "page manifest, so concurrent request traffic keeps "
                   "flowing",
        footer=footer,
    )
    _finish_profile_session(session, args)
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_cold_restart(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.sweeps import (COLD_RESTART_SIZES,
                                    COLD_RESTART_SIZES_QUICK,
                                    run_cold_restart_point)

    sizes = COLD_RESTART_SIZES_QUICK if args.quick else COLD_RESTART_SIZES
    rows = []
    points = {}
    worst_ratio = None
    for size in sizes:
        try:
            result = run_cold_restart_point(size)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ratio = result["wire_ratio"]
        rows.append([
            size,
            round(result["warm_recovery_ms"], 3),
            round(result["warm_wire_bytes"] / 1000.0, 1),
            round(result["nostore_recovery_ms"], 3),
            round(result["nostore_wire_bytes"] / 1000.0, 1),
            round(ratio, 1) if ratio != float("inf") else "inf",
            round(result["cold_recovery_ms"], 3),
        ])
        points[f"warm_ms:{size}"] = round(result["warm_recovery_ms"], 3)
        points[f"cold_ms:{size}"] = round(result["cold_recovery_ms"], 3)
        points[f"warm_kB:{size}"] = round(
            result["warm_wire_bytes"] / 1000.0, 1)
        worst_ratio = (ratio if worst_ratio is None
                       else min(worst_ratio, ratio))
    footer, code = _record_and_compare(args, "cold_restart",
                                       "cold_restart", "mixed", points)
    if code == 2:
        return 2
    gate_line = (f"worst warm-journal wire saving {worst_ratio:.1f}x "
                 f"(gate ≥{args.min_ratio:.0f}x)")
    if worst_ratio < args.min_ratio:
        gate_line += "  — UNDER GATE"
        code = max(code, 1)
    footer = gate_line if footer is None else f"{footer}\n{gate_line}"
    print_table(
        "Cold restart — durable journal vs network-only recovery",
        ["state_bytes", "warm_ms", "warm_wire_kB", "nostore_ms",
         "nostore_wire_kB", "wire_ratio", "coldboot_ms"],
        rows,
        paper_note="a restarting replica replays its journal "
                   "(checkpoint + logged messages) and fetches only the "
                   "digest-negotiated tail from live peers; with every "
                   "replica dead the best journal seeds the group "
                   "(cold-boot election)",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_store(args) -> int:
    import os

    from repro.errors import StoreCorruptError
    from repro.store.journal import JournalStore

    root = args.store_dir
    if not os.path.isdir(root):
        print(f"error: {root!r} is not a directory", file=sys.stderr)
        return 2

    def node_roots():
        # A per-node root has group dirs (each with a MANIFEST) directly
        # under it; a `live --store-dir` root has one such tree per node.
        entries = sorted(e for e in os.listdir(root)
                         if os.path.isdir(os.path.join(root, e)))
        if any(os.path.isfile(os.path.join(root, e, "MANIFEST"))
               for e in entries):
            return [("", root)]
        return [(e, os.path.join(root, e)) for e in entries]

    code = 0
    found = False
    for node, node_root in node_roots():
        store = JournalStore(node_root)
        for group_id in store.group_ids():
            found = True
            label = f"{node}/{group_id}" if node else group_id
            group = store.group(group_id)
            try:
                stored = group.load()
            except StoreCorruptError as exc:
                print(f"{label}: CORRUPT — {exc}")
                code = 1
                continue
            ckpt = stored.checkpoint
            stats = group.stats()
            ckpt_text = f"@{ckpt.position}" if ckpt else "none"
            print(f"{label}: position={stored.last_position} "
                  f"checkpoint={ckpt_text} "
                  f"pending_messages={len(stored.messages)} "
                  f"segments={int(stats.get('segments', 0))} "
                  f"bytes={int(stats.get('bytes', 0))}")
            if args.compact:
                if group.compact():
                    after = group.stats()
                    print(f"{label}: compacted → "
                          f"bytes={int(after.get('bytes', 0))}")
                else:
                    print(f"{label}: nothing to compact (no checkpoint)")
        store.close()
    if not found:
        print(f"no journals under {root}")
    return code


def _cmd_styles(_args) -> int:
    from repro.bench.deployments import build_client_server
    from repro.bench.reporting import print_table
    from repro.ftcorba.properties import ReplicationStyle

    rows = []
    for style in (ReplicationStyle.ACTIVE, ReplicationStyle.WARM_PASSIVE,
                  ReplicationStyle.COLD_PASSIVE):
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
        if not system.wait_for(lambda: driver.acked > acked + 20,
                               timeout=5.0):
            print(f"error: {style.value} never resumed service after the "
                  f"fault (driver stuck at {driver.acked} acks)",
                  file=sys.stderr)
            return 1
        rows.append([style.value,
                     round((system.now - kill_time) * 1000, 2)])
    print_table("Replication styles — client-visible disruption at a fault",
                ["style", "disruption_ms"], rows,
                paper_note="active: faster recovery; passive: fewer "
                           "resources (§6)")
    return 0


def _cmd_live(args) -> int:
    from repro.live.cli import run_live

    return run_live(args)


def _cmd_live_throughput(args) -> int:
    from repro.bench.livebench import run_live_throughput
    from repro.bench.reporting import print_table

    duration = 1.0 if args.quick else args.duration
    try:
        result = run_live_throughput(duration=duration,
                                     use_uvloop=args.uvloop)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = []
    for label in ("ordered", "leased", "saturated"):
        arm = result[label]
        rows.append([
            label, arm["n_drivers"],
            "on" if arm["read_lease"] else "off",
            round(arm["acked_per_s"], 1), arm["acked"],
            arm["fast_reads"], arm["fallbacks"],
            round(arm["datagrams_per_wakeup"], 2),
        ])
    points = result["points"]
    footer, code = _record_and_compare(args, "live", "live_throughput",
                                       "ratio", points)
    if code == 2:
        return 2
    gate_line = (f"read-lease speedup {result['speedup']:.2f}x "
                 f"(gate ≥{args.min_speedup:.1f}x); saturation receive "
                 f"batching {1.0 / points['wakeups_per_datagram']:.2f} "
                 f"datagrams/wakeup")
    if result["speedup"] < args.min_speedup:
        gate_line += "  — UNDER GATE"
        code = max(code, 1)
    footer = gate_line if footer is None else f"{footer}\n{gate_line}"
    print_table(
        "Live closed-loop throughput — total order vs read lease "
        "(loopback UDP, wall clock)",
        ["arm", "drivers", "lease", "acked_per_s", "acked",
         "fast_reads", "fallbacks", "dg_per_wakeup"],
        rows,
        paper_note="the paper orders every IIOP message through Totem; "
                   "read_only operations served by the ring leaseholder "
                   "skip the token rotation entirely, and the batched "
                   "transport drains multiple datagrams per wakeup at "
                   "saturation",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def _cmd_shard_scale(args) -> int:
    from repro.bench.reporting import print_table
    from repro.bench.shardbench import (SHARD_SCALE_RINGS,
                                        SHARD_SCALE_RINGS_QUICK,
                                        run_shard_scale_point)

    ring_counts = SHARD_SCALE_RINGS_QUICK if args.quick else SHARD_SCALE_RINGS
    duration = 0.5 if args.quick else args.duration
    rows = []
    results = {}
    for rings in ring_counts:
        result = run_shard_scale_point(rings, pairs=args.pairs,
                                       duration=duration)
        results[rings] = result
        rows.append([rings, args.pairs // rings * 2,
                     result["acked"],
                     round(result["throughput_per_s"], 1),
                     round(result["inv_cost_us"], 2)])
    base = results[ring_counts[0]]["inv_cost_us"]
    # Machine-independent points: each arm's per-invocation cost relative
    # to the single-ring arm (simulated time, so deterministic; lower is
    # better — the 8-ring point ≈ 1/scaling).
    points = {f"rings_{rings}": round(r["inv_cost_us"] / base, 4)
              for rings, r in results.items()}
    footer, code = _record_and_compare(args, "shard_scale", "cost_ratio",
                                       "ratio", points)
    if code == 2:
        return 2
    top = max(results)
    scaling = (results[top]["throughput_per_s"]
               / results[ring_counts[0]]["throughput_per_s"])
    gate_line = (f"{top}-ring aggregate {scaling:.2f}x the single ring "
                 f"(gate ≥{args.min_scaling:.1f}x, same "
                 f"{args.pairs}-pair work/node budget)")
    if scaling < args.min_scaling:
        gate_line += "  — UNDER GATE"
        code = max(code, 1)
    footer = gate_line if footer is None else f"{footer}\n{gate_line}"
    for rings, row in zip(ring_counts, rows):
        row.append(round(results[ring_counts[0]]["throughput_per_s"]
                         and results[rings]["throughput_per_s"]
                         / results[ring_counts[0]]["throughput_per_s"], 2))
    print_table(
        "Sharded aggregate throughput — object groups over a "
        "consistent-hashing ring of Totem rings (simulated time)",
        ["rings", "nodes_per_ring", "acked", "acked_per_s",
         "inv_cost_us", "vs_1_ring"],
        rows,
        paper_note="one Totem ring serialises all traffic through one "
                   "token rotation, so the single-ring arm is flat no "
                   "matter how many pairs share it; sharding the same "
                   "pairs over independent rings multiplies the "
                   "available rotations and aggregate throughput "
                   "scales near-linearly",
        footer=footer,
    )
    if args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Eternal (DSN 2001) reproduction — demos and sweeps",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("version", help="print the version")
    demo = sub.add_parser("demo", help="kill/recover demo with timeline")
    demo.add_argument("--state-size", type=int, default=50_000,
                      help="application-level state size in bytes")
    demo.add_argument("--trace-out", default=None, metavar="PATH",
                      help="also export the run's trace to PATH")
    demo.add_argument("--trace-format", choices=("chrome", "jsonl"),
                      default="chrome",
                      help="export format for --trace-out")
    demo.add_argument("--health", action="store_true",
                      help="also audit the trace and print the health "
                           "snapshot (exit 1 on audit findings)")
    def add_bench_flags(cmd, name):
        cmd.add_argument("--quick", action="store_true",
                         help="fewer sweep points")
        cmd.add_argument("--record", default=None, metavar="PATH",
                         help=f"write the sweep as a BENCH_{name}.json "
                              f"record")
        cmd.add_argument("--compare", default=None, metavar="PATH",
                         help="compare against a previous bench record "
                              "(exit 1 on regression)")
        cmd.add_argument("--tolerance", type=float, default=0.2,
                         help="allowed relative slowdown vs the baseline "
                              "(default 0.2 = 20%%)")

    def add_profile_flags(cmd):
        cmd.add_argument("--profile", action="store_true",
                         help="attribute host CPU/allocations to protocol "
                              "phases and sample stacks during the sweep")
        cmd.add_argument("--profile-out", default="profile.folded",
                         metavar="PATH",
                         help="collapsed-stack output for --profile "
                              "(default profile.folded)")
        cmd.add_argument("--profile-sample-interval", type=float,
                         default=0.005, metavar="SEC",
                         help="stack-sampler period in wall seconds "
                              "(default 0.005)")

    fig6 = sub.add_parser("fig6", help="Figure 6 sweep")
    add_bench_flags(fig6, "fig6")
    add_profile_flags(fig6)
    fig6.add_argument("--no-bulk-lane", action="store_true",
                      help="disable the out-of-band recovery bulk lane "
                           "(the paper's in-order fragmented transfer)")
    recovery_scale = sub.add_parser(
        "recovery-scale",
        help="recovery time and concurrent request throughput vs large "
             "state sizes (out-of-band bulk lane)")
    add_bench_flags(recovery_scale, "recovery_scale")
    add_profile_flags(recovery_scale)
    recovery_scale.add_argument(
        "--no-bulk-lane", action="store_true",
        help="disable the out-of-band recovery bulk lane "
             "(the paper's in-order fragmented transfer)")
    checkpoint = sub.add_parser(
        "checkpoint", help="warm-passive checkpoint transfer cost sweep "
                           "(delta state transfer, ~10%% dirty workload)")
    add_bench_flags(checkpoint, "checkpoint")
    checkpoint.add_argument("--no-delta", action="store_true",
                            help="disable delta state transfer (ship full "
                                 "snapshots, the paper's §3.3 behaviour)")
    throughput = sub.add_parser(
        "throughput", help="open-loop wire-bound throughput sweep "
                           "(token-rotation frame packing)")
    add_bench_flags(throughput, "throughput")
    add_profile_flags(throughput)
    throughput.add_argument("--no-packing", action="store_true",
                            help="disable Totem frame packing (one frame "
                                 "per fragment)")
    cold_restart = sub.add_parser(
        "cold-restart",
        help="durable-journal restart economics: warm vs no-store wire "
             "bytes, plus full-cluster cold boot from the journals")
    add_bench_flags(cold_restart, "cold_restart")
    cold_restart.add_argument(
        "--min-ratio", type=float, default=10.0,
        help="required no-store/warm state-wire-bytes ratio "
             "(default 10; exit 1 if a sweep point falls under)")
    store_cmd = sub.add_parser(
        "store", help="inspect (and optionally compact) the durable "
                      "journals under a live --store-dir")
    store_cmd.add_argument("--store-dir", required=True, metavar="DIR",
                           help="a per-node journal root, or a `live "
                                "--store-dir` root holding one per node")
    store_cmd.add_argument("--compact", action="store_true",
                           help="rewrite each journal down to its newest "
                                "checkpoint plus the pending message tail")
    sub.add_parser("styles", help="replication-style disruption comparison")
    trace = sub.add_parser(
        "trace", help="run kill/recover and export the trace")
    trace.add_argument("--state-size", type=int, default=50_000,
                       help="application-level state size in bytes")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--jsonl-out", default=None, metavar="PATH",
                       help="JSONL (one record per line) output path")
    def add_watch_flags(cmd):
        cmd.add_argument("--watch", type=float, default=None, metavar="SEC",
                         help="re-render in place every SEC seconds of "
                              "simulated time instead of one final dump")
        cmd.add_argument("--watch-count", type=int, default=10, metavar="N",
                         help="number of --watch refreshes (default 10)")

    metrics = sub.add_parser(
        "metrics", help="run kill/recover and print the metrics registry")
    metrics.add_argument("--state-size", type=int, default=50_000,
                         help="application-level state size in bytes")
    metrics.add_argument("--prefix", default="",
                         help="only print metrics whose name starts with "
                              "this prefix")
    add_watch_flags(metrics)
    health = sub.add_parser(
        "health", help="run kill/recover, audit it, and print the "
                       "Prometheus-style health exposition")
    health.add_argument("--state-size", type=int, default=50_000,
                        help="application-level state size in bytes")
    add_watch_flags(health)
    top = sub.add_parser(
        "top", help="live-refreshing per-node telemetry table (simulated "
                    "kill/recover, or --url against a live node)")
    top.add_argument("--url", default=None, metavar="URL",
                     help="poll a live health server (e.g. "
                          "http://127.0.0.1:8500) instead of simulating")
    top.add_argument("--interval", type=float, default=0.5,
                     help="refresh interval: simulated seconds per frame, "
                          "or wall-clock seconds with --url (default 0.5)")
    top.add_argument("--count", type=int, default=10,
                     help="number of refreshes (default 10)")
    top.add_argument("--state-size", type=int, default=10_000,
                     help="application-level state size in bytes "
                          "(simulated mode)")
    obs = sub.add_parser(
        "obs-overhead", help="wall-clock overhead of the telemetry plane "
                             "on the fault-free throughput workload")
    add_bench_flags(obs, "obs_overhead")
    obs.add_argument("--max-overhead", type=float, default=0.03,
                     help="hard budget for the on/off wall-clock ratio "
                          "minus one (default 0.03 = 3%%; exit 1 if over)")
    profile = sub.add_parser(
        "profile", help="span-scoped CPU/alloc attribution + sampled "
                        "stacks for the kill/recover scenario")
    profile.add_argument("--quick", action="store_true",
                         help="shorter load phases")
    profile.add_argument("--live", action="store_true",
                         help="profile the live (loopback-UDP) runner "
                              "instead of the simulator — includes the "
                              "transport's syscall counters")
    profile.add_argument("--state-size", type=int, default=50_000,
                         help="application-level state size in bytes")
    profile.add_argument("--out", default="profile.folded", metavar="PATH",
                         help="collapsed-stack output path "
                              "(default profile.folded)")
    profile.add_argument("--sample-interval", type=float, default=0.005,
                         metavar="SEC",
                         help="stack-sampler period in wall seconds "
                              "(default 0.005)")
    profile.add_argument("--alloc-trace", action="store_true",
                         help="also trace allocation bytes via tracemalloc "
                              "(expensive; simulated mode only)")
    prof_overhead = sub.add_parser(
        "prof-overhead", help="wall-clock overhead of the profiler on the "
                              "fault-free throughput workload")
    add_bench_flags(prof_overhead, "prof_overhead")
    prof_overhead.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="hard budget for the profiler-on in-situ share minus one "
             "(default 0.05 = 5%%; profiler-off must be exactly zero; "
             "exit 1 if over)")
    live = sub.add_parser(
        "live", help="run the stack over loopback UDP and wall-clock time")
    live.add_argument("--nodes", type=int, default=3,
                      help="total nodes: one manager/driver node plus "
                           "app replicas (min 3); with --rings, per ring")
    live.add_argument("--rings", type=int, default=1,
                      help="independent Totem rings sharded over a "
                           "consistent-hashing placement layer (>1 runs "
                           "the multi-ring scenario: closed-loop load on "
                           "every ring, kill/recover inside r0, healthy "
                           "rings must keep streaming)")
    live.add_argument("--app", default="counter",
                      choices=("counter", "kvstore", "kvstore-read"),
                      help="which servant to replicate and drive "
                           "(kvstore-read streams a read-heavy put/get "
                           "mix that exercises the read fast path)")
    live.add_argument("--duration", type=float, default=10.0,
                      help="total run length in wall-clock seconds")
    live.add_argument("--kill-after", type=float, default=2.0,
                      help="seconds of load before killing a replica")
    live.add_argument("--downtime", type=float, default=0.5,
                      help="seconds between the kill and the re-launch")
    live.add_argument("--state-size", type=int, default=10_000,
                      help="application-level state size in bytes "
                           "(kvstore only)")
    live.add_argument("--health-port", type=int, default=None,
                      metavar="PORT",
                      help="serve the live health exposition over HTTP "
                           "on this port (0 = ephemeral)")
    live.add_argument("--health-out", default=None, metavar="PATH",
                      help="write a final health exposition to PATH")
    live.add_argument("--trace-out", default=None, metavar="PATH",
                      help="export the run's trace to PATH")
    live.add_argument("--trace-format", choices=("chrome", "jsonl"),
                      default="chrome",
                      help="export format for --trace-out")
    live.add_argument("--store-dir", default=None, metavar="DIR",
                      help="keep per-node durable journals under DIR "
                           "(see repro.store): a node re-launched on the "
                           "same DIR restores from its journal first and "
                           "fetches only the tail from live peers")
    live.add_argument("--store-fsync",
                      choices=("always", "checkpoint", "never"),
                      default="checkpoint",
                      help="journal fsync policy for --store-dir "
                           "(default: checkpoint)")
    live.add_argument("--uvloop", action="store_true",
                      help="drive the run with uvloop's event loop "
                           "(requires the optional extra: "
                           "pip install 'eternal-repro[uvloop]')")
    live.add_argument("--no-read-lease", dest="read_lease",
                      action="store_false", default=True,
                      help="disable the leader-lease read fast path and "
                           "route every invocation through the total "
                           "order (the paper's original behaviour)")
    live.add_argument("--flight-dir", default=None, metavar="DIR",
                      help="write flight-recorder dumps (JSONL, one file "
                           "per node) to DIR: automatically on node kill, "
                           "audit violation, crash, or SIGINT, and for "
                           "every node at shutdown")
    add_profile_flags(live)
    live_tp = sub.add_parser(
        "live-throughput",
        help="closed-loop throughput of the live hot path over loopback "
             "UDP: total-order vs read-lease arms plus a saturation "
             "receive-batching probe")
    add_bench_flags(live_tp, "live")
    live_tp.add_argument("--duration", type=float, default=2.0,
                         help="measurement window per arm in wall-clock "
                              "seconds (default 2)")
    live_tp.add_argument("--uvloop", action="store_true",
                         help="drive all arms with uvloop's event loop "
                              "(requires the optional extra)")
    # ~760 ordered vs ~1540 leased acks/s, about 2.0x with neither arm
    # asleep (see MIN_SPEEDUP in benchmarks/test_live_throughput.py).
    live_tp.add_argument("--min-speedup", type=float, default=1.5,
                         help="required read-lease over total-order "
                              "throughput ratio (default 1.5; exit 1 "
                              "under)")
    shard = sub.add_parser(
        "shard-scale",
        help="aggregate throughput of a fixed closed-loop workload "
             "sharded over 1..8 independent Totem rings (simulated)")
    add_bench_flags(shard, "shard_scale")
    shard.add_argument("--pairs", type=int, default=16,
                       help="closed-loop driver/server pairs in the "
                            "fixed work budget (default 16; must divide "
                            "by every swept ring count)")
    shard.add_argument("--duration", type=float, default=1.0,
                       help="measurement window per arm in simulated "
                            "seconds (default 1; --quick uses 0.5)")
    shard.add_argument("--min-scaling", type=float, default=4.0,
                       help="required 8-ring over 1-ring aggregate "
                            "throughput ratio (default 4; exit 1 under)")
    args = parser.parse_args(argv)
    handlers = {
        "version": _cmd_version,
        "demo": _cmd_demo,
        "fig6": _cmd_fig6,
        "recovery-scale": _cmd_recovery_scale,
        "checkpoint": _cmd_checkpoint,
        "throughput": _cmd_throughput,
        "cold-restart": _cmd_cold_restart,
        "store": _cmd_store,
        "styles": _cmd_styles,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "health": _cmd_health,
        "top": _cmd_top,
        "obs-overhead": _cmd_obs_overhead,
        "profile": _cmd_profile,
        "prof-overhead": _cmd_prof_overhead,
        "live": _cmd_live,
        "live-throughput": _cmd_live_throughput,
        "shard-scale": _cmd_shard_scale,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
