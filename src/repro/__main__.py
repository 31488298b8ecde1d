"""Command-line interface: ``python -m repro <command>``.

Two kinds of command; ``python -m repro [<command>] --help`` lists them
and their options.

* Scenarios, one ``_cmd_*`` function each below: ``demo``, ``trace``,
  ``metrics``, ``health``, ``top`` and ``profile`` run the simulated
  kill/recover scenario and narrate, export, audit or profile it;
  ``live`` runs the stack over loopback UDP and the wall clock (see
  :mod:`repro.live`); ``store`` inspects a live run's durable journals.
* Sweeps, one row each of :mod:`repro.bench.registry`: the nine that gate
  a committed ``benchmarks/baselines/BENCH_*.json`` (``--quick``,
  ``--record``, ``--compare``) and the ``styles`` table.  This module
  only loops over the rows.

Every command exits non-zero on its failure paths (regressions, audit
findings, timeouts, unreadable baselines), so they can gate CI directly.
"""

from __future__ import annotations

import argparse
import functools
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

    auditor = ConsistencyAuditor.from_records(system.tracer.records)
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
    from repro.tools import recovery_phase_report, render_phase_table, \
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
    for report in recovery_phase_report(system.tracer):
        if report.complete:
            print(f"\nrecovered {report.group}@{report.node} in "
                  f"{report.total * 1000:.2f} ms "
                  f"({report.state_bytes} B of state)")
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


def _cmd_profile(args) -> int:
    from repro.obs.profiling import ProfileSession, syscall_counters

    if args.live:
        # Delegate to the live runner with profiling switched on: real
        # sockets, so the table includes the transport's syscall counters.
        from repro.live.cli import run_live
        return run_live(build_parser().parse_args([
            "live", "--app", "kvstore",
            "--state-size", str(args.state_size),
            "--duration", "3" if args.quick else "8",
            "--kill-after", "1" if args.quick else "2",
            "--profile", "--profile-out", args.out,
            "--profile-sample-interval", str(args.sample_interval)]))

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


def _cmd_live(args) -> int:
    from repro.live.cli import run_live

    return run_live(args)


def _cmd_fuzz(args) -> int:
    from repro.tools.fuzz import fuzz, replay

    if args.replay is not None:
        return replay(args.replay)
    return fuzz(args.seeds, args.budget)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser, every sub-command on it."""
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

    # Every sweep command is a row of the bench registry.
    from repro.bench.registry import BENCHES, STYLES, add_arguments

    for bench in (*BENCHES, STYLES):
        cmd = sub.add_parser(bench.command, help=bench.help)
        add_arguments(cmd, bench)
        if bench.profile:
            add_profile_flags(cmd)
    store_cmd = sub.add_parser(
        "store", help="inspect (and optionally compact) the durable "
                      "journals under a live --store-dir")
    store_cmd.add_argument("--store-dir", required=True, metavar="DIR",
                           help="a per-node journal root, or a `live "
                                "--store-dir` root holding one per node")
    store_cmd.add_argument("--compact", action="store_true",
                           help="rewrite each journal down to its newest "
                                "checkpoint plus the pending message tail")
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
    live = sub.add_parser(
        "live", help="run the stack over loopback UDP and wall-clock time")
    live.add_argument("--nodes", type=int, default=3,
                      help="total nodes: one manager/driver node plus "
                           "app replicas (min 3); with --rings, per ring")
    live.add_argument("--rings", type=int, default=1,
                      help="independent Totem rings sharded over a "
                           "consistent-hashing placement layer, each "
                           "under closed-loop load; the kill/recover "
                           "runs inside r0 and every other ring must "
                           "keep streaming (every flag works at every "
                           "ring count)")
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
    fuzz = sub.add_parser(
        "fuzz", help="seeded membership faults against a simulated ring; "
                     "exit 1 if any seed breaks an invariant")
    fuzz.add_argument("--seeds", type=int, default=150,
                      help="how many consecutive seeds, from 0, to run "
                           "at most")
    fuzz.add_argument("--budget", type=float, default=90.0,
                      help="CPU seconds after which no new seed starts")
    fuzz.add_argument("--replay", type=int, default=None, metavar="SEED",
                      help="re-run one seed, printing its scenario, "
                           "membership trace and findings")
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    from repro.bench.registry import BENCHES, STYLES, run_bench

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        **{bench.command: functools.partial(run_bench, bench)
           for bench in (*BENCHES, STYLES)},
        "version": _cmd_version,
        "demo": _cmd_demo,
        "store": _cmd_store,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "health": _cmd_health,
        "top": _cmd_top,
        "profile": _cmd_profile,
        "live": _cmd_live,
        "fuzz": _cmd_fuzz,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
