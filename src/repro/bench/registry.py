"""The bench registry: every ``python -m repro <sweep>`` command is a row.

A :class:`Bench` row declares only what differs between the sweep
commands: names, metric, sweep values, the ``run_*_point`` to call and
with which keywords, how the sweep becomes table rows and record points,
the table's texts, and optionally a hard gate, one on/off switch and
``--profile`` support.  :func:`run_bench` is the one body they share.

:data:`BENCHES` are the nine rows gated by a committed
``benchmarks/baselines/BENCH_<record>.json``; :data:`STYLES` is the one
ungated table on the same body.  Thresholds nobody ever set from the
command line are constants here, imported by the pytest benchmarks that
assert the same claims.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import shardbench, sweeps
from repro.bench.regression import BenchRecord, compare_bench_records
from repro.bench.reporting import print_table
from repro.ftcorba.properties import ReplicationStyle
from repro.obs.metrics import merge_registries
from repro.obs.profiling import ProfileSession

#: One sweep: ``(sweep value, that point's result)`` in sweep order.
Sweep = Sequence[Tuple[Any, Dict[str, Any]]]
#: A hard gate's outcome: the footer line and whether the gate holds.
Verdict = Tuple[str, bool]

#: Telemetry plane: in-situ share of a fault-free run, at most 3 %.
OBS_MAX_OVERHEAD = 0.03
#: Profiler: enabled at most 5 % (disabled must be exactly zero).
PROF_MAX_OVERHEAD = 0.05
#: Warm-journal restart: no-store / warm state wire bytes, floor per
#: swept state size (350 kB is the acceptance point).
COLD_RESTART_MIN_RATIO = {64_000: 5.0, 350_000: 10.0}
#: Read lease over total order, closed-loop acks/s.  The ratio *shrinks*
#: whenever the ordered path speeds up — the lease only spares the reads
#: a rotation, so a cheaper rotation buys it less: 2.6x over a sleeping
#: token, ~2.0x once both arms were CPU-bound, ~1.7x now that an ordered
#: invocation costs one rotation instead of two (~940 ordered vs ~1620
#: leased; 1.47–2.03x, median 1.72x, over ten ``--quick`` runs).  The
#: floor sits 15 % under the worst of those ten: it says the fast path
#: still pays for itself, not how slow the ordered path must stay.
LIVE_MIN_SPEEDUP = 1.25
#: 8 rings over 1 ring, aggregate throughput on the same work budget.
SHARD_MIN_SCALING = 4.0
#: Closed-loop driver/server pairs in shard-scale's fixed work budget
#: (divides by every swept ring count).
SHARD_PAIRS = 16


@dataclass(frozen=True)
class Switch:
    """The one on/off flag a row may add: an ablation that turns a
    mechanism off for the whole sweep, or ``--uvloop``."""

    flag: str           # e.g. "--no-delta"; argparse dest follows from it
    help: str
    off: str = ""       # {mode} in the row's title without the flag
    on: str = ""        # … and with it

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


@dataclass(frozen=True)
class Bench:
    """One sweep command: what differs from the other rows, nothing else."""

    command: str                        # python -m repro <command>
    help: str
    title: str                          # may carry {mode}, see Switch
    columns: Tuple[str, ...]
    paper_note: str
    sweep: Sequence[Any]
    runner: Callable[..., Dict[str, Any]]       # run_*_point(value, **kw)
    table: Callable[[Sweep], List[List[Any]]]
    #: ``(args, profile session or None) ->`` keywords for ``runner``
    kwargs: Callable[..., Dict[str, Any]] = lambda args, session: {}
    quick: Optional[Sequence[Any]] = None       # --quick sweep values
    record: Optional[str] = None        # BENCH_<record>.json; None: ungated
    metric: str = ""
    unit: str = ""
    points: Optional[Callable[[Sweep], Dict[str, float]]] = None
    gate: Optional[Callable[[Sweep], Verdict]] = None
    breach: str = ""                    # appended to the line when it fails
    switch: Optional[Switch] = None
    profile: bool = False               # takes --profile
    after_table: Optional[Callable[[Sweep], None]] = None


def add_arguments(parser: argparse.ArgumentParser, bench: Bench) -> None:
    """Define the options ``bench`` declares on its sub-command parser
    (the shared ``--profile*`` trio is added by the CLI, which also gives
    it to ``live``)."""
    if bench.quick:
        parser.add_argument("--quick", action="store_true",
                            help="fewer sweep points")
    if bench.record:
        parser.add_argument("--record", default=None, metavar="PATH",
                            help=f"write the sweep as a "
                                 f"BENCH_{bench.record}.json record")
        parser.add_argument("--compare", default=None, metavar="PATH",
                            help="compare against a previous bench record "
                                 "(exit 1 on regression)")
    if bench.switch:
        parser.add_argument(bench.switch.flag, action="store_true",
                            help=bench.switch.help)


def run_bench(bench: Bench, args: argparse.Namespace) -> int:
    """Run ``bench`` as its CLI command: sweep, ``--record``/``--compare``,
    hard gate, table, profile table.  Returns the exit code — 0, 1 on a
    regression, gate breach or failed sweep, 2 on an unusable baseline."""
    quick = bool(bench.quick) and args.quick
    session = None
    if bench.profile and args.profile:
        session = ProfileSession(
            sample_interval=args.profile_sample_interval)
        session.start()
    kwargs = bench.kwargs(args, session)
    try:
        sweep = [(value, bench.runner(value, **kwargs))
                 for value in (bench.quick if quick else bench.sweep)]
    except (RuntimeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.stop()

    footer: List[str] = []
    code = 0
    points = bench.points(sweep) if bench.points else {}
    if bench.record and (args.record or args.compare):
        record = BenchRecord.from_points(bench.record, bench.metric,
                                         bench.unit, points)
        if args.compare:
            try:
                baseline = BenchRecord.load(args.compare)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error: cannot load baseline {args.compare!r}: "
                      f"{exc}", file=sys.stderr)
                return 2
            comparison = compare_bench_records(baseline, record)
            footer.append(comparison.verdict)
            code = 0 if comparison.ok else 1
        if args.record:
            record.write(args.record)
    if bench.gate:
        line, holds = bench.gate(sweep)
        if not holds:
            line += f"  — {bench.breach}"
            code = 1
        footer.append(line)

    switch = bench.switch
    mode = switch and (switch.on if getattr(args, switch.dest)
                       else switch.off)
    print_table(bench.title.format(mode=mode), bench.columns,
                bench.table(sweep), paper_note=bench.paper_note,
                footer="\n".join(footer) or None)
    if bench.after_table:
        bench.after_table(sweep)
    if session is not None:
        print("\nper-phase resource attribution (profiler):")
        print(session.render_table())
        lines = session.write_folded(args.profile_out)
        print(f"\nwrote {lines} folded stacks to {args.profile_out} "
              f"({session.sampler.samples_taken} samples; render with "
              f"flamegraph.pl or speedscope)")
    if bench.record and args.record:
        print(f"\nwrote bench record to {args.record}")
    return code


# ---------------------------------------------------------------------------
# Hard gates, the one multi-row table and the one epilogue
# ---------------------------------------------------------------------------

def _obs_gate(sweep: Sweep) -> Verdict:
    worst = max(round(r["overhead_ratio"], 4) for _, r in sweep)
    return (f"worst overhead {100 * (worst - 1):+.2f}% "
            f"(budget ≤{100 * OBS_MAX_OVERHEAD:.0f}%)",
            worst - 1.0 <= OBS_MAX_OVERHEAD)


def _prof_gate(sweep: Sweep) -> Verdict:
    worst_off = max(1.0, *(r["off_ratio"] for _, r in sweep))
    worst_on = max(round(r["overhead_ratio"], 4) for _, r in sweep)
    return (f"off overhead {100 * (worst_off - 1):+.4f}% (must be 0), "
            f"on {100 * (worst_on - 1):+.2f}% "
            f"(budget ≤{100 * PROF_MAX_OVERHEAD:.0f}%)",
            worst_off <= 1.0 + 1e-9
            and worst_on - 1.0 <= PROF_MAX_OVERHEAD)


def _cold_restart_gate(sweep: Sweep) -> Verdict:
    # the point with the least headroom over its own size's floor
    size, result = min(
        sweep,
        key=lambda p: p[1]["wire_ratio"] / COLD_RESTART_MIN_RATIO[p[0]])
    floor = COLD_RESTART_MIN_RATIO[size]
    return (f"worst warm-journal wire saving {result['wire_ratio']:.1f}x "
            f"(gate ≥{floor:.0f}x)", result["wire_ratio"] >= floor)


def _live_gate(sweep: Sweep) -> Verdict:
    result = sweep[0][1]
    batching = 1.0 / result["points"]["wakeups_per_datagram"]
    return (f"read-lease speedup {result['speedup']:.2f}x "
            f"(gate ≥{LIVE_MIN_SPEEDUP:.2f}x); saturation receive "
            f"batching {batching:.2f} datagrams/wakeup",
            result["speedup"] >= LIVE_MIN_SPEEDUP)


def _shard_gate(sweep: Sweep) -> Verdict:
    top, result = sweep[-1]             # ring counts ascend
    scaling = result["throughput_per_s"] / sweep[0][1]["throughput_per_s"]
    return (f"{top}-ring aggregate {scaling:.2f}x the single ring "
            f"(gate ≥{SHARD_MIN_SCALING:.1f}x, same {SHARD_PAIRS}-pair "
            f"work/node budget)", scaling >= SHARD_MIN_SCALING)


def _fig6_phase_table(sweep: Sweep) -> None:
    merged = merge_registries([r["metrics"] for _, r in sweep])
    print("\nper-phase latency across the sweep (ms):")
    print(merged.format_table(prefix="span.recovery", scale=1000.0,
                              unit="ms"))


def _run_live_throughput(duration: float, *,
                         use_uvloop: bool = False) -> Dict[str, Any]:
    # imported on use: asyncio + repro.live are a quarter of the CLI's
    # start-up, and every other command builds this registry too
    from repro.bench.livebench import run_live_throughput
    return run_live_throughput(duration, use_uvloop=use_uvloop)


def _live_table(sweep: Sweep) -> List[List[Any]]:
    rows = []
    for label in ("ordered", "leased", "saturated"):
        arm = sweep[0][1][label]    # the one sweep point carries all arms
        rows.append([label, arm["n_drivers"],
                     "on" if arm["read_lease"] else "off",
                     round(arm["acked_per_s"], 1), arm["acked"],
                     arm["fast_reads"], arm["fallbacks"],
                     round(arm["datagrams_per_wakeup"], 2)])
    return rows


_NO_BULK_LANE = Switch(
    "--no-bulk-lane",
    "disable the out-of-band recovery bulk lane (the paper's in-order "
    "fragmented transfer)",
    off="out-of-band bulk lane", on="in-order ablation (--no-bulk-lane)")


# ---------------------------------------------------------------------------
# The rows
# ---------------------------------------------------------------------------

BENCHES: Tuple[Bench, ...] = (
    Bench(
        command="fig6", record="fig6", metric="recovery_ms", unit="ms",
        help="Figure 6 sweep",
        title="Figure 6 — recovery time vs application-level state size",
        columns=("state_bytes", "recovery_ms"),
        paper_note="flat below one Ethernet frame, then linear in the "
                   "fragment count",
        sweep=(10, 1_000, 10_000, 50_000, 100_000, 200_000, 350_000),
        quick=(10, 10_000, 100_000, 350_000),
        runner=sweeps.run_fig6_point,
        kwargs=lambda args, session: {"bulk": not args.no_bulk_lane,
                                      "profile": session},
        table=lambda sweep: [[size, round(r["recovery_ms"], 3)]
                             for size, r in sweep],
        points=lambda sweep: {str(size): round(r["recovery_ms"], 3)
                              for size, r in sweep},
        switch=_NO_BULK_LANE, profile=True,
        after_table=_fig6_phase_table,
    ),
    Bench(
        command="recovery-scale", record="recovery_scale",
        metric="recovery_ms", unit="ms",
        help="recovery time and concurrent request throughput vs large "
             "state sizes (out-of-band bulk lane)",
        title="Recovery at scale — {mode}",
        columns=("state_bytes", "recovery_ms", "oob_kB", "inorder_kB",
                 "driver_base_per_s", "driver_during_per_s",
                 "during_ratio"),
        paper_note="the bulk lane moves checkpoint pages off the totally "
                   "ordered ring; the set_state multicast carries only a "
                   "page manifest, so concurrent request traffic keeps "
                   "flowing",
        # the fig-6 tail and beyond, where the in-order transfer is
        # fragment-bound and the bulk lane pays
        sweep=(64_000, 128_000, 256_000, 350_000, 512_000),
        quick=(64_000, 256_000, 350_000),
        runner=sweeps.run_recovery_scale_point,
        kwargs=lambda args, session: {"bulk": not args.no_bulk_lane,
                                      "profile": session},
        table=lambda sweep: [
            [size, round(r["recovery_ms"], 3),
             round(r["oob_bytes"] / 1000.0, 1),
             round(r["inorder_bytes"] / 1000.0, 1),
             int(r["baseline_per_s"]), int(r["during_per_s"]),
             round(r["during_ratio"], 3)]
            for size, r in sweep],
        points=lambda sweep: {str(size): round(r["recovery_ms"], 3)
                              for size, r in sweep},
        switch=_NO_BULK_LANE, profile=True,
    ),
    Bench(
        command="checkpoint", record="checkpoint",
        metric="checkpoint_xfer_ms", unit="ms",
        help="warm-passive checkpoint transfer cost sweep (delta state "
             "transfer, ~10%% dirty workload)",
        title="Checkpoint transfer cost vs state size ({mode}, ~10% dirty)",
        columns=("state_bytes", "ckpts", "median_ms", "p95_ms",
                 "delta_wire_B", "full_equiv_B"),
        paper_note="§3.3 ships the whole state every interval; deltas "
                   "make the cost linear in changed pages",
        sweep=(10_000, 50_000, 100_000, 200_000, 350_000),
        quick=(10_000, 100_000, 350_000),
        runner=sweeps.run_checkpoint_point,
        kwargs=lambda args, session: {"delta": not args.no_delta},
        table=lambda sweep: [
            [size, r["checkpoints"], round(r["median_ms"], 3),
             round(r["p95_ms"], 3), int(r["wire_bytes"]),
             int(r["full_bytes"])]
            for size, r in sweep],
        points=lambda sweep: {str(size): round(r["median_ms"], 3)
                              for size, r in sweep},
        switch=Switch(
            "--no-delta",
            "disable delta state transfer (ship full snapshots, the "
            "paper's §3.3 behaviour)",
            off="page deltas", on="full snapshots"),
    ),
    Bench(
        command="throughput", record="throughput",
        metric="mean_latency_ms", unit="ms",
        help="open-loop wire-bound throughput sweep (token-rotation frame "
             "packing)",
        title="Open-loop wire-bound throughput sweep ({mode})",
        columns=("offered_per_s", "achieved_per_s", "mean_latency_ms",
                 "p99_latency_ms"),
        paper_note="multi-payload DATA frames amortize per-frame header, "
                   "inter-frame gap, and per-frame CPU",
        # offered invocations/s
        sweep=(4_000, 8_000, 16_000, 32_000, 64_000),
        quick=(8_000, 32_000, 64_000),
        runner=sweeps.run_throughput_point,
        kwargs=lambda args, session: {
            "frame_packing": not args.no_packing,
            "echo_duration": sweeps.WIRE_BOUND_ECHO, "profile": session},
        table=lambda sweep: [
            [rate, int(r["achieved"]), round(r["mean_ms"], 3),
             round(r["p99_ms"], 3)]
            for rate, r in sweep],
        points=lambda sweep: {str(rate): round(r["mean_ms"], 3)
                              for rate, r in sweep},
        switch=Switch(
            "--no-packing",
            "disable Totem frame packing (one frame per fragment)",
            off="frame packing on", on="frame packing off"),
        profile=True,
    ),
    Bench(
        command="cold-restart", record="cold_restart",
        metric="cold_restart", unit="mixed",
        help="durable-journal restart economics: warm vs no-store wire "
             "bytes, plus full-cluster cold boot from the journals",
        title="Cold restart — durable journal vs network-only recovery",
        columns=("state_bytes", "warm_ms", "warm_wire_kB", "nostore_ms",
                 "nostore_wire_kB", "wire_ratio", "coldboot_ms"),
        paper_note="a restarting replica replays its journal "
                   "(checkpoint + logged messages) and fetches only the "
                   "digest-negotiated tail from live peers; with every "
                   "replica dead the best journal seeds the group "
                   "(cold-boot election)",
        sweep=sweeps.COLD_RESTART_SIZES,
        quick=sweeps.COLD_RESTART_SIZES_QUICK,
        runner=sweeps.run_cold_restart_point,
        table=lambda sweep: [
            [size, round(r["warm_recovery_ms"], 3),
             round(r["warm_wire_bytes"] / 1000.0, 1),
             round(r["nostore_recovery_ms"], 3),
             round(r["nostore_wire_bytes"] / 1000.0, 1),
             (round(r["wire_ratio"], 1)
              if r["wire_ratio"] != float("inf") else "inf"),
             round(r["cold_recovery_ms"], 3)]
            for size, r in sweep],
        points=lambda sweep: {
            f"{series}:{size}": value
            for size, r in sweep
            for series, value in (
                ("warm_ms", round(r["warm_recovery_ms"], 3)),
                ("cold_ms", round(r["cold_recovery_ms"], 3)),
                ("warm_kB", round(r["warm_wire_bytes"] / 1000.0, 1)))},
        gate=_cold_restart_gate, breach="UNDER GATE",
    ),
    Bench(
        command="obs-overhead", record="obs_overhead",
        metric="overhead_ratio", unit="ratio",
        help="wall-clock overhead of the telemetry plane on the "
             "fault-free throughput workload",
        title="Telemetry-plane overhead — fault-free throughput",
        columns=("offered_per_s", "telemetry_off_ms", "telemetry_on_ms",
                 "plane_overhead"),
        paper_note="plane_overhead = run / (run - in-situ plane time): "
                   "perf_counter accumulated inside ring admission and "
                   "sampler ticks during a telemetry-on run.  Wall-clock "
                   "on/off A-B deltas on shared hardware swing +/-10% — "
                   "far above a 3% budget — so the gate measures the "
                   "plane's own share, which is stable to ~0.1%.",
        sweep=(4_000, 16_000), quick=(8_000,),     # offered invocations/s
        runner=sweeps.run_obs_overhead_point,
        kwargs=lambda args, session: {"repeats": 2 if args.quick else 3},
        table=lambda sweep: [
            [rate, round(r["off_s"] * 1000, 1), round(r["on_s"] * 1000, 1),
             round(r["overhead_ratio"], 4)]
            for rate, r in sweep],
        points=lambda sweep: {str(rate): round(r["overhead_ratio"], 4)
                              for rate, r in sweep},
        gate=_obs_gate, breach="OVER BUDGET",
    ),
    Bench(
        command="prof-overhead", record="prof_overhead",
        metric="overhead_ratio", unit="ratio",
        help="wall-clock overhead of the profiler on the fault-free "
             "throughput workload",
        title="Profiler overhead — fault-free throughput",
        columns=("offered_per_s", "profiler_off_ms", "profiler_on_ms",
                 "off_ratio", "on_ratio"),
        paper_note="in-situ shares (InSituProbe inside span bookkeeping "
                   "and sampler walks), like obs-overhead.  off_ratio is "
                   "structural: a disabled profiler never subscribes to "
                   "the tracer, so its probed share is exactly zero.",
        sweep=(4_000, 16_000), quick=(8_000,),     # offered invocations/s
        runner=sweeps.run_prof_overhead_point,
        kwargs=lambda args, session: {"repeats": 2 if args.quick else 3},
        table=lambda sweep: [
            [rate, round(r["off_s"] * 1000, 1), round(r["on_s"] * 1000, 1),
             round(r["off_ratio"], 4), round(r["overhead_ratio"], 4)]
            for rate, r in sweep],
        points=lambda sweep: {
            f"{arm}:{rate}": round(r[key], 4)
            for rate, r in sweep
            for arm, key in (("off", "off_ratio"),
                             ("on", "overhead_ratio"))},
        gate=_prof_gate, breach="OVER BUDGET",
    ),
    Bench(
        command="live-throughput", record="live",
        metric="live_throughput", unit="ratio",
        help="closed-loop throughput of the live hot path over loopback "
             "UDP: total-order vs read-lease arms plus a saturation "
             "receive-batching probe",
        title="Live closed-loop throughput — total order vs read lease "
              "(loopback UDP, wall clock)",
        columns=("arm", "drivers", "lease", "acked_per_s", "acked",
                 "fast_reads", "fallbacks", "dg_per_wakeup"),
        paper_note="the paper orders every IIOP message through Totem; "
                   "read_only operations served by the ring leaseholder "
                   "skip the token rotation entirely, and the batched "
                   "transport drains multiple datagrams per wakeup at "
                   "saturation",
        # one sweep point: the measurement window per arm, wall seconds
        sweep=(2.0,), quick=(1.0,),
        runner=_run_live_throughput,
        kwargs=lambda args, session: {"use_uvloop": args.uvloop},
        table=_live_table,
        points=lambda sweep: sweep[0][1]["points"],
        gate=_live_gate, breach="UNDER GATE",
        switch=Switch("--uvloop", "drive all arms with uvloop's event loop "
                                  "(requires the optional extra)"),
    ),
    Bench(
        command="shard-scale", record="shard_scale",
        metric="cost_ratio", unit="ratio",
        help="aggregate throughput of a fixed closed-loop workload "
             "sharded over 1..8 independent Totem rings (simulated)",
        title="Sharded aggregate throughput — object groups over a "
              "consistent-hashing ring of Totem rings (simulated time)",
        columns=("rings", "nodes_per_ring", "acked", "acked_per_s",
                 "inv_cost_us", "vs_1_ring"),
        paper_note="one Totem ring serialises all traffic through one "
                   "token rotation, so the single-ring arm is flat no "
                   "matter how many pairs share it; sharding the same "
                   "pairs over independent rings multiplies the "
                   "available rotations and aggregate throughput "
                   "scales near-linearly",
        sweep=shardbench.SHARD_SCALE_RINGS,
        quick=shardbench.SHARD_SCALE_RINGS_QUICK,
        runner=shardbench.run_shard_scale_point,
        # the window per arm in simulated seconds
        kwargs=lambda args, session: {
            "pairs": SHARD_PAIRS, "duration": 0.5 if args.quick else 1.0},
        table=lambda sweep: [
            [rings, SHARD_PAIRS // rings * 2, r["acked"],
             round(r["throughput_per_s"], 1), round(r["inv_cost_us"], 2),
             round(r["throughput_per_s"]
                   / sweep[0][1]["throughput_per_s"], 2)]
            for rings, r in sweep],
        # Machine-independent points: each arm's per-invocation cost
        # relative to the single-ring arm (simulated time, so
        # deterministic; lower is better — the 8-ring point ≈ 1/scaling).
        points=lambda sweep: {
            f"rings_{rings}": round(r["inv_cost_us"]
                                    / sweep[0][1]["inv_cost_us"], 4)
            for rings, r in sweep},
        gate=_shard_gate, breach="UNDER GATE",
    ),
)

#: Not a gate (no record, no baseline): the §6 style comparison table.
STYLES = Bench(
    command="styles",
    help="replication-style disruption comparison",
    title="Replication styles — client-visible disruption at a fault",
    columns=("style", "disruption_ms"),
    paper_note="active: faster recovery; passive: fewer resources (§6)",
    sweep=(ReplicationStyle.ACTIVE, ReplicationStyle.WARM_PASSIVE,
           ReplicationStyle.COLD_PASSIVE),
    runner=sweeps.run_styles_point,
    table=lambda sweep: [[style.value, round(r["disruption_ms"], 2)]
                         for style, r in sweep],
)
