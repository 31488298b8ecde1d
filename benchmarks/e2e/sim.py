"""The ``sim-fig6`` workload: the paper's Figure 6 on the simulator.

``build_client_server`` + ``measure_recovery`` at three state sizes with
the bulk lane off and on — six points a round, the same round repeated
until the run's seconds are spent (a deterministic simulator must give
every round the same curve).  Nothing under ``repro.live`` runs, so the wall
time is ``simnet`` plus protocol CPU (what every tier-1 test pays), and
the recovery times are simulated milliseconds that repeat exactly.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import Counter
from typing import Any, Dict, List

from repro.bench.deployments import build_client_server, measure_recovery
from repro.core.config import EternalConfig

import summary

STATE_SIZES = (10, 100_000, 350_000)
GRID = tuple((size, bulk) for size in STATE_SIZES for bulk in (False, True))

#: Simulated seconds each point keeps the packet driver streaming after
#: the recovery, so invocations flow past the reinstated replica.
POST_RECOVERY = 0.05


def run_point(size: int, bulk_lane: bool, sim_seed: int) -> Dict[str, Any]:
    """One Figure-6 point: deploy, warm up, kill/restart the last server
    replica, stream on, check the replicas agree."""
    t0 = time.perf_counter()
    deployment = build_client_server(
        state_size=size, eternal_config=EternalConfig(bulk_lane=bulk_lane),
        seed=sim_seed)
    system = deployment.system
    auditor = system.attach_auditor()
    t_built = time.perf_counter()
    frames0 = system.tracer.count("totem.frame")
    recovery_s = measure_recovery(deployment, deployment.server_nodes[-1])
    frames = system.tracer.count("totem.frame") - frames0
    system.run_for(POST_RECOVERY)

    def echo_counts() -> List[int]:
        return [deployment.server_servant(node).echo_count
                for node in deployment.server_nodes]

    # One replica may be a single event ahead when the clock stops.
    agree = system.wait_for(lambda: len(set(echo_counts())) == 1,
                            timeout=0.01)
    t_done = time.perf_counter()
    auditor.finish()
    problems = []
    if not agree:
        problems.append(f"echo_count differs at {size} B: {echo_counts()}")
    if not auditor.ok:
        problems.append(f"consistency audit at {size} B: {auditor.summary()}")
    driver = deployment.driver
    if not driver.acked <= driver.sent <= driver.acked + 1:
        problems.append(f"closed loop violated at {size} B")
    return {
        "size": size, "bulk_lane": bulk_lane, "sim_seed": sim_seed,
        "recovery_ms": recovery_s * 1e3,
        "build_s": t_built - t0,
        "measure_s": t_done - t_built,
        "wall_ms": (t_done - t0) * 1e3,
        "sim_s": system.now,
        "events": system.scheduler.events_executed,
        "frames_in_recovery": frames,
        "sent": driver.sent, "acked": driver.acked,
        "counters": dict(system.tracer.counters),
        "problems": problems,
    }


def curve(points: List[Dict[str, Any]]) -> Dict[str, float]:
    """``{size[.bulk]: simulated recovery ms}`` of the first round."""
    out: Dict[str, float] = {}
    for p in points[:len(GRID)]:
        out[f"{'bulk.' if p['bulk_lane'] else ''}{p['size']}"] = \
            p["recovery_ms"]
    return out


def run_sim(seed: int, seconds: float, window_hook=None) -> Dict[str, Any]:
    """Whole rounds of the grid until ``seconds`` have passed."""
    gc.collect()
    if window_hook is not None:
        window_hook("start", None)
    points: List[Dict[str, Any]] = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    rounds = 0
    while True:
        round_points = [run_point(size, bulk, seed) for size, bulk in GRID]
        points += round_points
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if window_hook is not None:
        window_hook("end", None)

    problems = [msg for p in points for msg in p["problems"]]
    first = curve(points)
    for r in range(1, rounds):
        if curve(points[r * len(GRID):]) != first:
            problems.append(f"round {r} did not repeat round 0's curve")
    if not (first["10"] < first["100000"] < first["350000"]
            and first["bulk.350000"] < first["350000"]):
        problems.append(f"Figure-6 shape lost: {first}")

    # Each grid entry does its own amount of work, so the quiet half is
    # taken entry by entry: the faster half of the rounds of each.
    kept_by_entry = [
        summary.quiet_half([p for p in points
                            if (p["size"], p["bulk_lane"]) == entry],
                           lambda p: -p["wall_ms"])
        for entry in GRID]
    kept = [p for entry_points in kept_by_entry for p in entry_points]
    sent = sum(p["sent"] for p in points)
    return {
        "setup_times_s": [p["build_s"] for p in points],
        "window_s": wall,
        "cpu_s": cpu,
        "e2e": {
            "ops_per_s": (sum(p["acked"] for p in kept) * 1e3
                          / sum(p["wall_ms"] for p in kept)),
            "latency_p50_ms": statistics.median(p["wall_ms"] for p in kept),
            "latency_p99_ms": max(
                statistics.median(p["wall_ms"] for p in entry_points)
                for entry_points in kept_by_entry),
            "acked": sum(p["acked"] for p in points),
            "timed": len(kept),
            "rounds": rounds,
        },
        "points": points,
        "counters": dict(sum((Counter(p["counters"]) for p in points),
                             Counter())),
        "curve": first,
        "gate": {"correct": not problems, "problems": problems,
                 "attempted": sent, "failed": sent if problems else 0},
    }
