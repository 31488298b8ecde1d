"""Cold restart: what a durable journal buys on recovery (O-6).

Extension benchmark beyond the paper's volatile-replica model (§5.1): every
node keeps a write-ahead journal of durable checkpoints plus the ordered
message log past them (:mod:`repro.store`).  Three arms per state size:

* **warm** — one journal-backed replica is killed and re-launched; it
  restores locally and fetches only the digest-negotiated tail from its
  live peers.
* **no-store** — the identical restart without a journal: the whole
  application state crosses the wire (the paper's behaviour).
* **cold boot** — all three replicas die at once.  Fatal in the paper's
  system; with journals the deepest log wins a seed election, replays,
  and re-seeds the group with every committed invocation intact.

Gates:

* warm restart moves >= 10x fewer state bytes than no-store at 350 kB
  (the acceptance point), and already >= 5x at 64 kB — the per-size
  floors ``python -m repro cold-restart`` gates on,
* the full-cluster cold boot actually recovers (the sweep raises if it
  doesn't) and claims at least one seed,
* every run ends with matching digests (``strict_audit``).
"""

from repro.bench.registry import COLD_RESTART_MIN_RATIO
from repro.bench.reporting import print_table
from repro.bench.sweeps import COLD_RESTART_SIZES, run_cold_restart_point


def test_cold_restart_journal_vs_network(benchmark, strict_audit):
    results = {}

    def run_sweep():
        for size in COLD_RESTART_SIZES:
            results[size] = run_cold_restart_point(size)
        return results

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for size in COLD_RESTART_SIZES:
        point = results[size]
        ratio = point["wire_ratio"]
        rows.append([
            size,
            round(point["warm_recovery_ms"], 3),
            round(point["warm_wire_bytes"] / 1000.0, 1),
            round(point["nostore_recovery_ms"], 3),
            round(point["nostore_wire_bytes"] / 1000.0, 1),
            round(ratio, 1) if ratio != float("inf") else "inf",
            round(point["cold_recovery_ms"], 3),
        ])
    print_table(
        "Cold restart — durable journal vs network-only recovery",
        ["state_bytes", "warm_ms", "warm_wire_kB", "nostore_ms",
         "nostore_wire_kB", "wire_ratio", "coldboot_ms"],
        rows,
        paper_note="the paper's replicas are volatile: a restart re-fetches "
                   "everything and whole-group death is fatal; the journal "
                   "turns both into local replay plus a negotiated tail",
    )

    for size in COLD_RESTART_SIZES:
        point = results[size]
        # the no-store arm really shipped the full snapshot
        assert point["nostore_wire_bytes"] >= size, point
        floor = COLD_RESTART_MIN_RATIO[size]
        assert point["wire_ratio"] >= floor, (
            f"journal saving under {floor:.0f}x at {size}: "
            f"{point['wire_ratio']:.1f}x"
        )
        # whole-cluster death is survivable, via an actual seed election
        assert point["cold_seeds"] >= 1.0, point
        assert point["cold_recovery_ms"] > 0.0, point

    benchmark.extra_info["wire_ratio"] = {
        str(size): (round(results[size]["wire_ratio"], 1)
                    if results[size]["wire_ratio"] != float("inf") else "inf")
        for size in COLD_RESTART_SIZES
    }
    benchmark.extra_info["cold_recovery_ms"] = {
        str(size): round(results[size]["cold_recovery_ms"], 3)
        for size in COLD_RESTART_SIZES
    }
