"""Live hot-path throughput: total order vs the read fast path (O-7).

Wall-clock closed-loop throughput over real loopback-UDP sockets, two
arms differing only in ``EternalConfig.read_lease`` plus a saturation
arm probing the batched transport (see :mod:`repro.bench.livebench`).

Gates:

* the read-lease arm reaches at least ``LIVE_MIN_SPEEDUP`` (1.25x) the
  total-order arm's closed-loop ops/s (the leaseholder answers ``get`` point-to-point
  instead of waiting out a token rotation),
* the saturation arm's drain loop averages > 1.5 datagrams per socket
  wakeup (recvmmsg / drain-to-EAGAIN batching actually batches),
* every arm finishes with a clean consistency audit (enforced inside
  :func:`~repro.bench.livebench.run_live_throughput`, which raises on
  findings) and zero fast-path fallbacks in the fault-free window.
"""

import pytest

from repro.bench.livebench import run_live_throughput
from repro.bench.registry import LIVE_MIN_SPEEDUP
from repro.bench.reporting import print_table

pytestmark = pytest.mark.live

MIN_DATAGRAMS_PER_WAKEUP = 1.5


def test_read_lease_doubles_live_throughput(benchmark):
    result = {}

    def run():
        result.update(run_live_throughput(duration=2.0))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in ("ordered", "leased", "saturated"):
        arm = result[label]
        rows.append([
            label, arm["n_drivers"],
            "on" if arm["read_lease"] else "off",
            round(arm["acked_per_s"], 1),
            arm["fast_reads"], arm["fallbacks"],
            round(arm["datagrams_per_wakeup"], 2),
        ])
    print_table(
        "Live closed-loop throughput — total order vs read lease",
        ["arm", "drivers", "lease", "acked_per_s", "fast_reads",
         "fallbacks", "dg_per_wakeup"],
        rows,
        paper_note="the paper's mechanisms order every IIOP message "
                   "through Totem; read_only operations served under "
                   "the ring leaseholder's lease skip the rotation",
    )

    ordered, leased = result["ordered"], result["leased"]
    saturated = result["saturated"]
    # Both arms actually ran a read-heavy mix with ordered writes.
    assert ordered["fast_reads"] == 0, ordered
    assert ordered["writes_acked"] > 0, ordered
    assert leased["fast_reads"] > 0, leased
    assert leased["writes_acked"] > 0, leased
    # Fault-free: nothing should have fallen back to the total order.
    assert leased["fallbacks"] == 0, leased
    speedup = result["speedup"]
    assert speedup >= LIVE_MIN_SPEEDUP, (
        f"read lease bought only {speedup:.2f}x "
        f"(gate >= {LIVE_MIN_SPEEDUP:.2f}x): "
        f"{leased['acked_per_s']:.0f} vs {ordered['acked_per_s']:.0f} "
        f"ops/s")
    assert saturated["datagrams_per_wakeup"] >= MIN_DATAGRAMS_PER_WAKEUP, (
        f"receive batching at saturation: "
        f"{saturated['datagrams_per_wakeup']:.2f} datagrams/wakeup "
        f"(gate >= {MIN_DATAGRAMS_PER_WAKEUP})")

    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["ordered_ops_per_s"] = round(
        ordered["acked_per_s"], 1)
    benchmark.extra_info["leased_ops_per_s"] = round(
        leased["acked_per_s"], 1)
    benchmark.extra_info["datagrams_per_wakeup"] = round(
        saturated["datagrams_per_wakeup"], 2)
