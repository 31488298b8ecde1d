"""Extension: aggregate throughput of object groups sharded over many
independent Totem rings.

The paper's §6 numbers are single-ring: one token rotation orders every
message, so aggregate throughput is fixed no matter how many closed-loop
pairs share the medium.  This bench drives the same fixed work/node
budget (16 driver→kvstore pairs, every pair placement-pinned to its own
ring) across 1, 2, 4, and 8 rings and checks the sharding claim:

* the single-ring arm is rotation-bound (its aggregate equals the
  8-pair arm of the same ring — adding pairs adds nothing), and
* aggregate throughput grows near-linearly with ring count, ≥ 4x at
  8 rings (observed ~8x: the small rings run at the closed-loop
  latency floor while the big ring is token-bound).

All counting is in simulated time, so the numbers are deterministic.
"""

from repro.bench.registry import SHARD_MIN_SCALING
from repro.bench.reporting import print_table
from repro.bench.shardbench import SHARD_SCALE_RINGS, run_shard_scale_point


def test_shard_scale_near_linear(benchmark):
    results = {}

    def run_sweep():
        for rings in SHARD_SCALE_RINGS:
            results[rings] = run_shard_scale_point(rings, duration=0.5)
        return results

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    base = results[SHARD_SCALE_RINGS[0]]["throughput_per_s"]
    rows = []
    for rings in SHARD_SCALE_RINGS:
        r = results[rings]
        rows.append([rings, r["acked"], round(r["throughput_per_s"], 1),
                     round(r["throughput_per_s"] / base, 2)])
    print_table(
        "Extension — sharded aggregate throughput over N Totem rings",
        ["rings", "acked", "acked_per_s", "vs_1_ring"],
        rows,
        paper_note="one ring = one token rotation = flat aggregate; "
                   "independent rings multiply the rotations",
    )

    # Near-linear scaling: every doubling of rings must buy real
    # aggregate throughput until the closed-loop latency floor, and the
    # headline 8-ring arm must clear 4x the single ring.
    assert results[2]["throughput_per_s"] > 1.5 * base
    assert results[4]["throughput_per_s"] > 3.0 * base
    assert results[8]["throughput_per_s"] > SHARD_MIN_SCALING * base
    benchmark.extra_info["sweep"] = {
        str(rings): {k: (round(v, 3) if isinstance(v, float) else v)
                     for k, v in results[rings].items()}
        for rings in SHARD_SCALE_RINGS
    }


def test_single_ring_is_rotation_bound():
    """Adding pairs to one ring adds nothing: the token rotation is the
    bottleneck (the premise that makes sharding worthwhile)."""
    eight = run_shard_scale_point(1, pairs=8, duration=0.5)
    sixteen = run_shard_scale_point(1, pairs=16, duration=0.5)
    assert sixteen["throughput_per_s"] < 1.25 * eight["throughput_per_s"]
