"""Kinds read only as a count are bare counters, not records: a window of
the paper's topology on simnet must still count everything the benchmarks
read from it."""

import collections

from repro.bench.deployments import build_client_server

#: Counters a benchmark reads (``benchmarks/e2e/layers.py``,
#: ``benchmarks/e2e/live.py``, the Figure-6 and checkpoint benches) that
#: this topology produces.
BENCH_COUNTERS = ("totem.token", "totem.frame", "totem.gather",
                  "replication.delivered", "replication.duplicate",
                  "net.bytes")


def test_every_counter_the_benchmarks_read_is_still_counted():
    deployment = build_client_server()        # two active replicas
    system = deployment.system
    records = collections.Counter()
    system.tracer.subscribe(
        lambda record: records.update((f"{record.category}."
                                       f"{record.event}",)))
    before = {key: system.tracer.count(key) for key in BENCH_COUNTERS}
    acked_before = deployment.driver.acked
    system.run_for(1.0)
    acked = deployment.driver.acked - acked_before
    counted = {key: system.tracer.count(key) - before[key]
               for key in BENCH_COUNTERS}

    assert acked > 1000
    assert system.tracer.count("totem.gather") > 0     # the ring formed
    # Record kinds: the counter counts exactly the records emitted.
    for key in ("totem.token", "totem.frame", "replication.delivered"):
        assert counted[key] == records[key] > 0, key
    assert counted["net.bytes"] > 0
    # Each reply reaches the client from both replicas; the second copy
    # is suppressed as a duplicate: about one per acked op (2323 for
    # 2324), counted without building a record.
    assert abs(counted["replication.duplicate"] - acked) <= acked // 100
    assert records["replication.duplicate"] == 0
