"""Unit tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
    StreamingHistogram,
    merge_registries,
)
from repro.runtime.trace import Tracer


# ---------------------------------------------------------------------------
# Counters and gauges
# ---------------------------------------------------------------------------

def test_counter_increments_and_rejects_negatives():
    counter = CounterMetric()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_merge_sums():
    a, b = CounterMetric(), CounterMetric()
    a.inc(3)
    b.inc(7)
    a.merge(b)
    assert a.value == 10


def test_gauge_set_inc_and_merge():
    gauge = GaugeMetric()
    gauge.set(10)
    gauge.inc(-3)
    assert gauge.value == 7
    other = GaugeMetric()
    other.set(42)
    gauge.merge(other)
    assert gauge.value == 42        # last write wins


# ---------------------------------------------------------------------------
# Histogram quantile math — exact values on known distributions
# ---------------------------------------------------------------------------

def test_histogram_quantiles_exact_on_bimodal_distribution():
    # 50 samples of 10 and 50 samples of 20: every bucket holds identical
    # values, so nearest-rank quantiles are exact.
    hist = StreamingHistogram()
    for _ in range(50):
        hist.record(10.0)
    for _ in range(50):
        hist.record(20.0)
    assert hist.count == 100
    assert hist.quantile(0.50) == 10.0      # rank 50 falls in the 10-bucket
    assert hist.quantile(0.51) == 20.0      # rank 51 is the first 20
    assert hist.p95 == 20.0
    assert hist.p99 == 20.0
    assert hist.mean == 15.0
    assert hist.min == 10.0 and hist.max == 20.0


def test_histogram_quantiles_exact_on_single_value():
    hist = StreamingHistogram()
    for _ in range(7):
        hist.record(0.125)
    for q in (0.01, 0.5, 0.95, 0.99, 1.0):
        assert hist.quantile(q) == 0.125


def test_histogram_quantile_error_bounded_by_growth_factor():
    hist = StreamingHistogram(growth=1.04)
    values = [float(v) for v in range(1, 1001)]
    for v in values:
        hist.record(v)
    for q in (0.10, 0.50, 0.90, 0.95, 0.99):
        true = values[max(0, int(q * len(values)) - 1)]
        estimate = hist.quantile(q)
        assert true / 1.04 <= estimate <= true * 1.04, (q, true, estimate)


def test_histogram_empty_and_bad_quantiles():
    hist = StreamingHistogram()
    assert hist.quantile(0.5) == 0.0
    assert hist.mean == 0.0
    with pytest.raises(ValueError):
        hist.quantile(0.0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_underflow_bucket_and_constructor_validation():
    hist = StreamingHistogram(min_value=1e-3)
    hist.record(1e-6)
    hist.record(0.0)
    assert hist.count == 2
    assert hist.quantile(1.0) == pytest.approx(5e-7)
    with pytest.raises(ValueError):
        StreamingHistogram(min_value=0)
    with pytest.raises(ValueError):
        StreamingHistogram(growth=1.0)


def test_histogram_merge_combines_and_requires_same_bucketing():
    a, b = StreamingHistogram(), StreamingHistogram()
    for _ in range(10):
        a.record(1.0)
    for _ in range(10):
        b.record(100.0)
    a.merge(b)
    assert a.count == 20
    assert a.p50 == 1.0
    assert a.p95 == 100.0
    assert a.min == 1.0 and a.max == 100.0
    with pytest.raises(ValueError):
        a.merge(StreamingHistogram(growth=2.0))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_series_keyed_by_name_and_labels():
    registry = MetricsRegistry()
    registry.counter("reqs", node="a").inc()
    registry.counter("reqs", node="b").inc(2)
    assert registry.counter("reqs", node="a").value == 1
    assert registry.counter("reqs", node="b").value == 2
    # label order does not matter
    h1 = registry.histogram("lat", node="a", group="g")
    h2 = registry.histogram("lat", group="g", node="a")
    assert h1 is h2


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_registry_find_and_snapshot():
    registry = MetricsRegistry()
    registry.counter("a.one").inc()
    registry.gauge("b.two").set(5)
    registry.histogram("a.three").record(1.0)
    assert [name for name, _, _ in registry.find("a.")] == ["a.one", "a.three"]
    rows = {row["name"]: row for row in registry.snapshot()}
    assert rows["a.one"]["value"] == 1
    assert rows["a.three"]["count"] == 1
    assert rows["a.three"]["kind"] == "histogram"


def test_registry_bound_to_tracer_records_span_durations():
    tracer = Tracer(keep_records=False)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    registry = MetricsRegistry()
    registry.bind(tracer)

    tracer.emit("span", "span_start", span="s1", name="recovery.capture",
                node="n1", group="g")
    assert registry.gauge("spans.open").value == 1
    clock["now"] = 0.25
    tracer.emit("span", "span_end", span="s1")
    assert registry.gauge("spans.open").value == 0
    hist = registry.histogram("span.recovery.capture", node="n1", group="g")
    assert hist.count == 1
    assert hist.quantile(1.0) == pytest.approx(0.25)


def test_registry_ignores_unmatched_span_ends_and_non_spans():
    tracer = Tracer(keep_records=False)
    registry = MetricsRegistry()
    registry.bind(tracer)
    tracer.emit("span", "span_end", span="never-started")
    tracer.emit("recovery", "recovered", node="n1")
    assert registry.find("span.") == []


def test_merge_registries_folds_series():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("lat", node="n").record(1.0)
    b.histogram("lat", node="n").record(3.0)
    b.counter("c").inc(2)
    merged = merge_registries([a, b])
    assert merged.histogram("lat", node="n").count == 2
    assert merged.counter("c").value == 2
    # sources untouched
    assert a.histogram("lat", node="n").count == 1


def test_merge_histograms_with_disjoint_label_sets_pins_quantiles():
    """Series absent from the target must be adopted with the SOURCE's
    bucketing — merging a custom-parameter histogram into a registry that
    has never seen the series used to raise on mismatched buckets."""
    from repro.obs.metrics import _label_key

    a, b = MetricsRegistry(), MetricsRegistry()
    # a has only node=n1; b has node=n2 with non-default bucketing
    a.histogram("lat", node="n1").record(1.0)
    custom = StreamingHistogram(min_value=1e-3, growth=1.5)
    b._metrics[("lat", _label_key({"node": "n2"}))] = custom
    for value in (10.0, 10.0, 10.0, 40.0):
        custom.record(value)
    merged = merge_registries([a, b])
    adopted = merged.histogram("lat", node="n2")
    assert adopted.count == 4
    # buckets hold identical values, so the merged quantiles are exact
    assert adopted.quantile(0.50) == 10.0
    assert adopted.p95 == 40.0
    assert adopted.min == 10.0 and adopted.max == 40.0
    # and merging b in AGAIN folds into the adopted bucketing cleanly
    merged2 = merge_registries([merged, b])
    assert merged2.histogram("lat", node="n2").count == 8


def test_merge_rejects_kind_conflicts_across_registries():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("x").inc()
    b.gauge("x").set(1)
    with pytest.raises(TypeError):
        merge_registries([a, b])


def test_fault_detector_records_feed_counters():
    tracer = Tracer(keep_records=False)
    registry = MetricsRegistry()
    registry.bind(tracer)
    tracer.emit("fault_detector", "suspect", node="s1", group="g", strikes=1)
    tracer.emit("fault_detector", "suspect", node="s1", group="g", strikes=2)
    tracer.emit("fault_detector", "report", node="s1", group="g")
    tracer.emit("fault_detector", "refuted", node="s2", group="g", strikes=1)
    # only the FIRST strike of an episode counts as one suspicion
    assert registry.counter("fault_detector.suspicions",
                            node="s1", group="g").value == 1
    assert registry.counter("fault_detector.reports",
                            node="s1", group="g").value == 1
    assert registry.counter("fault_detector.false_positives",
                            node="s2", group="g").value == 1


def test_format_table_renders_histograms_and_scalars():
    registry = MetricsRegistry()
    registry.histogram("span.x", node="n").record(0.002)
    registry.counter("frames").inc(9)
    table = registry.format_table(scale=1000.0, unit="ms")
    assert "span.x" in table and "node=n" in table
    assert "2.000" in table     # 0.002 s scaled to ms
    assert "frames" in table and "(counter)" in table


def test_delta_records_feed_counters():
    tracer = Tracer(keep_records=False)
    registry = MetricsRegistry()
    registry.bind(tracer)
    tracer.emit("delta", "delta_sent", node="s1", group="g",
                pages_sent=4, pages_skipped=36,
                wire_bytes=5000, full_bytes=40000)
    tracer.emit("delta", "full_sent", node="s1", group="g",
                reason="base_mismatch", full_bytes=40000)
    tracer.emit("delta", "fallback", node="s2", group="g",
                reason="DeltaMismatch")
    tracer.emit("delta", "resync_requested", node="s2", group="g")
    assert registry.counter("delta.transfers_delta",
                            node="s1", group="g").value == 1
    assert registry.counter("delta.pages_sent",
                            node="s1", group="g").value == 4
    assert registry.counter("delta.pages_skipped",
                            node="s1", group="g").value == 36
    assert registry.counter("delta.wire_bytes",
                            node="s1", group="g").value == 5000
    assert registry.counter("delta.transfers_full", node="s1", group="g",
                            reason="base_mismatch").value == 1
    assert registry.counter("delta.fallbacks",
                            node="s2", group="g").value == 1
    assert registry.counter("delta.resyncs",
                            node="s2", group="g").value == 1


def test_packed_frame_records_feed_histogram():
    tracer = Tracer(keep_records=False)
    registry = MetricsRegistry()
    registry.bind(tracer)
    for payloads in (1, 3, 3, 7):
        tracer.emit("totem", "packed_frame", node="s1", seq=payloads,
                    payloads=payloads, size=1000)
    hist = registry.histogram("totem.payloads_per_frame", node="s1")
    assert hist.count == 4
    assert hist.min == 1 and hist.max == 7
    assert hist.p50 == 3.0


# ---------------------------------------------------------------------------
# Token ring health: inter-arrival and jitter streams
# ---------------------------------------------------------------------------

def token_tracer():
    tracer = Tracer(keep_records=False)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    registry = MetricsRegistry()
    registry.bind(tracer)
    return tracer, registry, clock


def test_token_receipts_feed_interarrival_and_jitter_histograms():
    tracer, registry, clock = token_tracer()
    for now in (0.0, 0.10, 0.25, 0.30):
        clock["now"] = now
        tracer.emit("totem", "token", node="s1", src="s2", seq=1)
    # First receipt only primes the stream: 3 deltas from 4 receipts.
    rtt = registry.histogram("totem.token_interarrival", node="s1",
                             peer="s2")
    assert rtt.count == 3
    assert rtt.min == pytest.approx(0.05) and rtt.max == pytest.approx(0.15)
    # Jitter needs two consecutive deltas: |0.15-0.10| then |0.05-0.15|.
    jitter = registry.histogram("totem.token_jitter", node="s1")
    assert jitter.count == 2
    assert jitter.min == pytest.approx(0.05)
    assert jitter.max == pytest.approx(0.10)


def test_token_without_src_uses_node_only_series():
    tracer, registry, clock = token_tracer()
    for now in (0.0, 0.1):
        clock["now"] = now
        tracer.emit("totem", "token", node="s1", seq=1)
    assert registry.histogram("totem.token_interarrival",
                              node="s1").count == 1
    # No peer-labelled series was created.
    assert all(labels.get("peer") is None for _, labels, _ in
               registry.find("totem.token_interarrival"))


def test_token_streams_are_independent_per_node():
    tracer, registry, clock = token_tracer()
    # Interleaved receipts at two nodes must not cross-contaminate the
    # per-node deltas (a shared last-seen time would halve them).
    for now, node in ((0.0, "s1"), (0.05, "s2"), (0.10, "s1"),
                      (0.15, "s2")):
        clock["now"] = now
        tracer.emit("totem", "token", node=node, src="peer", seq=1)
    for node in ("s1", "s2"):
        hist = registry.histogram("totem.token_interarrival",
                                  node=node, peer="peer")
        assert hist.count == 1
        assert hist.min == pytest.approx(0.10)


def test_hold_cancels_are_counted_by_node_and_role():
    tracer, registry, _clock = token_tracer()
    for node, role in (("s1", "sent"), ("s2", "released"), ("s3", "noted"),
                       ("s1", "sent")):
        tracer.emit("totem", "hold_cancel", node=node, role=role)
    assert registry.counter("totem.hold_cancel", node="s1",
                            role="sent").value == 2
    assert registry.counter("totem.hold_cancel", node="s2",
                            role="released").value == 1
    assert len(registry.find("totem.hold_cancel")) == 3


def test_token_records_without_node_are_ignored():
    tracer, registry, clock = token_tracer()
    clock["now"] = 0.0
    tracer.emit("totem", "token", seq=1)
    clock["now"] = 0.1
    tracer.emit("totem", "token", seq=2)
    assert registry.find("totem.token_interarrival") == []
