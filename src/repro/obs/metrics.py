"""Metrics registry: counters, gauges, and streaming histograms.

Metrics are identified by a name plus a frozen label set (typically
``node=<replica>`` and ``group=<object group>``), so per-replica and
per-group series of the same measurement coexist::

    registry.histogram("span.recovery.capture", node="s1", group="store")

Histograms are HdrHistogram-style **log-bucketed**: bucket boundaries grow
geometrically, bounding the relative quantile error by the growth factor
while keeping memory proportional to the number of *occupied* buckets, not
to the sample count.  Each bucket also tracks the sum of its samples, so a
quantile that falls in a bucket holding identical values is exact.

Bound to a :class:`~repro.runtime.trace.Tracer`
(:meth:`MetricsRegistry.bind`), the registry turns every completed span
into a latency observation in ``span.<name>`` and maintains the
``spans.open`` gauge — the bench tables' p50/p95/p99 per recovery phase
come straight from here.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.trace import TraceRecord, Tracer

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class CounterMetric:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "CounterMetric") -> None:
        """Fold another counter's total into this one."""
        self.value += other.value

    def spawn_empty(self) -> "CounterMetric":
        """A fresh, empty counter (merge target for a new series)."""
        return CounterMetric()


class GaugeMetric:
    """A value that can go up and down (queue depth, open spans, …)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the current value by ``amount`` (may be negative)."""
        self.value += amount

    def merge(self, other: "GaugeMetric") -> None:
        """Adopt the other gauge's latest value (last write wins)."""
        self.value = other.value

    def spawn_empty(self) -> "GaugeMetric":
        """A fresh gauge (merge target for a new series)."""
        return GaugeMetric()


class StreamingHistogram:
    """Log-bucketed streaming histogram with quantile estimation.

    Values are assigned to geometric buckets ``[min_value·g^i,
    min_value·g^(i+1))``; per bucket we keep a count and a sum.  The
    reported quantile is the mean of the bucket containing the requested
    rank (nearest-rank rule), which is

    * **exact** when every sample in that bucket has the same value, and
    * otherwise within a factor ``growth`` of the true order statistic.

    Values at or below ``min_value`` share the underflow bucket.
    """

    kind = "histogram"

    def __init__(self, *, min_value: float = 1e-9,
                 growth: float = 1.04) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1:
            raise ValueError("growth must exceed 1")
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, List[float]] = {}   # index -> [count, sum]
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return -1
        return int(math.log(value / self.min_value) / self._log_growth)

    def record(self, value: float) -> None:
        """Record one sample (negative samples clamp to the underflow
        bucket, preserving count and sum semantics)."""
        bucket = self._buckets.setdefault(self._index(value), [0, 0.0])
        bucket[0] += 1
        bucket[1] += value
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Exact mean of all recorded samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``, nearest-rank)."""
        if not 0 < q <= 1:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for index in sorted(self._buckets):
            count, total = self._buckets[index]
            seen += count
            if seen >= rank:
                return total / count
        return self.max or 0.0      # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram's buckets into this one.

        Requires identical bucketing parameters (indices must align).
        """
        if (other.min_value != self.min_value
                or other.growth != self.growth):
            raise ValueError("cannot merge histograms with different "
                             "bucketing parameters")
        for index, (count, total) in other._buckets.items():
            bucket = self._buckets.setdefault(index, [0, 0.0])
            bucket[0] += count
            bucket[1] += total
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            theirs = getattr(other, bound)
            ours = getattr(self, bound)
            if theirs is not None:
                pick = theirs if ours is None else \
                    (min if bound == "min" else max)(ours, theirs)
                setattr(self, bound, pick)

    def spawn_empty(self) -> "StreamingHistogram":
        """A fresh histogram with *this* histogram's bucketing parameters
        (merge target for a new series — a default-parameter histogram
        would refuse the merge)."""
        return StreamingHistogram(min_value=self.min_value,
                                  growth=self.growth)


class MetricsRegistry:
    """Get-or-create registry of metrics keyed by name + labels."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._open_spans: Dict[str, TraceRecord] = {}
        # node -> (last token receipt time, last inter-arrival delta);
        # feeds the per-peer token RTT/jitter histograms.
        self._last_token: Dict[str, Tuple[float, Optional[float]]] = {}

    # -- get-or-create -----------------------------------------------------

    def _get(self, factory, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(f"metric {name!r}{dict(key[1])} already "
                            f"registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> CounterMetric:
        """The counter for ``name`` + labels (created on first use)."""
        return self._get(CounterMetric, name, labels)

    def gauge(self, name: str, **labels: Any) -> GaugeMetric:
        """The gauge for ``name`` + labels (created on first use)."""
        return self._get(GaugeMetric, name, labels)

    def histogram(self, name: str, **labels: Any) -> StreamingHistogram:
        """The histogram for ``name`` + labels (created on first use)."""
        return self._get(StreamingHistogram, name, labels)

    # -- tracer binding ----------------------------------------------------

    def bind(self, tracer: Tracer) -> None:
        """Subscribe to a tracer: every completed span becomes a duration
        sample in histogram ``span.<name>`` labelled by the span's ``node``
        and ``group`` attrs; ``spans.open`` gauges the in-flight count."""
        tracer.subscribe(self.observe_record)

    def observe_record(self, record: TraceRecord) -> None:
        """Live trace subscriber (installed by :meth:`bind`)."""
        if record.category == "fault_detector":
            self._observe_fault_detector(record)
            return
        if record.category == "delta":
            self._observe_delta(record)
            return
        if record.category == "bulk":
            self._observe_bulk(record)
            return
        if record.category == "store":
            self._observe_store(record)
            return
        if (record.category == "recovery"
                and record.event == "set_state_multicast"):
            labels = {k: record.fields[k]
                      for k in ("node", "group", "ring")
                      if k in record.fields}
            self.counter("state.bytes", lane="inorder", **labels).inc(
                record.fields.get("app_bytes", 0))
        if record.category == "totem" and record.event == "token":
            self._observe_token(record)
            return
        if record.category == "totem" and record.event == "hold_cancel":
            # Consumers (for the signal inventory): the flight recorder,
            # test_write_after_a_quiet_spell_wakes_the_parked_token and
            # test_ordered_invocation_costs_one_rotation_not_two.
            labels = {k: record.fields[k] for k in ("node", "ring", "role")
                      if k in record.fields}
            self.counter("totem.hold_cancel", **labels).inc()
            return
        if record.category == "totem" and record.event == "packed_frame":
            labels = {k: record.fields[k] for k in ("node", "ring")
                      if k in record.fields}
            self.histogram("totem.payloads_per_frame", **labels).record(
                record.fields.get("payloads", 1))
            return
        if record.category == "live" and record.event == "recv_batch":
            labels = {k: record.fields[k] for k in ("node", "ring")
                      if k in record.fields}
            self.histogram("live.sys.recv_batch_size", **labels).record(
                record.fields.get("n", 1))
            return
        if record.category == "lease":
            labels = {k: record.fields[k] for k in ("node", "ring")
                      if k in record.fields}
            self.counter(f"lease.{record.event}", **labels).inc()
            return
        if record.category != "span":
            return
        span_id = record.fields.get("span")
        if span_id is None:
            return
        if record.event == "span_start":
            self._open_spans.setdefault(span_id, record)
        elif record.event == "span_end":
            start = self._open_spans.pop(span_id, None)
            if start is not None:
                labels = {k: start.fields[k]
                          for k in ("node", "group", "ring")
                          if k in start.fields}
                name = start.fields.get("name", span_id)
                self.histogram(f"span.{name}", **labels).record(
                    record.time - start.time
                )
        self.gauge("spans.open").set(len(self._open_spans))

    def _observe_delta(self, record: TraceRecord) -> None:
        """Turn delta-state-transfer trace events into counters: how many
        transfers went out as page deltas vs. full bodies, the page and
        byte economics of the deltas, and how often a receiver had to fall
        back (couldn't reconstruct) or request a resync."""
        labels = {k: record.fields[k] for k in ("node", "group", "ring")
                  if k in record.fields}
        if record.event == "delta_sent":
            self.counter("delta.transfers_delta", **labels).inc()
            self.counter("delta.pages_sent", **labels).inc(
                record.fields.get("pages_sent", 0))
            self.counter("delta.pages_skipped", **labels).inc(
                record.fields.get("pages_skipped", 0))
            self.counter("delta.wire_bytes", **labels).inc(
                record.fields.get("wire_bytes", 0))
            self.counter("delta.full_bytes", **labels).inc(
                record.fields.get("full_bytes", 0))
        elif record.event == "full_sent":
            reason = record.fields.get("reason", "unknown")
            self.counter("delta.transfers_full",
                         reason=reason, **labels).inc()
        elif record.event == "fallback":
            self.counter("delta.fallbacks", **labels).inc()
        elif record.event == "resync_requested":
            self.counter("delta.resyncs", **labels).inc()

    def _observe_bulk(self, record: TraceRecord) -> None:
        """Turn bulk-lane trace events into counters: session outcomes,
        retransmit/restripe/drop economics, and the out-of-band byte lane
        (``state.bytes{lane=oob}`` — the in-order complement is counted
        off the ``set_state_multicast`` event)."""
        labels = {k: record.fields[k] for k in ("node", "group", "ring")
                  if k in record.fields}
        event = record.event
        if event == "session_start":
            self.counter("bulk.sessions_started", **labels).inc()
        elif event == "session_complete":
            self.counter("bulk.sessions_completed", **labels).inc()
        elif event == "session_failed":
            self.counter("bulk.fallbacks", **labels).inc()
        elif event == "retransmit":
            self.counter("bulk.retransmits", **labels).inc()
        elif event == "restripe":
            self.counter("bulk.restripes", **labels).inc()
        elif event == "sponsor_dropped":
            self.counter("bulk.sponsors_dropped", **labels).inc()
        elif event == "page_crc_bad":
            self.counter("bulk.page_crc_errors", **labels).inc()
        elif event == "manifest_sent":
            self.counter("bulk.manifests_sent", **labels).inc()
        elif event == "pages_sent":
            self.counter("bulk.pages_served", **labels).inc(
                record.fields.get("count", 0))
            self.counter("state.bytes", lane="oob", **labels).inc(
                record.fields.get("bytes", 0))

    def _observe_store(self, record: TraceRecord) -> None:
        """Turn durable-store trace events into metrics: journal I/O
        economics (fsync latency, torn tails, segment rolls), checkpoint
        write amplification (delta vs full bytes), and the cold-restart
        ladder's disk-rung outcomes (restores, replays, corruption
        fallbacks, cold-boot seeds)."""
        labels = {k: record.fields[k] for k in ("node", "group", "ring")
                  if k in record.fields}
        event = record.event
        if event == "fsync":
            self.histogram("store.fsync.seconds", **labels).record(
                record.fields.get("seconds", 0.0))
        elif event == "tail_truncated":
            self.counter("store.tail_truncations", **labels).inc()
            self.counter("store.bytes.truncated", **labels).inc(
                record.fields.get("dropped", 0))
        elif event == "segment_rolled":
            self.counter("store.segments_rolled", **labels).inc()
        elif event == "checkpoint_delta":
            self.counter("store.checkpoints_delta", **labels).inc()
            self.counter("store.checkpoint.wire_bytes", **labels).inc(
                record.fields.get("wire_bytes", 0))
            self.counter("store.checkpoint.full_bytes", **labels).inc(
                record.fields.get("full_bytes", 0))
        elif event == "checkpoint_full":
            self.counter("store.checkpoints_full", **labels).inc()
            self.counter("store.checkpoint.wire_bytes", **labels).inc(
                record.fields.get("full_bytes", 0))
            self.counter("store.checkpoint.full_bytes", **labels).inc(
                record.fields.get("full_bytes", 0))
        elif event == "compacted":
            self.counter("store.compactions", **labels).inc()
        elif event == "restored":
            self.counter("store.restores", **labels).inc()
            self.counter("store.messages.restored", **labels).inc(
                record.fields.get("messages", 0))
        elif event == "corrupt":
            self.counter("store.corruptions", **labels).inc()
        elif event == "cold_seed_claimed":
            self.counter("store.cold_seeds", **labels).inc()
        elif event == "seed_replay":
            self.counter("store.messages.replayed", **labels).inc(
                record.fields.get("messages", 0))

    def _observe_token(self, record: TraceRecord) -> None:
        """Turn token receipts into the ring-health sample streams a
        phi-accrual failure detector consumes: per-node (and per-upstream-
        peer) token inter-arrival times and their jitter (the absolute
        change between consecutive inter-arrival deltas)."""
        node = record.fields.get("node")
        if node is None:
            return
        last = self._last_token.get(node)
        if last is None:
            self._last_token[node] = (record.time, None)
            return
        last_time, last_delta = last
        delta = record.time - last_time
        extra = {k: record.fields[k] for k in ("ring",)
                 if k in record.fields}
        src = record.fields.get("src")
        if src is not None:
            self.histogram("totem.token_interarrival",
                           node=node, peer=src, **extra).record(delta)
        else:
            self.histogram("totem.token_interarrival",
                           node=node, **extra).record(delta)
        if last_delta is not None:
            self.histogram("totem.token_jitter",
                           node=node, **extra).record(abs(delta - last_delta))
        self._last_token[node] = (record.time, delta)

    def _observe_fault_detector(self, record: TraceRecord) -> None:
        """Turn fault-detector trace events into counters: a first strike
        is one suspicion; a refutation before the report threshold is a
        false positive; a report is a declared replica fault."""
        labels = {k: record.fields[k] for k in ("node", "group", "ring")
                  if k in record.fields}
        if record.event == "suspect":
            if record.fields.get("strikes") == 1:
                self.counter("fault_detector.suspicions", **labels).inc()
        elif record.event == "refuted":
            self.counter("fault_detector.false_positives", **labels).inc()
        elif record.event == "report":
            self.counter("fault_detector.reports", **labels).inc()

    # -- aggregation and reporting ----------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's metrics into this one.

        Matching series merge pairwise.  A series present only in ``other``
        is adopted into a fresh metric spawned *from the source* —
        histograms keep their bucketing parameters, so merging a registry
        with labels (or tunings) the target lacks never drops samples.
        """
        for (name, labels), metric in other._metrics.items():
            key = (name, _label_key(dict(labels)))
            mine = self._metrics.get(key)
            if mine is None:
                mine = metric.spawn_empty()
                self._metrics[key] = mine
            elif not isinstance(mine, type(metric)):
                raise TypeError(f"metric {name!r}{dict(labels)} already "
                                f"registered as {mine.kind}")
            mine.merge(metric)

    def find(self, prefix: str = "") -> List[Tuple[str, Dict[str, str], Any]]:
        """All metrics whose name starts with ``prefix``, as
        ``(name, labels, metric)`` sorted by name then labels."""
        out = []
        for (name, labels), metric in sorted(self._metrics.items()):
            if name.startswith(prefix):
                out.append((name, dict(labels), metric))
        return out

    def snapshot(self) -> List[Dict[str, Any]]:
        """A plain-data dump of every metric (for export and tests)."""
        rows: List[Dict[str, Any]] = []
        for name, labels, metric in self.find():
            row: Dict[str, Any] = {"name": name, "labels": labels,
                                   "kind": metric.kind}
            if metric.kind == "histogram":
                row.update(count=metric.count, mean=metric.mean,
                           p50=metric.p50, p95=metric.p95, p99=metric.p99,
                           min=metric.min, max=metric.max)
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows

    def format_table(self, *, prefix: str = "",
                     scale: float = 1.0, unit: str = "") -> str:
        """Render matching metrics as a fixed-width text table.

        ``scale`` multiplies histogram statistics (e.g. ``1000`` renders
        second-valued durations in milliseconds).
        """
        lines: List[str] = []
        header = (f"{'metric':44s} {'labels':24s} {'count':>7s} "
                  f"{'mean':>10s} {'p50':>10s} {'p95':>10s} {'p99':>10s}")
        lines.append(header + (f"  [{unit}]" if unit else ""))
        lines.append("-" * len(header))
        for name, labels, metric in self.find(prefix):
            label_text = ",".join(f"{k}={v}" for k, v in labels.items())
            if metric.kind == "histogram":
                lines.append(
                    f"{name:44s} {label_text:24s} {metric.count:7d} "
                    f"{metric.mean * scale:10.3f} {metric.p50 * scale:10.3f} "
                    f"{metric.p95 * scale:10.3f} {metric.p99 * scale:10.3f}"
                )
            else:
                lines.append(f"{name:44s} {label_text:24s} "
                             f"{metric.value:7g}  ({metric.kind})")
        return "\n".join(lines)


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Merge several registries (e.g. one per bench deployment) into one."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged
