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
into a latency observation in ``span.<name>`` — the bench tables'
p50/p95/p99 per recovery phase come straight from here.  Gauges of live
state (queue depths, replica phase, ring membership) are set by one
poller, :meth:`repro.obs.telemetry.TelemetryPlane.poll`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.runtime.trace import TraceRecord, Tracer

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labels(record: TraceRecord, keys: Tuple[str, ...]) -> Dict[str, Any]:
    fields = record.fields
    return {k: fields[k] for k in keys if k in fields}


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
        # node -> last token receipt time (feeds the inter-arrival
        # histograms).
        self._last_token: Dict[str, float] = {}

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

    def remove(self, name: str, **labels: Any) -> None:
        """Drop one series (a no-op if it does not exist): how a poller
        retires the gauges of a node that died or a replica that left."""
        self._metrics.pop((name, _label_key(labels)), None)

    # -- tracer binding ----------------------------------------------------

    #: The record kinds :meth:`observe_record` reads, one per branch.
    KINDS = ("span", "totem.token", "totem.packed_frame", "live.recv_batch",
             "delta.delta_sent")

    def bind(self, tracer: Tracer) -> None:
        """Subscribe to a tracer: every completed span becomes a duration
        sample in histogram ``span.<name>`` labelled by the span's
        ``node``, ``group`` and ``ring`` attrs."""
        tracer.subscribe(self.observe_record, kinds=self.KINDS)

    def observe_record(self, record: TraceRecord) -> None:
        """Live trace subscriber (installed by :meth:`bind`) for
        :attr:`KINDS`.

        Each branch feeds a series something outside the tests reads (the
        README's observability section lists them with their readers)."""
        category = record.category
        if category == "span":
            self._observe_span(record)
        elif category == "totem":
            if record.event == "token":
                self._observe_token(record)
            elif record.event == "packed_frame":
                self.histogram("totem.payloads_per_frame",
                               **_labels(record, ("node", "ring"))).record(
                    record.fields.get("payloads", 1))
        elif category == "live":
            if record.event == "recv_batch":
                self.histogram("live.sys.recv_batch_size",
                               **_labels(record, ("node", "ring"))).record(
                    record.fields.get("n", 1))
        elif category == "delta" and record.event == "delta_sent":
            # The checkpoint bench's delta economics (bench.sweeps).
            labels = _labels(record, ("node", "group", "ring"))
            self.counter("delta.transfers_delta", **labels).inc()
            self.counter("delta.wire_bytes", **labels).inc(
                record.fields.get("wire_bytes", 0))
            self.counter("delta.full_bytes", **labels).inc(
                record.fields.get("full_bytes", 0))

    def _observe_span(self, record: TraceRecord) -> None:
        span_id = record.fields.get("span")
        if span_id is None:
            return
        if record.event == "span_start":
            self._open_spans.setdefault(span_id, record)
        elif record.event == "span_end":
            start = self._open_spans.pop(span_id, None)
            if start is not None:
                name = start.fields.get("name", span_id)
                self.histogram(
                    f"span.{name}", **_labels(start, ("node", "group", "ring"))
                ).record(record.time - start.time)

    def _observe_token(self, record: TraceRecord) -> None:
        """Turn token receipts into per-node (and per-upstream-peer) token
        inter-arrival times — ``repro top``'s ``tok-rtt`` column."""
        node = record.fields.get("node")
        if node is None:
            return
        last = self._last_token.get(node)
        self._last_token[node] = record.time
        if last is None:
            return
        labels = _labels(record, ("node", "ring"))
        src = record.fields.get("src")
        if src is not None:
            labels["peer"] = src
        self.histogram("totem.token_interarrival", **labels).record(
            record.time - last)

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
