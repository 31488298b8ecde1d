"""Per-phase recovery breakdowns from the span tree.

The §5.1 state-transfer protocol is instrumented as one root span per
transfer (``recovery.total``, span id = the transfer id) with a child span
per step i–vi:

==================  =====================================================
``recovery.announce``  (i) ReplicaJoin multicast → logged ``get_state()``
                       sync point at the new replica
``recovery.quiesce``   wait for quiescence at a responder (nested inside
                       ``recovery.capture``)
``recovery.capture``   (ii–iii) fabricated ``get_state()`` execution and
                       state capture at a responder
``recovery.xfer``      (iv) fabricated ``set_state()`` on the wire:
                       multicast → delivery at the new replica
``recovery.apply``     (v) ``set_state()`` application at the new replica
``recovery.assign``    (v) ORB/POA- and infrastructure-level assignment
``recovery.drain``     (vi) replay of the enqueued messages
==================  =====================================================

:func:`recovery_phase_report` extracts one
:class:`RecoveryPhaseBreakdown` per completed root span; when the tracer
retained ``totem.frame`` records, the transfer's multicast frame count is
attributed from the wire-span window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Span, SpanTracker
from repro.runtime.trace import TraceRecord, Tracer

#: Phase (child-span) names in protocol order.
RECOVERY_PHASES = ("announce", "quiesce", "capture", "xfer", "apply",
                   "assign", "drain")


@dataclass(frozen=True)
class RecoveryPhaseBreakdown:
    """One recovery (or failover), decomposed into protocol phases."""

    transfer_id: str
    group: Optional[str]
    node: Optional[str]
    started_at: float
    recovered_at: Optional[float]
    #: phase name -> duration in (simulated) seconds
    phases: Dict[str, float] = field(default_factory=dict)
    state_bytes: Optional[int] = None
    transfer_frames: Optional[int] = None
    drained_messages: Optional[int] = None

    @property
    def total(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.started_at

    @property
    def complete(self) -> bool:
        return self.recovered_at is not None


def _phase_name(span: Span) -> str:
    return span.name.rsplit(".", 1)[-1]


def recovery_phase_report(tracer: Tracer) -> List[RecoveryPhaseBreakdown]:
    """Extract per-phase breakdowns for every recovery/failover root span
    in the tracer's retained records (in start order)."""
    tracker = SpanTracker.from_tracer(tracer)
    frames = [r.time for r in tracer.find("totem", "frame")]
    frames.sort()
    reports: List[RecoveryPhaseBreakdown] = []
    for root in tracker.spans:
        if root.name not in ("recovery.total", "failover.total"):
            continue
        phases: Dict[str, float] = {}
        state_bytes: Optional[int] = None
        transfer_frames: Optional[int] = None
        drained: Optional[int] = None
        children = tracker.children(root.span_id)
        for child in children:
            # quiesce spans nest inside capture spans
            children_of_child = tracker.children(child.span_id)
            for nested in children_of_child:
                if nested.complete:
                    name = _phase_name(nested)
                    phases[name] = max(phases.get(name, 0.0),
                                       nested.duration)
            if not child.complete:
                continue
            name = _phase_name(child)
            # several responders may capture concurrently; report the one
            # whose set_state won (max duration is the conservative bound)
            phases[name] = max(phases.get(name, 0.0), child.duration)
            if name == "xfer":
                if "app_bytes" in child.attrs:
                    state_bytes = child.attrs["app_bytes"]
                if frames:
                    transfer_frames = sum(
                        1 for t in frames if child.start <= t <= child.end
                    )
            elif name == "drain" and "drained" in child.attrs:
                drained = child.attrs["drained"]
        reports.append(RecoveryPhaseBreakdown(
            transfer_id=root.span_id,
            group=root.attrs.get("group"),
            node=root.attrs.get("node"),
            started_at=root.start,
            recovered_at=root.end,
            phases=phases,
            state_bytes=state_bytes,
            transfer_frames=transfer_frames,
            drained_messages=drained,
        ))
    return reports


def render_phase_table(tracer: Tracer, *, scale: float = 1000.0,
                       unit: str = "ms") -> str:
    """Render the per-phase breakdowns as a fixed-width text table
    (durations scaled by ``scale``; default milliseconds)."""
    reports = recovery_phase_report(tracer)
    if not reports:
        return "  (no recovery spans in the trace — were records kept?)"
    header = (f"{'recovery':32s} {'total':>9s} "
              + " ".join(f"{p:>9s}" for p in RECOVERY_PHASES)
              + f"  {'bytes':>8s} {'frames':>6s} {'drained':>7s}  [{unit}]")
    lines = [header, "-" * len(header)]
    for report in reports:
        who = f"{report.group}@{report.node}"
        total = (f"{report.total * scale:9.3f}" if report.complete
                 else "  (open)")
        cells = " ".join(
            f"{report.phases[p] * scale:9.3f}" if p in report.phases
            else f"{'-':>9s}"
            for p in RECOVERY_PHASES
        )
        extras = (f"  {report.state_bytes or 0:8d} "
                  f"{report.transfer_frames if report.transfer_frames is not None else 0:6d} "
                  f"{report.drained_messages if report.drained_messages is not None else 0:7d}")
        lines.append(f"{who:32s} {total} {cells}{extras}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-node invocation stitching
# ---------------------------------------------------------------------------
#
# Every hop of a replicated invocation emits a trace record carrying the
# invocation's trace id (``op:<client>-><server>#<request_id>``, minted by
# the Interceptor and propagated through the IIOP envelope and the Totem
# data frames).  Stitching groups those records — possibly merged from
# several per-node JSONL streams (live mode: each node dumps its own
# flight-recorder file) — into one causal timeline per invocation.

#: Stage names in causal order (ties in time sort by this rank).
INVOCATION_STAGES = ("client_send", "ring_deliver", "execute",
                     "reply_send", "reply_deliver", "client_done")
_STAGE_RANK = {name: i for i, name in enumerate(INVOCATION_STAGES)}


@dataclass(frozen=True)
class TimelineEvent:
    """One stage of one invocation, observed at one node."""

    stage: str
    time: float
    node: str


@dataclass(frozen=True)
class InvocationTimeline:
    """One invocation's causal end-to-end timeline."""

    trace_id: str
    operation: Optional[str]
    events: Tuple[TimelineEvent, ...]

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Distinct nodes the invocation touched, in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.node)
        return tuple(seen)

    @property
    def total(self) -> Optional[float]:
        """Client-observed round-trip time (None while incomplete)."""
        start = [e for e in self.events if e.stage == "client_send"]
        done = [e for e in self.events if e.stage == "client_done"]
        if not start or not done:
            return None
        return done[-1].time - start[0].time


def load_trace_jsonl(path: str) -> List[TraceRecord]:
    """Read one :func:`repro.obs.exporters.export_jsonl` stream (also the
    flight-recorder dump format) back into trace records."""
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            records.append(TraceRecord(obj["ts"], obj["category"],
                                       obj["event"], obj.get("fields", {})))
    return records


def stitch_jsonl_streams(paths: Iterable[str]) -> List[TraceRecord]:
    """Merge several per-node JSONL streams into one time-ordered record
    list, dropping duplicates (flight dumps overlap: each carries the
    global lane, and a node may have dumped more than once)."""
    seen = set()
    merged: List[TraceRecord] = []
    for path in paths:
        for record in load_trace_jsonl(path):
            key = (record.time, record.category, record.event,
                   json.dumps(record.fields, sort_keys=True, default=str))
            if key in seen:
                continue
            seen.add(key)
            merged.append(record)
    merged.sort(key=lambda r: r.time)
    return merged


def stitch_invocations(
        records: Iterable[TraceRecord]) -> List[InvocationTimeline]:
    """Group trace records by invocation trace id into causal timelines
    (client send → ring delivery per node → execute → reply → client done),
    ordered by each invocation's first event."""
    events: Dict[str, List[TimelineEvent]] = {}
    operations: Dict[str, str] = {}
    # span_id -> (trace, node) for open rpc.roundtrip spans: span_end
    # records carry no attrs, so the close is matched through the start.
    rpc_spans: Dict[str, Tuple[str, str]] = {}

    def note(trace: Optional[str], stage: str, time: float, node) -> None:
        if not trace:
            return
        events.setdefault(trace, []).append(
            TimelineEvent(stage, time, str(node)))

    for record in records:
        fields = record.fields
        category, event = record.category, record.event
        if category == "interceptor" and event == "request":
            note(fields.get("trace"), "client_send", record.time,
                 fields.get("node", "?"))
        elif category == "totem" and event == "deliver":
            note(fields.get("trace"), "ring_deliver", record.time,
                 fields.get("node", "?"))
        elif category == "replication" and event == "delivered":
            stage = ("execute" if fields.get("kind") == "REQUEST"
                     else "reply_deliver")
            note(fields.get("trace"), stage, record.time,
                 fields.get("node", "?"))
        elif category == "interceptor" and event == "reply":
            note(fields.get("trace"), "reply_send", record.time,
                 fields.get("node", "?"))
        elif category == "span" and event == "span_start":
            if fields.get("name") == "rpc.roundtrip":
                # A two-way send: its round-trip span starts at the send.
                trace = fields.get("trace")
                span_id = fields.get("span")
                note(trace, "client_send", record.time,
                     fields.get("node", "?"))
                if trace and span_id:
                    rpc_spans[span_id] = (trace, fields.get("node", "?"))
                    if "operation" in fields:
                        operations[trace] = fields["operation"]
        elif category == "span" and event == "span_end":
            spot = rpc_spans.pop(fields.get("span"), None)
            if spot is not None:
                trace, node = spot
                note(trace, "client_done", record.time, node)

    timelines: List[InvocationTimeline] = []
    for trace, evts in events.items():
        evts.sort(key=lambda e: (e.time, _STAGE_RANK.get(e.stage, 99)))
        timelines.append(InvocationTimeline(
            trace_id=trace, operation=operations.get(trace),
            events=tuple(evts)))
    timelines.sort(key=lambda t: t.events[0].time)
    return timelines


def render_invocation_timeline(timeline: InvocationTimeline, *,
                               scale: float = 1000.0,
                               unit: str = "ms") -> str:
    """Render one stitched invocation as an indented causal timeline
    (offsets from the first event, scaled; default milliseconds)."""
    op = f" {timeline.operation}()" if timeline.operation else ""
    head = f"{timeline.trace_id}{op}"
    total = timeline.total
    if total is not None:
        head += f"  [{total * scale:.3f} {unit} end-to-end]"
    lines = [head]
    base = timeline.events[0].time if timeline.events else 0.0
    for event in timeline.events:
        offset = (event.time - base) * scale
        lines.append(f"  +{offset:9.3f} {unit:3s} {event.stage:14s} "
                     f"@ {event.node}")
    return "\n".join(lines)
