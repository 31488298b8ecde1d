"""Render human-readable timelines from trace records.

The mechanisms emit structured events (see :mod:`repro.runtime.trace`);
this module turns them into the kind of annotated timeline the paper's
protocol figures show — useful when debugging a recovery that misbehaves,
and used by the examples to narrate what happened.

::

    from repro.tools import render_timeline
    print(render_timeline(system.tracer,
                          categories={"recovery", "fault", "process"}))

One summary per recovery — start, total, state bytes and the per-phase
breakdown of §5.1 steps i–vi — is :func:`repro.obs.report.
recovery_phase_report` (re-exported by :mod:`repro.tools`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.trace import TraceRecord, Tracer

_EVENT_LABELS = {
    ("process", "crash"): "process crashed",
    ("process", "restart"): "process re-launched",
    ("fault", "crash"): "fault injected: crash",
    ("fault", "restart"): "fault injected: restart",
    ("fault", "partition"): "fault injected: partition",
    ("fault", "heal"): "partition healed",
    ("fault", "replica_hang"): "fault injected: replica hang",
    ("totem", "gather"): "ring gather",
    ("totem", "install"): "ring installed",
    ("totem", "token_timeout"): "token lost",
    ("recovery", "join_announced"): "replica join announced",
    ("recovery", "sync_point"): "get_state() sync point (§5.1 i)",
    ("recovery", "set_state_multicast"): "set_state() fabricated (§5.1 iv)",
    ("recovery", "recovery_set_received"): "state assignment begins (§5.1 v)",
    ("recovery", "handshake_replayed"): "handshake replayed (§4.2.2)",
    ("recovery", "recovered"): "replica reinstated (§5.1 vi)",
    ("recovery", "checkpoint_initiated"): "checkpoint get_state()",
    ("recovery", "checkpoint_logged"): "checkpoint logged",
    ("recovery", "failover_begin"): "failover: backup promoted",
    ("recovery", "failover_replay"): "failover: log replay",
    ("fault_detector", "suspect"): "replica suspected",
    ("fault_detector", "report"): "replica fault reported",
}


def _label(record: TraceRecord) -> str:
    base = _EVENT_LABELS.get((record.category, record.event),
                             f"{record.category}.{record.event}")
    details = []
    for key in ("node", "group", "step", "new_primary", "transfer",
                "app_bytes", "messages", "restarted", "faulty"):
        if key in record.fields:
            details.append(f"{key}={record.fields[key]}")
    if details:
        return f"{base}  ({', '.join(details)})"
    return base


PER_MESSAGE_EVENTS = frozenset({
    ("totem", "token"), ("totem", "frame"), ("totem", "deliver"),
    ("replica", "executed"), ("interceptor", "request"),
    ("interceptor", "reply"),
})
"""High-frequency events usually excluded from narrative timelines."""


def render_timeline(
    tracer: Tracer,
    *,
    categories: Optional[set] = None,
    since: float = 0.0,
    until: Optional[float] = None,
    group: Optional[str] = None,
    exclude=PER_MESSAGE_EVENTS,
) -> str:
    """Render retained trace records as an indented timeline string.

    Per-message chatter (tokens, frames, individual deliveries) is excluded
    by default; pass ``exclude=frozenset()`` for the full firehose.
    """
    lines: List[str] = []
    for record in tracer.records:
        if record.time < since:
            continue
        if until is not None and record.time > until:
            continue
        if categories is not None and record.category not in categories:
            continue
        if (record.category, record.event) in exclude:
            continue
        if group is not None and record.fields.get("group") not in (None,
                                                                    group):
            continue
        lines.append(f"  {record.time * 1000:10.3f} ms  {_label(record)}")
    if not lines:
        return "  (no matching trace records — was the tracer keeping " \
               "records?)"
    return "\n".join(lines)
