"""Observability: metrics, causal span tracing, and trace export.

The subsystem is layered on :class:`repro.runtime.trace.Tracer` — spans are
ordinary trace records in the ``span`` category, so one stream feeds every
consumer:

* :mod:`repro.obs.spans` — emit ``span_start``/``span_end`` pairs with
  parent ids (:class:`SpanEmitter`) and reconstruct the span tree from a
  trace (:class:`SpanTracker`), including orphan/unfinished detection;
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and streaming
  log-bucketed histograms (p50/p95/p99) keyed by name + labels; bound to a
  tracer it turns every completed span into a latency observation;
* :mod:`repro.obs.exporters` — JSONL and Chrome ``trace_event`` export, so
  a recovery can be opened in ``chrome://tracing`` / Perfetto;
* :mod:`repro.obs.report` — per-phase recovery breakdowns (§5.1 steps
  i–vi) extracted from the span tree;
* :mod:`repro.obs.audit` — the online consistency auditor: verifies
  state-digest agreement, delivery-order agreement, duplicate
  suppression, and recovery-window discipline while the simulation runs;
* :mod:`repro.obs.telemetry` — flight recorder, metrics history, and
  the one poll that reads live stack state (membership, roles, queues,
  suspicion) into registry gauges;
* :mod:`repro.obs.health` — Prometheus-style text exposition of that
  registry under one ``eternal_`` prefix, plus store and audit status.
"""

from repro.obs.audit import (
    AuditFinding,
    AuditViolation,
    ConsistencyAuditor,
    state_digest,
)
from repro.obs.exporters import export_chrome_trace, export_jsonl
from repro.obs.health import parse_exposition, render_health
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.profiling import (
    InSituProbe,
    PhaseCost,
    ProfileSession,
    ProfilingConfig,
    SpanResourceProfiler,
    StackSampler,
    render_cost_table,
    render_folded,
)
from repro.obs.report import (
    RecoveryPhaseBreakdown,
    recovery_phase_report,
    render_phase_table,
)
from repro.obs.spans import Span, SpanEmitter, SpanTracker

__all__ = [
    "AuditFinding",
    "AuditViolation",
    "ConsistencyAuditor",
    "CounterMetric",
    "GaugeMetric",
    "InSituProbe",
    "MetricsRegistry",
    "PhaseCost",
    "ProfileSession",
    "ProfilingConfig",
    "RecoveryPhaseBreakdown",
    "Span",
    "SpanEmitter",
    "SpanResourceProfiler",
    "SpanTracker",
    "StackSampler",
    "StreamingHistogram",
    "export_chrome_trace",
    "export_jsonl",
    "parse_exposition",
    "recovery_phase_report",
    "render_cost_table",
    "render_folded",
    "render_phase_table",
    "state_digest",
    "render_health",
]
