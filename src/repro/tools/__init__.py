"""Operator tooling built on the trace stream."""

from repro.obs.report import recovery_phase_report, render_phase_table
from repro.tools.timeline import render_timeline

__all__ = [
    "recovery_phase_report",
    "render_phase_table",
    "render_timeline",
]
