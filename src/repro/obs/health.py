"""Live health exposition in the Prometheus text format.

:func:`render_health` snapshots a running system into the plain-text
exposition format (`name{label="value"} value`, one series per line).  It
reads no protocol state itself: it runs the telemetry plane's
:meth:`~repro.obs.telemetry.TelemetryPlane.poll` — the one reader of the
stacks — and renders the whole metrics registry under the ``eternal_``
prefix (histograms as quantile series plus ``_count``/``_sum``), so the
exposition, ``repro top`` and ``/metrics/history`` name every quantity
the same way.  Two sections are read here on demand instead: the durable
stores' stats (a journal lists its directory, and the poll does no I/O)
and the audit verdict of whichever auditor the caller names.

The renderer is read-only apart from that poll and works on any running
system — tests, the ``python -m repro health`` CLI, ``demo --health`` and
the live health server all use it.  :func:`parse_exposition` is the
matching line-by-line parser (used by the tests and CI to pin the format,
and handy for piping snapshots elsewhere).
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

#: The one exposition prefix: registry series ``a.b`` render as
#: ``eternal_a_b``.
PREFIX = "eternal_"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str) -> str:
    return PREFIX + _NAME_OK.sub("_", name)


def _escape(value: Any) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _series(name: str, labels: Dict[str, Any], value: float) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(v)}"'
                        for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {value:g}"
    return f"{name} {value:g}"


def parse_exposition(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text back into ``(name, labels, value)`` tuples.

    Comment (``#``) and blank lines are skipped; any other line that does
    not match ``name{labels} value`` raises ``ValueError``.
    """
    out: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno} is not a metric line: {line!r}")
        labels: Dict[str, str] = {}
        body = match.group("labels")
        if body:
            for key, value in _LABEL.findall(body):
                labels[key] = (value.replace("\\n", "\n")
                               .replace('\\"', '"').replace("\\\\", "\\"))
        out.append((match.group("name"), labels,
                    float(match.group("value"))))
    return out


def render_health(system, *, auditor=None) -> str:
    """Render one health snapshot of a running system.

    ``auditor`` defaults to ``system.auditor`` (attached via
    ``system.attach_auditor()``); pass one explicitly to report on a
    post-hoc replay instead.
    """
    if auditor is None:
        auditor = system.auditor
    system.telemetry.poll()
    lines: List[str] = [
        f"# Eternal health snapshot (system clock {system.now:.6f}s)"]
    typed = set()

    def emit(name: str, kind: str, labels: Dict[str, Any],
             value: float) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")
        lines.append(_series(name, labels, value))

    for name, labels, metric in system.metrics.find():
        flat = _metric_name(name)
        if metric.kind == "histogram":
            for q in (0.5, 0.95, 0.99):
                emit(flat, "summary", dict(labels, quantile=f"{q:g}"),
                     metric.quantile(q))
            lines.append(_series(f"{flat}_count", labels, metric.count))
            lines.append(_series(f"{flat}_sum", labels, metric.total))
        else:
            emit(flat, metric.kind, labels, metric.value)

    stores = system.stores
    for node_id in sorted(stores):
        for group_id, stats in stores[node_id].snapshot().items():
            for stat in sorted(stats):
                emit(_metric_name(f"store.{stat}"), "gauge",
                     {"node": node_id, "group": group_id}, stats[stat])

    if auditor is not None:
        emit(f"{PREFIX}audit_ok", "gauge", {}, 1 if auditor.ok else 0)
        emit(f"{PREFIX}audit_records_scanned", "counter", {},
             auditor.records_scanned)
        by_invariant = auditor.findings_by_invariant()
        for invariant in sorted(by_invariant):
            emit(f"{PREFIX}audit_findings_total", "counter",
                 {"invariant": invariant}, len(by_invariant[invariant]))
        if not by_invariant:
            emit(f"{PREFIX}audit_findings_total", "counter", {}, 0)

    return "\n".join(lines) + "\n"
