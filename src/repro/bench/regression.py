"""Benchmark regression recording and comparison.

A bench run can be summarized into a ``BenchRecord`` — per-sweep-point
values plus median/p95 of the key metric, the machine it ran on, and the
git revision — and written to ``BENCH_<name>.json``.  A later run loads
the previous file and compares against :data:`TOLERANCE`:

* the key metric is **lower-is-better** (recovery milliseconds);
* points are gated **per series** — the key text before ``:``
  (``warm_ms:350000`` and ``warm_kB:350000`` are two series; un-prefixed
  keys such as ``fig6``'s state sizes form one) — so a record that mixes
  milliseconds and kilobytes never hides one behind the other's scale;
* the comparison fails only if a series' median or p95 exceeds
  ``baseline * (1 + tolerance)`` — improvements always pass;
* per-point comparisons are reported but only the summaries gate.

All times in this repository are *simulated* seconds, so records are
deterministic for a given seed and comparable across machines; machine
info and git sha are recorded for provenance, not matched.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.bench.stats import Summary, summarize

SCHEMA = "repro.bench.regression/1"

#: Allowed relative slowdown of a series' median/p95 vs the baseline.
#: Every gate has always run at this one value.
TOLERANCE = 0.2


def machine_info() -> Dict[str, str]:
    """Provenance: where the record was produced."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }


def current_git_sha() -> Optional[str]:
    """The repository's HEAD sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@dataclass
class BenchRecord:
    """One recorded benchmark: points, summary, and provenance."""

    name: str
    metric: str
    unit: str
    points: Dict[str, float]
    summary: Dict[str, float] = field(default_factory=dict)
    machine: Dict[str, str] = field(default_factory=dict)
    git_sha: Optional[str] = None
    schema: str = SCHEMA

    @classmethod
    def from_points(cls, name: str, metric: str, unit: str,
                    points: Dict[str, float]) -> "BenchRecord":
        """Build a record (summary and provenance filled in)."""
        stats = summarize(list(points.values()))
        return cls(
            name=name, metric=metric, unit=unit, points=dict(points),
            summary={"count": stats.n, "median": stats.median,
                     "p95": stats.p95, "min": stats.minimum,
                     "max": stats.maximum},
            machine=machine_info(),
            git_sha=current_git_sha(),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "BenchRecord":
        data = json.loads(text)
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported bench record schema {data.get('schema')!r}"
            )
        return cls(
            name=data["name"], metric=data["metric"], unit=data["unit"],
            points={str(k): float(v) for k, v in data["points"].items()},
            # "count" stays integral so records round-trip byte-identically
            summary={str(k): (int(v) if k == "count" else float(v))
                     for k, v in data.get("summary", {}).items()},
            machine=dict(data.get("machine", {})),
            git_sha=data.get("git_sha"),
            schema=data["schema"],
        )

    @classmethod
    def load(cls, path: str) -> "BenchRecord":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class Comparison:
    """Outcome of comparing a current record against a baseline."""

    ok: bool
    verdict: str
    regressions: List[str] = field(default_factory=list)


def _series(points: Dict[str, float]) -> Dict[str, Summary]:
    """Group points by the key text before ``:`` (``""`` when there is
    none) and summarize each group."""
    grouped: Dict[str, List[float]] = {}
    for key, value in points.items():
        grouped.setdefault(key.rpartition(":")[0], []).append(value)
    return {name: summarize(values) for name, values in grouped.items()}


def compare_bench_records(baseline: BenchRecord, current: BenchRecord,
                          *, tolerance: float = TOLERANCE) -> Comparison:
    """Compare lower-is-better records; fail on worse-than-tolerance.

    Gates on each series' ``median`` and ``p95``, computed from the two
    records' own points (so a baseline written before series existed
    still gates correctly); per-point excursions are listed for context
    but do not fail on their own (a single sweep point shifting inside an
    unchanged distribution is noise, not a regression).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if baseline.metric != current.metric or baseline.name != current.name:
        raise ValueError(
            f"records disagree: {baseline.name}/{baseline.metric} vs "
            f"{current.name}/{current.metric}"
        )
    regressions: List[str] = []
    current_series = _series(current.points)
    for name, base_stats in sorted(_series(baseline.points).items()):
        cur_stats = current_series.get(name)
        if cur_stats is None:
            continue
        # a named series carries its own unit (warm_kB); the record's is
        # the un-prefixed series'
        label, unit = (f"{name} ", "") if name else ("", current.unit)
        for stat in ("median", "p95"):
            base, cur = getattr(base_stats, stat), getattr(cur_stats, stat)
            limit = base * (1 + tolerance)
            if cur > limit:
                regressions.append(
                    f"{label}{stat}: {cur:.3f}{unit} exceeds baseline "
                    f"{base:.3f}{unit} by more than "
                    f"{tolerance:.0%} (limit {limit:.3f})"
                )
    notes: List[str] = []
    for key in sorted(baseline.points.keys() & current.points.keys()):
        base, cur = baseline.points[key], current.points[key]
        if base > 0 and cur > base * (1 + tolerance):
            notes.append(
                f"point {key}: {cur:.3f} vs baseline {base:.3f}"
            )
    ok = not regressions
    if ok:
        verdict = (f"PASS: {current.name} within {tolerance:.0%} of "
                   f"baseline ({baseline.git_sha or 'unknown sha'})")
        if notes:
            verdict += f" — {len(notes)} point(s) drifted: " + "; ".join(notes)
    else:
        verdict = (f"FAIL: {current.name} regressed vs baseline "
                   f"({baseline.git_sha or 'unknown sha'}): "
                   + "; ".join(regressions))
    return Comparison(ok=ok, verdict=verdict, regressions=regressions)
