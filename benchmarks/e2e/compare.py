#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --json``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric, B is judged against A with the
bound ``BENCHMARK.json`` fixes for that metric:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``same``        the medians are within the bound of each other;
* ``unresolved``  the run-to-run spread recorded in either document is
  wider than the bound, so the difference cannot be told from noise —
  unless every run of B reads better (or worse) than every run of A.

Documents hold a spread only when written with ``--repeat K`` (K >= 2).
Exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import summary

ROOT = Path(__file__).resolve().parents[2]


def verdict(runs_a: List[float], runs_b: List[float], better: str,
            bound: float) -> Tuple[str, float, float]:
    """``(verdict, worsening of the medians as a share of A's, widest
    recorded spread)``."""
    if better == "higher":          # orient so that lower is better
        runs_a = [-v for v in runs_a]
        runs_b = [-v for v in runs_b]
    a = summary.quartile_spread(runs_a)
    b = summary.quartile_spread(runs_b)
    worse_by = ((b["median"] - a["median"]) / abs(a["median"])
                if a["median"] else 0.0)
    spread = max(a["spread"], b["spread"])
    if spread > bound:
        if max(runs_b) < min(runs_a):
            return "better", worse_by, spread
        if min(runs_b) > max(runs_a):
            return "worse", worse_by, spread
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if worse_by < -bound:
        return "better", worse_by, spread
    return "same", worse_by, spread


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            label, worse_by, spread = verdict(
                entry_a["e2e_runs"][key], entry_b["e2e_runs"][key],
                metric["better"], metric["bound"])
            rows.append({"workload": name, "metric": key, "verdict": label,
                         "a": entry_a["e2e"][key], "b": entry_b["e2e"][key],
                         "worse_by": worse_by, "spread": spread,
                         "bound": metric["bound"], "unit": metric["unit"]})
        share_a = entry_a["failed_ops_share"]
        share_b = entry_b["failed_ops_share"]
        rows.append({"workload": name, "metric": "failed_ops_share",
                     "verdict": ("worse" if share_b > share_a else
                                 "better" if share_b < share_a else "same"),
                     "a": share_a, "b": share_b,
                     "worse_by": share_b - share_a, "spread": 0.0,
                     "bound": 0.0, "unit": "ratio"})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows = compare(docs[0], docs[1], spec)
    print("workload metric verdict a b worse_by spread bound unit")
    for r in rows:
        print(f"{r['workload']} {r['metric']} {r['verdict']} {r['a']:.6g} "
              f"{r['b']:.6g} {r['worse_by']:+.4f} {r['spread']:.4f} "
              f"{r['bound']:.2f} {r['unit']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
