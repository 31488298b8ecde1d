#!/usr/bin/env python3
"""End-to-end benchmark of the live and simulated stacks.

The driver's form (one run, result as the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload ordered-write --seed 1 \\
        --seconds 20 --trace 0

The developer's form (every workload, table of every metric)::

    python3 benchmarks/e2e/run.py --all [--seed N] [--traced] \\
        [--repeat K] [--json OUT]

An untraced run (``--trace 0``) measures the end-to-end metrics.  A traced
run (``--trace 1`` / ``--traced``) installs timing wrappers around each
layer's entry points from this directory's own files — nothing under
``src/`` is edited — and reports the per-layer ledger.  Exit status is
non-zero when any run's outputs are not correct.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import platform                                             # noqa: E402
import statistics                                           # noqa: E402
import subprocess                                           # noqa: E402
import sys                                                  # noqa: E402
from pathlib import Path                                    # noqa: E402
from typing import Any, Dict, List, Optional                # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
             f"is missing")
sys.path.insert(0, str(ROOT / "src"))

import layers                                               # noqa: E402
import live                                                 # noqa: E402
import micro                                                # noqa: E402
import sim                                                  # noqa: E402
import summary                                              # noqa: E402
from ledger import installed                                # noqa: E402
from repro.live import _mmsg                                # noqa: E402

#: Seconds from process start until the program and harness are imported;
#: part of every ``setup_s``, so work moved to import time shows.
IMPORT_S = time.perf_counter() - _T_PROCESS

#: Share of a traced run's seconds spent on an untraced reference window
#: of the same deployment; ``trace_overhead_share`` compares the two.
REFERENCE_SHARE = 0.2

SIM = "sim-fig6"


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Host hygiene
# ----------------------------------------------------------------------

def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint() -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "mmsg_bound": _mmsg.available(),
        "loadavg_start": os.getloadavg()[0],
    }


def close_fingerprint(host: Dict[str, Any]) -> None:
    host["loadavg_end"] = os.getloadavg()[0]
    host["noisy"] = max(host["loadavg_start"],
                        host["loadavg_end"]) > (host["nproc"] or 1)


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------

def _end_to_end(raw: Dict[str, Any]) -> Dict[str, float]:
    measured = ("ops_per_s", "latency_p50_ms", "latency_p99_ms")
    builds = summary.quiet_half(raw["setup_times_s"], lambda t: -t)
    return {"setup_s": IMPORT_S + statistics.median(builds),
            **{name: raw["e2e"][name] for name in measured}}


def _sample_counts(raw: Dict[str, Any]) -> Dict[str, Any]:
    e2e = raw["e2e"]
    counts = {
        "setup_s": len(raw["setup_times_s"]),
        "ops_per_s": e2e["acked"],
        "latency_p50_ms": e2e["timed"],
        "latency_p99_ms": e2e["timed"],
        "window_s": raw["window_s"],
        "import_s": IMPORT_S,
    }
    for key in ("tail_percentile", "slices", "rounds"):
        if key in e2e:
            counts[key] = e2e[key]
    if "cycles" in raw:
        counts["cycles"] = raw["cycles"]["cycles"]
    return counts


def run_untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    if name == SIM:
        return sim.run_sim(seed, seconds)
    return live.run_live(live.LIVE_WORKLOADS[name], seed, seconds)


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Untraced reference window, then the traced window under wrappers,
    then the micro timings; returns the raw result with ``layers`` added."""
    ref_seconds = seconds * REFERENCE_SHARE
    substrate = "sim" if name == SIM else "live"
    if name == SIM:
        # One round: the same deterministic work the traced rounds repeat.
        reference = sim.run_sim(seed, 0.0)
        ref_seconds = reference["window_s"]
    else:
        spec = live.LIVE_WORKLOADS[name]
        reference = live.run_live(spec, seed, ref_seconds, setup_repeats=1,
                                  faults=False)
    ledger = layers.new_ledger()
    order_wait = layers.OrderWait()

    def hook(edge: str, _deployment) -> None:
        if edge == "start":
            ledger.reset()
            order_wait.samples_s.clear()
        else:
            ledger.stop()

    with installed(ledger, layers.targets(substrate, order_wait)):
        traced_seconds = max(seconds - ref_seconds, 0.0)
        if name == SIM:
            raw = sim.run_sim(seed, traced_seconds, hook)
        else:
            raw = live.run_live(spec, seed, traced_seconds, hook,
                                setup_repeats=1)

    cycles = raw.get("cycles")
    recoveries = (cycles["recovered"] if cycles
                  else len(raw.get("points", ())))
    reads = len(raw.get("samples", {}).get("read_latencies", ()))
    metrics = layers.layer_metrics(
        ledger=ledger, order_wait=order_wait, counters=raw["counters"],
        ops=raw["e2e"]["acked"], reads=reads, recoveries=recoveries,
        wall_s=raw["window_s"], cpu_s=raw["cpu_s"], cycles=cycles,
        victim=live.VICTIM)
    metrics.update(layers.simnet_metrics(
        ledger, raw if name == SIM else None))
    metrics["trace_overhead_share"] = 1.0 - (
        raw["e2e"]["ops_per_s"] / reference["e2e"]["ops_per_s"])
    metrics.update(micro.run_micro(seed))

    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"{name}.trace.jsonl"
    ledger.dump_spans(str(span_path))
    raw["layers"] = metrics
    raw["ledger"] = layers.closure(ledger, raw["window_s"], raw["cpu_s"])
    raw["ledger"]["span_file"] = str(span_path.relative_to(ROOT))
    raw["reference"] = {"window_s": reference["window_s"],
                        "ops_per_s": reference["e2e"]["ops_per_s"],
                        "correct": reference["gate"]["correct"]}
    if not reference["gate"]["correct"]:
        raw["gate"]["correct"] = False
        raw["gate"]["problems"] += reference["gate"]["problems"]
        raw["gate"]["failed"] = raw["gate"]["attempted"]
    return raw


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """One run; the record that goes into the JSON document."""
    host = host_fingerprint()
    raw = (run_traced if trace else run_untraced)(name, seed, seconds)
    close_fingerprint(host)
    host.update(seed=seed, seconds=seconds,
                event_loop=raw.get("event_loop"))
    gate = raw["gate"]
    record: Dict[str, Any] = {
        "workload": name,
        "trace": trace,
        "correct": gate["correct"],
        "problems": gate["problems"],
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "failed_ops_share": gate["failed"] / max(1, gate["attempted"]),
        "e2e": _end_to_end(raw),
        "samples": _sample_counts(raw),
        "host": host,
    }
    if trace:
        record["layers"] = raw["layers"]
        record["ledger"] = raw["ledger"]
        record["reference"] = raw["reference"]
    if "cycles" in raw:
        record["cycles"] = {k: v for k, v in raw["cycles"].items()
                            if k != "marks"}
    if "curve" in raw:
        record["curve"] = raw["curve"]
    return record


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def result_line(record: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The driver's last line: correct/attempted/failed/metrics."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record["layers"] if record["trace"] else record["e2e"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def table_rows(record: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    rows = []
    name = record["workload"]
    for m in spec["end_to_end"]:
        n = record["samples"].get(m["name"], "")
        rows.append(f"{name} {m['name']} {record['e2e'][m['name']]:.6g} "
                    f"{m['unit']} {n}")
    rows.append(f"{name} failed_ops_share "
                f"{record['failed_ops_share']:.6g} ratio "
                f"{record['attempted']}")
    if record["trace"]:
        n = record["samples"]["ops_per_s"]
        for m in spec["per_layer"]:
            rows.append(f"{name} {m['name']} "
                        f"{record['layers'][m['name']]:.6g} {m['unit']} {n}")
    return rows


def report_run(record: Dict[str, Any]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"[{record['workload']}] {mode} run: "
          f"{'correct' if record['correct'] else 'NOT CORRECT'}, "
          f"{record['attempted']} attempted, {record['failed']} failed",
          flush=True)
    for problem in record["problems"]:
        print(f"[{record['workload']}]   gate: {problem}", flush=True)
    if record["host"]["noisy"]:
        print(f"[{record['workload']}]   noisy: loadavg "
              f"{record['host']['loadavg_start']:.2f} -> "
              f"{record['host']['loadavg_end']:.2f} exceeds nproc "
              f"{record['host']['nproc']}", flush=True)
    if record["trace"]:
        book = record["ledger"]
        print(f"[{record['workload']}]   ledger: window "
              f"{book['window_s']:.3f} s = idle {book['idle_s']:.3f} + "
              f"layers {sum(book['layers_self_s'].values()):.3f} + "
              f"unattributed {book['unattributed_s']:.3f}; spans -> "
              f"{book['span_file']} ({book['spans_kept']} kept, "
              f"{book['spans_dropped']} beyond the cap)", flush=True)


def repeat_summary(sets: List[Dict[str, Dict[str, Any]]],
                   spec: Dict[str, Any]) -> List[str]:
    """Per workload x end-to-end metric over the repeated sets: median,
    quartiles, and how far the sets disagree."""
    rows = ["workload metric median q1 q3 max_rel_disagreement unit sets"]
    for name in sets[0]:
        for m in spec["end_to_end"]:
            values = [s[name]["untraced"]["e2e"][m["name"]] for s in sets]
            q = summary.quartile_spread(values)
            rows.append(
                f"{name} {m['name']} {q['median']:.6g} {q['q1']:.6g} "
                f"{q['q3']:.6g} "
                f"{summary.max_relative_disagreement(values):.4f} "
                f"{m['unit']} {len(values)}")
    return rows


def document(sets: List[Dict[str, Dict[str, Any]]],
             spec: Dict[str, Any]) -> Dict[str, Any]:
    """The ``--json`` document: per workload, the median of each metric
    over the sets, every set's value, and the last set's details."""
    workloads: Dict[str, Any] = {}
    for name in sets[0]:
        last = sets[-1][name]
        runs = {m["name"]: [s[name]["untraced"]["e2e"][m["name"]]
                            for s in sets]
                for m in spec["end_to_end"]}
        entry: Dict[str, Any] = {
            "e2e": {k: statistics.median(v) for k, v in runs.items()},
            "e2e_runs": runs,
            "failed_ops_share": max(s[name]["untraced"]["failed_ops_share"]
                                    for s in sets),
            "samples": last["untraced"]["samples"],
            "host": last["untraced"]["host"],
            "correct": all(r["correct"] for s in sets
                           for r in s[name].values()),
        }
        for key in ("cycles", "curve"):
            if key in last["untraced"]:
                entry[key] = last["untraced"][key]
        if "traced" in last:
            entry["layers"] = last["traced"]["layers"]
            entry["ledger"] = last["traced"]["ledger"]
            entry["traced_host"] = last["traced"]["host"]
        workloads[name] = entry
    return {"benchmark": "benchmarks/e2e", "sets": len(sets),
            "workloads": workloads}


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the live and simulated stacks.")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run only (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="run untraced, then traced")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K sets and print their agreement")
    parser.add_argument("--json", metavar="OUT",
                        help="write the result document here")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    selected = names if args.all else [args.workload]
    if args.traced:
        modes = [("untraced", False), ("traced", True)]
    elif args.trace:
        modes = [("traced", True)]
    else:
        modes = [("untraced", False)]
    if args.repeat > 1 and modes[0][0] != "untraced":
        parser.error("--repeat compares end-to-end metrics: drop --trace 1")

    sets: List[Dict[str, Dict[str, Any]]] = []
    for _ in range(max(1, args.repeat)):
        one_set: Dict[str, Dict[str, Any]] = {}
        for name in selected:
            one_set[name] = {}
            for label, trace in modes:
                record = run_workload(name, args.seed, args.seconds, trace)
                report_run(record)
                one_set[name][label] = record
        sets.append(one_set)

    records = [r for s in sets for runs in s.values() for r in runs.values()]
    if args.json and "untraced" in sets[0][selected[0]]:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document(sets, spec), handle, indent=1)
    if args.repeat > 1:
        print("\n".join(repeat_summary(sets, spec)))
    print("workload metric value unit n")
    for runs in sets[-1].values():
        for record in runs.values():
            print("\n".join(table_rows(record, spec)))
    if args.workload and len(modes) == 1 and args.repeat <= 1:
        print(result_line(records[0], spec))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
