"""Unit tests for the bench regression recorder and comparator."""

import json

import pytest

from repro.bench.regression import (
    SCHEMA,
    TOLERANCE,
    BenchRecord,
    compare_bench_records,
)


def record(points, name="fig6", metric="recovery_ms", unit="ms"):
    return BenchRecord.from_points(name, metric, unit, points)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def test_summarize_nearest_rank():
    stats = record({"a": 10.0, "b": 20.0, "c": 30.0, "d": 40.0}).summary
    assert stats["count"] == 4
    assert stats["median"] == 20.0
    assert stats["p95"] == 40.0
    assert stats["min"] == 10.0 and stats["max"] == 40.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        record({})


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------

def test_record_round_trips_through_json(tmp_path):
    original = record({"10": 12.0, "10000": 13.5, "350000": 44.0})
    path = tmp_path / "BENCH_fig6.json"
    original.write(str(path))
    loaded = BenchRecord.load(str(path))
    assert loaded.points == original.points
    assert loaded.summary == original.summary
    assert loaded.schema == SCHEMA
    assert loaded.machine == original.machine
    # and the comparator accepts its own output unchanged
    comparison = compare_bench_records(loaded, original)
    assert comparison.ok
    assert comparison.verdict.startswith("PASS:")


def test_record_json_is_stable_and_schema_tagged(tmp_path):
    rec = record({"10": 1.0})
    data = json.loads(rec.to_json())
    assert data["schema"] == SCHEMA
    assert data["points"] == {"10": 1.0}
    assert rec.to_json() == BenchRecord.from_json(rec.to_json()).to_json()


def test_unknown_schema_rejected():
    with pytest.raises(ValueError, match="schema"):
        BenchRecord.from_json(json.dumps({"schema": "something/else"}))


# ---------------------------------------------------------------------------
# Comparison semantics
# ---------------------------------------------------------------------------

def test_within_tolerance_passes():
    baseline = record({"a": 10.0, "b": 20.0})
    current = record({"a": 11.0, "b": 22.0})     # +10% < 20% tolerance
    assert compare_bench_records(baseline, current, tolerance=0.2).ok


def test_improvement_always_passes():
    baseline = record({"a": 10.0, "b": 20.0})
    current = record({"a": 1.0, "b": 2.0})
    comparison = compare_bench_records(baseline, current, tolerance=0.0)
    assert comparison.ok


def test_summary_regression_fails_with_named_statistic():
    baseline = record({"a": 10.0, "b": 20.0})
    current = record({"a": 10.0, "b": 30.0})     # p95 +50%
    comparison = compare_bench_records(baseline, current, tolerance=0.2)
    assert not comparison.ok
    assert comparison.verdict.startswith("FAIL:")
    assert any("p95" in r for r in comparison.regressions)


def test_single_point_drift_noted_but_does_not_gate():
    baseline = record({"a": 10.0, "b": 20.0, "c": 30.0, "d": 40.0})
    current = record({"a": 16.0, "b": 20.0, "c": 30.0, "d": 40.0})
    comparison = compare_bench_records(baseline, current, tolerance=0.2)
    assert comparison.ok                 # median/p95 unchanged
    assert "point a" in comparison.verdict


# ---------------------------------------------------------------------------
# Series: the key text before ":" is gated on its own
# ---------------------------------------------------------------------------

#: benchmarks/baselines/BENCH_cold_restart.json's points.
COLD_RESTART = {"warm_ms:350000": 14.466, "cold_ms:350000": 1021.742,
                "warm_kB:350000": 2.1}


def cold_restart(**changed):
    points = {**COLD_RESTART,
              **{f"{k}:350000": v for k, v in changed.items()}}
    return record(points, name="cold_restart", metric="cold_restart",
                  unit="mixed")


def test_wire_bytes_regression_is_not_hidden_behind_the_milliseconds():
    """6.6x more journal bytes on the wire passed while the mixture's
    median was warm_ms and its p95 cold_ms."""
    comparison = compare_bench_records(cold_restart(),
                                       cold_restart(warm_kB=13.9))
    assert not comparison.ok
    assert comparison.verdict.startswith("FAIL:")
    assert [r.split(":")[0] for r in comparison.regressions] == [
        "warm_kB median", "warm_kB p95"]


def test_each_series_gates_at_its_own_scale():
    assert compare_bench_records(cold_restart(), cold_restart()).ok
    within = cold_restart(warm_ms=14.466 * (1 + TOLERANCE) - 0.001,
                          warm_kB=2.5)
    assert compare_bench_records(cold_restart(), within).ok
    for series in ("warm_ms", "cold_ms", "warm_kB"):
        worse = cold_restart(**{series: COLD_RESTART[f"{series}:350000"]
                                * (1 + TOLERANCE) + 0.1})
        comparison = compare_bench_records(cold_restart(), worse)
        assert not comparison.ok
        assert all(r.startswith(series) for r in comparison.regressions)


def test_series_summaries_come_from_the_points_not_the_stored_summary():
    """A committed baseline's ``summary`` is the old mixture's; the gate
    must not read it."""
    baseline = cold_restart()
    assert baseline.summary["median"] == 14.466      # the mixture's
    baseline.summary = {"median": 1e9, "p95": 1e9}
    assert not compare_bench_records(baseline,
                                     cold_restart(warm_kB=13.9)).ok


def test_off_and_on_profiler_arms_are_separate_series():
    def prof(off, on):
        return record({"off:8000": off, "on:8000": on},
                      name="prof_overhead", metric="overhead_ratio",
                      unit="ratio")
    # as one mixture this passed: median 1.0 → 1.1, p95 1.1 → 1.3 (≤ 1.32)
    comparison = compare_bench_records(prof(1.0, 1.1), prof(1.3, 1.1))
    assert [r.split(":")[0] for r in comparison.regressions] == [
        "off median", "off p95"]


def test_unprefixed_keys_stay_one_series():
    baseline = record({"10": 12.0, "350000": 45.0})
    current = record({"10": 40.0, "350000": 45.0})      # inside the spread
    assert [r.split(":")[0] for r in
            compare_bench_records(baseline, current).regressions] == [
        "median"]


def test_a_series_missing_on_one_side_is_not_gated():
    baseline = record({"a:1": 1.0, "b:1": 1.0})
    assert compare_bench_records(baseline, record({"a:1": 1.0})).ok
    assert compare_bench_records(record({"a:1": 1.0}), baseline).ok


def test_mismatched_records_and_bad_tolerance_rejected():
    with pytest.raises(ValueError):
        compare_bench_records(record({"a": 1.0}),
                              record({"a": 1.0}, name="other"))
    with pytest.raises(ValueError):
        compare_bench_records(record({"a": 1.0}), record({"a": 1.0}),
                              tolerance=-0.1)
