"""Every bench registry row, end to end through the CLI, on canned results.

The row's ``run_*_point`` is replaced by a fake that checks the keywords
the row passes against the real runner's signature and returns a canned
result, so a whole command — sweep, table, record, compare, gate, exit
code — runs in milliseconds.  ``tests/unit/test_cli.py`` keeps ``fig6`` as
the one real end-to-end run.
"""

import dataclasses
import inspect

import pytest

from repro.__main__ import main
from repro.bench import registry
from repro.bench.regression import SCHEMA, BenchRecord
from repro.obs.metrics import MetricsRegistry


def _live_arm(read_lease, n_drivers, acked_per_s):
    return {"read_lease": read_lease, "n_drivers": n_drivers,
            "acked_per_s": acked_per_s, "acked": int(acked_per_s),
            "fast_reads": 900 if read_lease else 0, "fallbacks": 0,
            "datagrams_per_wakeup": 1.9}


#: command -> canned point result; the keyword defaults hold the hard gate.
CANNED = {
    "fig6": lambda v: {"recovery_ms": 12.0 + v / 1e4,
                       "metrics": MetricsRegistry()},
    "recovery-scale": lambda v: {
        "state_size": v, "recovery_ms": 14.0 + v / 1e5,
        "oob_bytes": float(v), "inorder_bytes": 900.0,
        "baseline_per_s": 3000.0, "during_per_s": 2900.0,
        "during_ratio": 0.967},
    "checkpoint": lambda v: {
        "state_size": v, "checkpoints": 8, "median_ms": 1.5 + v / 1e6,
        "p95_ms": 2.5, "wire_bytes": v / 10, "full_bytes": float(v)},
    "throughput": lambda v: {
        "offered": float(v), "achieved": v * 0.9, "mean_ms": 0.4 + v / 1e5,
        "p99_ms": 1.2},
    "cold-restart": lambda v, ratio=100.0: {
        "state_size": v, "warm_recovery_ms": 14.0,
        "warm_wire_bytes": 2100.0, "nostore_recovery_ms": 17.0,
        "nostore_wire_bytes": 2100.0 * ratio, "wire_ratio": ratio,
        "cold_recovery_ms": 1020.0},
    "obs-overhead": lambda v, ratio=1.02: {
        "offered": float(v), "off_s": 1.0, "on_s": 1.03,
        "overhead_ratio": ratio},
    "prof-overhead": lambda v, off=1.0, on=1.02: {
        "offered": float(v), "off_s": 1.0, "on_s": 1.03,
        "off_ratio": off, "overhead_ratio": on},
    "live-throughput": lambda v, speedup=2.0: {
        "ordered": _live_arm(False, 1, 750.0),
        "leased": _live_arm(True, 1, 750.0 * speedup),
        "saturated": _live_arm(True, 16, 3000.0),
        "speedup": speedup,
        "points": {"order_per_lease": round(1 / speedup, 4),
                   "wakeups_per_datagram": 0.5263}},
    "shard-scale": lambda v, scale=1.0: {
        "rings": v, "pairs": 16, "acked": int(1000 * v ** scale),
        "throughput_per_s": 2000.0 * v ** scale,
        "inv_cost_us": 500.0 / v ** scale},
}

#: command -> keyword overrides that cross the row's hard gate.
BREACHES = {
    "cold-restart": [{"ratio": 4.0}],
    "obs-overhead": [{"ratio": 1.04}],
    "prof-overhead": [{"on": 1.06}, {"off": 1.001}],
    "live-throughput": [{"speedup": 1.2}],
    "shard-scale": [{"scale": 0.5}],           # 8 rings buy only 2.8x
}

ROWS = [pytest.param(bench, id=bench.command) for bench in registry.BENCHES]


@pytest.fixture
def canned(monkeypatch):
    """Install a fake runner on ``bench``; returns the list of calls
    ``(value, kwargs)`` it will have seen."""
    def install(bench, **overrides):
        calls = []

        def runner(value, **kwargs):
            # the row's keywords must be ones the real runner accepts
            inspect.signature(bench.runner).bind(value, **kwargs)
            calls.append((value, kwargs))
            return CANNED[bench.command](value, **overrides)

        rows = tuple(dataclasses.replace(b, runner=runner)
                     if b.command == bench.command else b
                     for b in registry.BENCHES)
        monkeypatch.setattr(registry, "BENCHES", rows)
        return calls
    return install


def test_registry_declares_the_nine_gates_once_each():
    commands = [b.command for b in registry.BENCHES]
    records = [b.record for b in registry.BENCHES]
    assert len(commands) == 9
    assert len(set(commands)) == 9 and len(set(records)) == 9
    assert all(b.record and b.metric and b.unit and b.points and b.quick
               for b in registry.BENCHES)
    assert set(CANNED) == set(commands)
    assert {b.command for b in registry.BENCHES if b.gate} == set(BREACHES)


@pytest.mark.parametrize("bench", ROWS)
def test_table_renders_and_sweep_follows_quick(bench, canned, capsys):
    calls = canned(bench)
    assert main([bench.command]) == 0
    full = capsys.readouterr().out
    assert [value for value, _ in calls] == list(bench.sweep)
    title = bench.title.format(
        mode=bench.switch.off if bench.switch else None)
    assert f"\n{title}\n" in full
    assert "  ".join(bench.columns) in "  ".join(full.split())
    assert f"paper: {bench.paper_note}" in full
    assert "PASS:" not in full and "wrote bench record" not in full

    del calls[:]
    assert main([bench.command, "--quick"]) == 0
    assert [value for value, _ in calls] == list(bench.quick)


@pytest.mark.parametrize("bench", ROWS)
def test_record_compare_round_trip_and_exit_codes(bench, canned, tmp_path,
                                                  capsys):
    canned(bench)
    path = tmp_path / f"BENCH_{bench.record}.json"
    assert main([bench.command, "--quick", "--record", str(path)]) == 0
    assert f"wrote bench record to {path}" in capsys.readouterr().out
    record = BenchRecord.load(str(path))
    assert (record.schema, record.name, record.metric, record.unit) == (
        SCHEMA, bench.record, bench.metric, bench.unit)
    assert record.points and all(v > 0 for v in record.points.values())

    # the same canned run against itself
    assert main([bench.command, "--quick", "--compare", str(path)]) == 0
    assert "PASS:" in capsys.readouterr().out

    # against a ten times tighter baseline
    BenchRecord.from_points(
        record.name, record.metric, record.unit,
        {k: v / 10 for k, v in record.points.items()}).write(str(path))
    assert main([bench.command, "--quick", "--compare", str(path)]) == 1
    assert "FAIL:" in capsys.readouterr().out

    # against nothing usable: no table, no record, exit 2
    fresh = tmp_path / "fresh.json"
    path.write_text("{not json")
    for unusable in (path, tmp_path / "nope" / "missing.json"):
        assert main([bench.command, "--quick", "--compare", str(unusable),
                     "--record", str(fresh)]) == 2
        captured = capsys.readouterr()
        assert "cannot load baseline" in captured.err
        assert captured.out == "" and not fresh.exists()


@pytest.mark.parametrize("bench,overrides", [
    pytest.param(bench, overrides,
                 id=f"{bench.command}-{'-'.join(overrides)}")
    for bench in registry.BENCHES
    for overrides in BREACHES.get(bench.command, [])])
def test_hard_gate_trips_when_its_constant_is_crossed(bench, overrides,
                                                      canned, capsys):
    canned(bench)
    assert main([bench.command, "--quick"]) == 0
    held = capsys.readouterr().out
    assert bench.breach not in held
    canned(bench, **overrides)
    assert main([bench.command, "--quick"]) == 1
    out = capsys.readouterr().out
    assert f"  — {bench.breach}" in out
    assert bench.breach in ("OVER BUDGET", "UNDER GATE")


@pytest.mark.parametrize("bench", [
    pytest.param(b, id=b.command) for b in registry.BENCHES if b.switch])
def test_switch_reaches_the_runner_and_the_title(bench, canned, capsys):
    """--no-bulk-lane, --no-delta, --no-packing and --uvloop each flip
    exactly one keyword of the runner, and the title's mode where it has
    one."""
    calls = canned(bench)
    assert main([bench.command, "--quick"]) == 0
    assert bench.title.format(mode=bench.switch.off) in capsys.readouterr().out
    assert main([bench.command, "--quick", bench.switch.flag]) == 0
    assert bench.title.format(mode=bench.switch.on) in capsys.readouterr().out
    without, given = calls[0][1], calls[-1][1]
    flipped = [k for k in without if without[k] != given[k]]
    assert len(flipped) == 1
    assert given[flipped[0]] is (bench.switch.flag == "--uvloop")


@pytest.mark.parametrize("bench", [
    pytest.param(b, id=b.command) for b in registry.BENCHES if b.profile])
def test_profile_session_wraps_the_sweep(bench, canned, tmp_path, capsys):
    calls = canned(bench)
    folded = tmp_path / "sweep.folded"
    assert main([bench.command, "--quick", "--profile",
                 "--profile-out", str(folded)]) == 0
    out = capsys.readouterr().out
    assert all(kwargs["profile"] is not None for _, kwargs in calls)
    assert "per-phase resource attribution (profiler):" in out
    assert f"folded stacks to {folded}" in out and folded.exists()


def test_runner_failure_is_an_error_line_and_exit_1(monkeypatch, capsys):
    bench = registry.BENCHES[0]

    def runner(value, **kwargs):
        raise TimeoutError("replica on s2 did not recover")

    monkeypatch.setattr(registry, "BENCHES",
                        (dataclasses.replace(bench, runner=runner),))
    assert main([bench.command, "--quick"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: replica on s2 did not recover\n"
    assert captured.out == ""


def test_cold_restart_gate_reads_the_floor_of_the_tightest_size(canned,
                                                                capsys):
    """64 kB and 350 kB have different floors; the line names the point
    with the least headroom over its own."""
    bench = next(b for b in registry.BENCHES if b.command == "cold-restart")
    canned(bench, ratio=7.0)            # over 64 kB's 5x, under 350 kB's 10x
    assert main([bench.command]) == 1
    assert "saving 7.0x (gate ≥10x)  — UNDER GATE" in capsys.readouterr().out
