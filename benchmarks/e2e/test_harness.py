"""Self-tests of the benchmark harness.  Not part of tier-1 (``testpaths``
is ``tests/``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import sys

import pytest

import compare
import layers
import live
import run
import summary
from ledger import Ledger, installed

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# ----------------------------------------------------------------------
# summary.py
# ----------------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    def tail_of(n):
        value, pct = summary.tail(range(1, n + 1))
        assert n - value == n - round(n * pct / 100)    # samples beyond it
        return n - value, pct
    assert tail_of(2000) == (20, 99.0)
    assert tail_of(1000) == (10, 99.0)              # exactly 10 beyond
    # Short of p99 the rank falls one sample at a time, not a rung.
    assert tail_of(999) == (10, pytest.approx(98.999, abs=1e-3))
    assert tail_of(940) == (10, pytest.approx(98.936, abs=1e-3))
    assert tail_of(200) == (10, 95.0)
    assert tail_of(42) == (10, pytest.approx(76.19, abs=1e-2))
    assert tail_of(20) == (10, 50.0)                # never below the median
    assert tail_of(5) == (2, 60.0)
    with pytest.raises(ValueError):
        summary.tail([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert summary.percentile(values, 50) == 5
    assert summary.percentile(values, 90) == 9
    assert summary.percentile(values, 100) == 10
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_quiet_half_keeps_the_faster_half_rounded_up():
    rates = [10.0, 3.0, 9.0, 10.5, 1.0]
    assert sorted(summary.quiet_half(rates, lambda r: r)) == [9.0, 10.0, 10.5]
    assert summary.quiet_half([7.0], lambda r: r) == [7.0]
    assert sorted(summary.quiet_half([4.0, 2.0], lambda r: -r)) == [2.0]
    with pytest.raises(ValueError):
        summary.quiet_half([], lambda r: r)


def test_a_slowed_stretch_of_the_window_does_not_set_the_metrics():
    """Ten slices at 200 acks/s and 5 ms; a neighbour's burst makes four
    of them 100 acks/s and 10 ms.  The quiet half reads the program."""
    class FakeWindow(live.Window):
        def __init__(self):
            self.marks = [float(i) for i in range(11)]
            self.blackouts = []
    ack_times, latencies = [], []
    for second in range(10):
        slow = second in (2, 3, 4, 7)
        count, latency = (100, 0.010) if slow else (200, 0.005)
        ack_times += [second + (i + 0.5) / count for i in range(count)]
        latencies += [latency] * count
    samples = {"ack_times": ack_times, "service_ack_times": ack_times,
               "latencies": latencies}
    e2e = live.end_to_end(samples, FakeWindow(), faults=False)
    assert e2e["ops_per_s"] == pytest.approx(200.0)
    assert e2e["latency_p50_ms"] == e2e["latency_p99_ms"] == 5.0
    assert (e2e["slices"], e2e["timed"], e2e["acked"]) == (10, 1000, 1600)
    # A fault window's last slice (after the last whole cycle) is left out.
    assert live.end_to_end(samples, FakeWindow(), faults=True)["slices"] == 9


def test_quartile_spread_matches_the_drivers_formula():
    import statistics
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    got = summary.quartile_spread(values)
    assert got["spread"] == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert summary.quartile_spread([7.0])["spread"] == 0.0


# ----------------------------------------------------------------------
# ledger.py
# ----------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    outer = ledger.enter(("a", "outer"), "n1")
    clock.now = 1.0
    inner = ledger.enter(("b", "inner"))
    clock.now = 4.0
    leaf = ledger.enter(("c", "leaf"))
    clock.now = 6.0
    ledger.exit(leaf)
    clock.now = 7.0
    ledger.exit(inner)
    clock.now = 10.0
    ledger.exit(outer)
    assert ledger.self_s[("c", "leaf")] == 2.0
    assert ledger.self_s[("b", "inner")] == 4.0      # 6 long, leaf took 2
    assert ledger.self_s[("a", "outer")] == 4.0      # 10 long, inner took 6
    assert sum(ledger.self_s.values()) == 10.0
    spans = {s[3]: s for s in ledger.spans}
    assert spans["inner"][1] == spans["outer"][0]    # parent id
    assert spans["leaf"][4] == "n1"                  # node inherited


def test_out_of_order_exit_charges_no_interval_twice():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    first = ledger.enter(("a", "first"))
    clock.now = 2.0
    second = ledger.enter(("b", "second"))
    clock.now = 5.0
    ledger.exit(first)              # the outer wrapper leaves first
    clock.now = 9.0
    ledger.exit(second)             # ... and the inner one only now
    assert ledger.self_s[("b", "second")] == 3.0     # ended with its parent
    assert ledger.self_s[("a", "first")] == 2.0
    assert sum(ledger.self_s.values()) == 5.0
    assert ledger.calls[("b", "second")] == 1
    assert not ledger._stack


def test_wrapper_times_through_exceptions_and_keeps_markings():
    clock = FakeClock()
    ledger = Ledger(clock=clock)

    def boom():
        clock.now += 3.0
        raise KeyError("x")
    boom._corba_operation = True
    wrapped = ledger.wrap(boom, "apps", "boom")
    assert wrapped._corba_operation and wrapped.__wrapped__ is boom
    with pytest.raises(KeyError):
        wrapped()
    assert ledger.self_s[("apps", "boom")] == 3.0
    assert not ledger._stack


def test_stop_keeps_the_window_and_reset_starts_a_new_one():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    work = ledger.wrap(lambda: setattr(clock, "now", clock.now + 1.0),
                       "x", "work")
    work()
    ledger.stop()
    work()
    assert ledger.self_s[("x", "work")] == 1.0
    ledger.reset()
    assert not ledger.self_s
    work()
    assert ledger.self_s[("x", "work")] == 1.0


def _repro_namespace_snapshot():
    """Identity of every global and class attribute under ``repro``."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for name, value in vars(module).items():
            snap[(mod_name, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    snap[(mod_name, name, attr)] = id(member)
    return snap


@pytest.mark.parametrize("substrate", ["live", "sim"])
def test_install_and_restore_leave_no_patch_behind(substrate):
    ledger = layers.new_ledger()
    targets = layers.targets(substrate, layers.OrderWait())   # imports repro
    before = _repro_namespace_snapshot()
    with installed(ledger, targets):
        during = _repro_namespace_snapshot()
        from repro.giop import messages
        from repro.orb import connection
        # ``from repro.giop.messages import encode_message`` importers
        # must see the wrapper too.
        assert connection.encode_message is messages.encode_message
        assert hasattr(messages.encode_message, "__wrapped__")
    after = _repro_namespace_snapshot()
    assert during != before
    assert after == before


def test_wrappers_attribute_work_to_the_defining_layer():
    ledger = layers.new_ledger()
    with installed(ledger, layers.targets("sim", layers.OrderWait())):
        from repro.giop import messages
        wire = messages.encode_message(
            messages.ReplyMessage(request_id=1, result=True))
        assert messages.decode_message(wire).result is True
    assert ledger.calls[("giop", "encode_message")] == 1
    assert ledger.calls[("giop", "decode_message")] == 1
    assert set(ledger.layer_self_s()) == {"giop"}


# ----------------------------------------------------------------------
# BENCHMARK.json against the contract and against run.py
# ----------------------------------------------------------------------

def test_benchmark_json_keeps_within_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 8) <= 3420


def test_workloads_in_benchmark_json_are_the_ones_run_py_knows(spec):
    assert [w["name"] for w in spec["workloads"]] == \
        list(live.LIVE_WORKLOADS) + [run.SIM]


def _last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_py_prints_exactly_the_names_benchmark_json_lists(
        spec, capsys, trace, section):
    code = run.main(["--workload", run.SIM, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = _last_line(capsys)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for m in spec[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = result["metrics"]
        # The simulator bypasses repro.live: those layers record nothing.
        assert all(v["value"] == 0 for k, v in metrics.items()
                   if k.startswith("live."))
        assert metrics["simnet.recovery_ms.350000"]["value"] > \
            metrics["simnet.recovery_bulk_ms.350000"]["value"] > 0
        assert (run.OUT_DIR / f"{run.SIM}.trace.jsonl").stat().st_size > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------

def test_mismatched_replica_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(live, "state_digest", lambda servant: str(id(servant)))
    code = run.main(["--workload", "ordered-write", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    result = _last_line(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1     # share = 1


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [v * 1.01 for v in steady],
                           "lower", 0.10)[0] == "same"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [v * 1.2 for v in steady],
                           "higher", 0.10)[0] == "better"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy],
                           "lower", 0.10)[0] == "unresolved"
    # Wider than the bound, yet every run of B beats every run of A.
    assert compare.verdict(noisy, [v / 3 for v in noisy],
                           "lower", 0.10)[0] == "better"


def test_compare_flags_any_increase_in_failed_ops_share(spec):
    def doc(share):
        runs = {m["name"]: [1.0, 1.0] for m in spec["end_to_end"]}
        return {"workloads": {"w": {
            "e2e": {k: 1.0 for k in runs}, "e2e_runs": runs,
            "failed_ops_share": share}}}
    rows = compare.compare(doc(0.0), doc(0.001), spec)
    assert [r["verdict"] for r in rows
            if r["metric"] == "failed_ops_share"] == ["worse"]
    assert all(r["verdict"] == "same" for r in rows
               if r["metric"] != "failed_ops_share")
