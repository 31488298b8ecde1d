"""Unit tests for workload schedules and the open-loop driver."""

import pytest

from repro.bench.workloads import OpenLoopDriverServant, uniform_schedule


def test_uniform_schedule_spacing():
    schedule = uniform_schedule(100, 0.1)
    assert len(schedule) == 10
    gaps = [b - a for a, b in zip(schedule, schedule[1:])]
    assert all(abs(g - 0.01) < 1e-12 for g in gaps)


def test_uniform_schedule_start_offset():
    schedule = uniform_schedule(10, 0.5, start=2.0)
    assert schedule[0] == 2.0
    assert all(t >= 2.0 for t in schedule)


def test_uniform_rejects_bad_rate():
    with pytest.raises(ValueError):
        uniform_schedule(0, 1.0)


def test_open_loop_driver_latency_stats():
    driver = OpenLoopDriverServant.__new__(OpenLoopDriverServant)
    driver.latencies = [0.001, 0.002, 0.010]
    driver.sent = 3
    driver.completed = 3
    assert driver.mean_latency == pytest.approx(0.013 / 3)
    assert driver.p99_latency == 0.010


def test_open_loop_driver_empty_stats_are_nan():
    driver = OpenLoopDriverServant.__new__(OpenLoopDriverServant)
    driver.latencies = []
    assert driver.mean_latency != driver.mean_latency   # NaN
    assert driver.p99_latency != driver.p99_latency


def test_open_loop_driver_in_live_system():
    from repro import EternalSystem, FTProperties
    from repro.apps.kvstore import make_kvstore_factory
    from repro.bench.workloads import make_open_loop_factory

    system = EternalSystem(["m", "c1", "s1"])
    system.register_factory("IDL:repro/KvStore:1.0",
                            make_kvstore_factory(10), nodes=["s1"])
    store = system.create_group("store", "IDL:repro/KvStore:1.0",
                                FTProperties(initial_replicas=1),
                                nodes=["s1"])
    system.run_for(0.05)
    schedule = uniform_schedule(200, 0.2)
    system.register_factory(
        "IDL:repro/OpenLoopDriver:1.0",
        make_open_loop_factory(store.iogr().stringify(), schedule),
        nodes=["c1"],
    )
    driver_group = system.create_group(
        "ol", "IDL:repro/OpenLoopDriver:1.0",
        FTProperties(initial_replicas=1), nodes=["c1"],
    )
    system.run_for(0.5)
    driver = driver_group.servant_on("c1")
    assert driver.sent == 40
    assert driver.completed == 40
    assert driver.mean_latency > 0
