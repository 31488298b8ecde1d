"""Unit tests for PeriodicTimer."""

import pytest

from repro.runtime.timers import PeriodicTimer
from repro.simnet.scheduler import Scheduler


def test_fires_every_interval():
    sched = Scheduler()
    ticks = []
    PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
    sched.run_until(3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_initial_delay_overrides_first_tick():
    sched = Scheduler()
    ticks = []
    PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now),
                  initial_delay=0.25)
    sched.run_until(2.5)
    assert ticks == [0.25, 1.25, 2.25]


def test_stop_cancels_future_ticks():
    sched = Scheduler()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
    sched.run_until(1.5)
    timer.stop()
    sched.run_until(5.0)
    assert ticks == [1.0]
    assert not timer.running


def test_stop_from_within_tick():
    sched = Scheduler()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: (ticks.append(sched.now),
                                               timer.stop()))
    sched.run_until(5.0)
    assert ticks == [1.0]


def test_reset_restarts_interval():
    sched = Scheduler()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
    sched.run_until(0.5)
    timer.reset()
    sched.run_until(2.0)
    assert ticks == [1.5]


def test_reset_when_stopped_is_noop():
    sched = Scheduler()
    timer = PeriodicTimer(sched, 1.0, lambda: None, start=False)
    timer.reset()
    assert sched.pending() == 0


def test_start_false_requires_explicit_start():
    sched = Scheduler()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(1), start=False)
    sched.run_until(2.0)
    assert ticks == []
    timer.start()
    sched.run_until(4.0)
    assert len(ticks) == 2


def test_double_start_is_idempotent():
    sched = Scheduler()
    ticks = []
    timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(1))
    timer.start()
    sched.run_until(1.5)
    assert len(ticks) == 1


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        PeriodicTimer(Scheduler(), 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicTimer(Scheduler(), -1.0, lambda: None)
