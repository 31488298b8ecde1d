"""The live scheduler's timer contract (see ``Scheduler.call_after``):
nearest-millisecond resolution on the wall clock — a modelled-CPU delay
far below the selector's 1 ms granularity runs on the next loop pass
instead of sleeping a whole millisecond, and a real delay never fires
early."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.bulk import BURST_INTERVAL
from repro.live.clock import SUB_GRANULARITY, LiveScheduler


@pytest.fixture()
def loop():
    loop = asyncio.new_event_loop()     # the stock selector loop
    yield loop
    loop.close()


def _fire_delay(loop, scheduler, delay):
    """Wall seconds from ``call_after(delay)`` to its callback."""
    fired = loop.create_future()
    start = time.perf_counter()
    scheduler.call_after(
        delay, lambda: fired.set_result(time.perf_counter() - start))
    return loop.run_until_complete(asyncio.wait_for(fired, timeout=1.0))


@pytest.mark.parametrize("delay", [10e-6, 50e-6, 100e-6])
def test_sub_granularity_delay_does_not_cost_a_millisecond(loop, delay):
    scheduler = LiveScheduler(loop)
    # A busy neighbour can only make a try slower, so the best of a few
    # is what the scheduler itself costs (1.1 ms when epoll rounds up).
    best = min(_fire_delay(loop, scheduler, delay) for _ in range(20))
    assert best < 0.3e-3


def test_sub_granularity_delays_run_in_submission_order(loop):
    scheduler = LiveScheduler(loop)
    fired = []
    scheduler.call_after(100e-6, fired.append, "first")
    scheduler.call_after(10e-6, fired.append, "second")
    scheduler.call_after(-5.0, fired.append, "third")    # clamps, no jump
    scheduler.call_after(50e-6, fired.append, "fourth")
    assert fired == []          # next pass, never synchronously
    loop.run_until_complete(asyncio.sleep(0))
    assert fired == ["first", "second", "third", "fourth"]


def test_cancel_before_the_next_pass_suppresses_the_callback(loop):
    scheduler = LiveScheduler(loop)
    fired = []
    handle = scheduler.call_after(10e-6, fired.append, "cancelled")
    scheduler.call_after(10e-6, fired.append, "kept")
    handle.cancel()
    handle.cancel()             # idempotent
    loop.run_until_complete(asyncio.sleep(0.005))
    assert fired == ["kept"]


@pytest.mark.parametrize(
    "delay", [BURST_INTERVAL, 1e-3])
def test_real_delays_never_fire_early(loop, delay):
    assert delay >= SUB_GRANULARITY
    scheduler = LiveScheduler(loop)
    fired = []

    def arm():
        start = loop.time()
        scheduler.call_after(
            delay, lambda: fired.append(loop.time() - start))

    for _ in range(20):
        arm()
        loop.run_until_complete(asyncio.sleep(delay + 0.002))
    assert len(fired) == 20
    # asyncio itself admits timers one clock tick before their deadline.
    assert min(fired) >= delay - 1e-6
