"""Workload generation: open-loop drivers and arrival schedules.

The paper's packet driver is *closed-loop* (one invocation in flight; the
reply clocks the next request), which measures response time but cannot
probe throughput saturation.  This module adds an **open-loop** driver that
issues invocations on a precomputed arrival schedule regardless of replies
— the standard tool for latency-vs-offered-load curves.

The schedule is a deterministic function of the rate, so runs repeat
exactly.  The open-loop driver is intended for *unreplicated* (1-replica)
client groups: a timer-driven client is inherently non-deterministic
across replicas, which is exactly why the paper's replicated test client
is reply-clocked.
"""

from __future__ import annotations

from typing import Any, List

from repro.ftcorba.checkpointable import Checkpointable, InvalidState
from repro.giop.ior import IOR
from repro.giop.messages import ReplyMessage, ReplyStatus


def uniform_schedule(rate: float, duration: float,
                     start: float = 0.0) -> List[float]:
    """Evenly spaced arrivals at ``rate`` per second for ``duration``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    interval = 1.0 / rate
    count = int(duration * rate)
    return [start + i * interval for i in range(count)]


class OpenLoopDriverServant(Checkpointable):
    """Issues ``echo`` invocations on a fixed arrival schedule.

    Tracks per-invocation latency (send → reply, simulated seconds).
    Replies that never arrive simply leave a hole in ``latencies``.
    """

    type_id = "IDL:repro/OpenLoopDriver:1.0"

    def __init__(self, target_ior: str, schedule: List[float]) -> None:
        self._target_ior = target_ior
        self._schedule = list(schedule)
        self.sent = 0
        self.completed = 0
        self.latencies: List[float] = []
        self._send_times = {}
        self._proxy = None

    def _container(self):
        return self._eternal_container

    def _ensure(self):
        if self._proxy is None:
            self._proxy = self._container().connect(
                IOR.from_string(self._target_ior)
            )
        return self._proxy

    def start(self) -> None:
        process = self._container().process
        now = process.scheduler.now
        for at in self._schedule:
            delay = max(0.0, at - now)
            process.call_after(delay, self._fire)

    def _fire(self) -> None:
        proxy = self._ensure()
        token = self.sent
        self.sent += 1
        self._send_times[token] = self._container().process.scheduler.now
        proxy.invoke("echo", token, on_reply=self._on_reply)

    def _on_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            return
        sent_at = self._send_times.pop(reply.result, None)
        if sent_at is None:
            return
        now = self._container().process.scheduler.now
        self.completed += 1
        self.latencies.append(now - sent_at)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def p99_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        import math
        ordered = sorted(self.latencies)
        index = max(0, min(len(ordered) - 1,
                           math.ceil(0.99 * len(ordered)) - 1))
        return ordered[index]

    # ------------------------------------------------------------------
    # Checkpointable (the driver itself can be recovered, though load
    # generators are normally deployed unreplicated)
    # ------------------------------------------------------------------

    def get_state(self) -> Any:
        return {"sent": self.sent, "completed": self.completed}

    def set_state(self, state: Any) -> None:
        try:
            self.sent = int(state["sent"])
            self.completed = int(state["completed"])
        except (TypeError, KeyError, ValueError) as exc:
            raise InvalidState(f"bad driver state: {exc}") from exc


def make_open_loop_factory(target_ior: str, schedule: List[float]):
    """Factory for deploying an open-loop driver via a GenericFactory."""
    def factory() -> OpenLoopDriverServant:
        return OpenLoopDriverServant(target_ior, schedule)
    return factory
