"""The discrete-event scheduler that drives every simulation.

A single :class:`Scheduler` owns simulated time.  Components schedule
callbacks with :meth:`Scheduler.call_at` / :meth:`Scheduler.call_after` and
the simulation advances by executing callbacks in timestamp order.  Ties are
broken by insertion order, which makes every run deterministic.

The queue is a heap of ``(time, seq, event)`` tuples, so every comparison
the heap makes runs in C (``seq`` is unique, so the event itself is never
compared).  A pending event moves to a later deadline
(:meth:`Scheduler.move`) without a new heap entry: its entry keeps its
slot, and when the slot comes up the event is pushed again at its current
key.  A move draws a fresh sequence number, so the key an event finally
runs at is exactly the one a cancel plus a fresh ``call_at`` would have
given it, and every other event's number is unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.errors import ClockError, SimulationError
from repro.runtime.interfaces import Scheduler as SchedulerInterface
from repro.runtime.interfaces import TimerHandle

_heappop = heapq.heappop
_heappush = heapq.heappush
_heapreplace = heapq.heapreplace

#: ``Event.seq`` once the event has left the queue (run or dropped).
_GONE = -1


class Event:
    """A scheduled callback.  Returned by ``call_at``/``call_after``.

    Holding on to the event allows cancellation via :meth:`cancel` or
    :meth:`Scheduler.cancel`, and a later deadline via
    :meth:`Scheduler.move`.  ``time`` and ``seq`` are the key it runs at;
    the heap entry that holds it may carry an earlier key (see the module
    docstring).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the callback is still to run."""
        return not self.cancelled and self.seq != _GONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} {name}{flag}>"


# Virtual registration: Event keeps its __slots__ (an ABC base would give it
# a __dict__) yet satisfies isinstance checks against the interface.
TimerHandle.register(Event)


class Scheduler(SchedulerInterface):
    """Event loop with simulated time — the discrete-event implementation
    of :class:`repro.runtime.Scheduler`.

    ``now`` is the current simulated time in seconds.  The loop never runs
    wall-clock time; a full benchmark sweep completes in milliseconds of real
    time while reporting seconds of simulated time.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._executed = 0

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._executed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time:.9f}, now is t={self._now:.9f}"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        _heappush(self._heap, (time, seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ClockError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, fn, *args)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel a previously scheduled event (``None`` is a no-op)."""
        if event is not None:
            event.cancel()

    def move(self, event: Event, time: float) -> bool:
        """Run ``event`` at ``time`` instead, as if it had been cancelled
        and its callback scheduled afresh at ``time``.

        Lazy: the event keeps its heap entry.  It applies to an event
        still in the queue — pending, or cancelled but not yet reached,
        which the move revives — and to a deadline no earlier than its
        current one.  Otherwise it returns False and changes nothing.
        """
        if event.seq == _GONE or time < event.time:
            return False
        event.time = time
        event.seq = next(self._seq)
        event.cancelled = False
        return True

    def _settle_head(self) -> Optional[float]:
        """Drop cancelled entries and re-slot moved ones from the top of
        the heap; return the time of the next event to run (None when
        there is none)."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if event.cancelled:
                _heappop(heap)
                event.seq = _GONE
            elif event.seq != seq:
                _heapreplace(heap, (event.time, event.seq, event))
            else:
                return time
        return None

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        if self._settle_head() is None:
            return False
        time, _, event = _heappop(self._heap)
        event.seq = _GONE
        self._now = time
        self._executed += 1
        event.fn(*event.args)
        return True

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (or ``max_events``, a runaway guard)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise SimulationError(f"scheduler exceeded {max_events} events")

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run events with timestamp <= ``time``; leave ``now`` at ``time``."""
        if time < self._now:
            raise ClockError(f"run_until({time}) is in the past (now={self._now})")
        for _ in range(max_events):
            head = self._settle_head()
            if head is None or head > time:
                break
            self.step()
        else:
            raise SimulationError(f"scheduler exceeded {max_events} events")
        self._now = max(self._now, time)

    def run_while(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run while ``predicate()`` is true, up to ``timeout`` simulated seconds.

        Returns True if the predicate became false (success), False if the
        timeout elapsed first.  This is the standard way tests wait for a
        condition such as "replica recovered".
        """
        deadline = self._now + timeout
        for _ in range(max_events):
            if not predicate():
                return True
            head = self._settle_head()
            if head is None or head > deadline:
                self._now = max(self._now, deadline)
                return not predicate()
            self.step()
        raise SimulationError(f"scheduler exceeded {max_events} events")

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)
