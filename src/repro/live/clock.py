"""Wall-clock scheduler over an asyncio event loop.

Implements :class:`repro.runtime.Scheduler` so the protocol stack's
timers (token retransmission, gather deadlines, checkpoint intervals …)
run on real time.  ``now`` is seconds since this scheduler was created —
the same "seconds since the substrate started" convention the simulator
uses, so protocol timeout constants carry over unchanged.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.runtime.interfaces import Scheduler, TimerHandle


def uvloop_available() -> bool:
    """True when the optional ``uvloop`` accelerator can be imported."""
    try:
        import uvloop  # noqa: F401
    except ImportError:
        return False
    return True


def new_event_loop(use_uvloop: bool = False) -> asyncio.AbstractEventLoop:
    """Create a fresh event loop for the live runtime.

    With ``use_uvloop=True`` the loop is a ``uvloop`` one — a drop-in
    libuv-backed replacement that cuts per-wakeup event-loop overhead on
    the hot datagram path.  ``uvloop`` is an *optional* extra
    (``pip install eternal-repro[uvloop]``); requesting it without the
    package installed raises ``RuntimeError`` with an actionable message
    rather than silently degrading, so benchmark arms stay honest.
    """
    if not use_uvloop:
        return asyncio.new_event_loop()
    try:
        import uvloop
    except ImportError as exc:
        raise RuntimeError(
            "uvloop requested but not installed — install the optional "
            "extra (pip install 'eternal-repro[uvloop]') or drop --uvloop"
        ) from exc
    return uvloop.new_event_loop()


#: Delays shorter than this run on the next loop pass instead of as a
#: timer: the stock selector loop rounds every timeout *up* to its 1 ms
#: granularity, so a modelled 10–100 µs CPU cost would sleep a whole
#: millisecond.  Half the granularity is round-to-nearest — what uvloop's
#: ``call_later`` already does, so both loops run the same program.
SUB_GRANULARITY = 0.0005


class LiveTimerHandle(TimerHandle):
    """Wraps an :class:`asyncio.Handle` (timer or next-pass callback)."""

    __slots__ = ("_handle",)

    def __init__(self, handle: asyncio.Handle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class LiveScheduler(Scheduler):
    """``call_at``/``call_after`` on an asyncio loop, wall-clock ``now``.

    Unlike the simulator — where scheduling in the past is a programming
    error and raises — a live substrate can observe "late" times simply
    because wall time moved while code ran; past deadlines are clamped to
    "as soon as possible".  ``call_after`` resolves to the nearest
    millisecond (see :data:`SUB_GRANULARITY` and the contract on
    :meth:`repro.runtime.Scheduler.call_after`).
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self._loop.time()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def now(self) -> float:
        """Wall-clock seconds since this scheduler was created."""
        return self._loop.time() - self._epoch

    def call_at(self, time: float, fn: Callable[..., Any],
                *args: Any) -> TimerHandle:
        when = max(self._epoch + time, self._loop.time())
        return LiveTimerHandle(self._loop.call_at(when, fn, *args))

    def call_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        if delay < SUB_GRANULARITY:
            return LiveTimerHandle(self._loop.call_soon(fn, *args))
        return LiveTimerHandle(self._loop.call_later(delay, fn, *args))
