"""The narrow interfaces the protocol stack needs from its substrate.

Three capabilities cover everything the Eternal/Totem code asks of the
world it runs on:

* :class:`Clock` / :class:`Scheduler` — "what time is it" and "call me
  later", returning cancellable :class:`TimerHandle`\\ s;
* :class:`Host` — one crashable process-like unit with crash/restart
  listeners and an incarnation-guarded ``call_after``;
* :class:`Transport` — the host's single network attachment: unicast,
  broadcast onto the shared segment, and payload-type dispatch of
  incoming frames.

The discrete-event simulator (:mod:`repro.simnet`) and the asyncio/UDP
live runtime (:mod:`repro.live`) both implement these; the conformance
suite in ``tests/unit/runtime`` runs the same assertions against each.
Time is always *seconds since the substrate started* — simulated seconds
in simnet, wall-clock seconds in live — so protocol timeouts carry over
unchanged.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Type

Handler = Callable[[str, Any], None]


class TimerHandle(abc.ABC):
    """A scheduled callback that can be cancelled."""

    @abc.abstractmethod
    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""


class Clock(abc.ABC):
    """A monotonically advancing clock."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds since the substrate started."""


class Scheduler(Clock):
    """A clock that can also schedule callbacks."""

    @abc.abstractmethod
    def call_at(self, time: float, fn: Callable[..., Any],
                *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` at absolute ``time`` (seconds)."""

    @abc.abstractmethod
    def call_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds; never runs
        synchronously, and equal deadlines run in submission order.

        Resolution is the substrate's.  The simulator is exact.  The live
        scheduler resolves to the nearest millisecond, the granularity of
        the selector it sleeps in: a delay under half of it (the modelled
        CPU costs carried over from the simulator — 10–100 µs) or a
        negative one runs on the next loop pass, still cancellable, in
        submission order; any longer delay is a real timer and never
        fires early."""

    def cancel(self, handle: "TimerHandle | None") -> None:
        """Cancel a previously scheduled callback (``None`` is a no-op)."""
        if handle is not None:
            handle.cancel()


class Host(abc.ABC):
    """One crashable process-like unit identified by ``node_id``.

    Hosted components register crash/restart listeners so the whole stack
    (ORB, Eternal mechanisms, Totem member) tears down and rebuilds
    coherently, and schedule deferred work through :meth:`call_after`,
    which silently drops callbacks that outlive the incarnation that
    scheduled them.
    """

    node_id: str
    scheduler: Scheduler
    #: Highest Totem ring id installed here, kept across restarts.
    installed_ring_id: int

    @property
    @abc.abstractmethod
    def alive(self) -> bool: ...

    @property
    @abc.abstractmethod
    def incarnation(self) -> int:
        """Counts restarts; lets components detect stale callbacks."""

    @abc.abstractmethod
    def next_announce_epoch(self) -> int:
        """A per-host monotone counter for 'my volatile state is gone'
        announcements — bumped on stack rebuilds after a restart, never
        reset."""

    @abc.abstractmethod
    def check_alive(self) -> None:
        """Raise :class:`repro.errors.ProcessCrashed` if the host is down."""

    @abc.abstractmethod
    def crash(self) -> None: ...

    @abc.abstractmethod
    def restart(self) -> None: ...

    @abc.abstractmethod
    def on_crash(self, fn: Callable[[], None]) -> None: ...

    @abc.abstractmethod
    def on_restart(self, fn: Callable[[], None]) -> None: ...

    @abc.abstractmethod
    def call_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        """Schedule ``fn`` after ``delay``; silently skipped if the host
        has crashed or restarted in the meantime."""


class Transport(abc.ABC):
    """A host's network attachment, routing incoming frames by payload class.

    Handlers survive nothing: a host restart rebuilds the protocol stack,
    and each new layer re-registers its types, displacing the dead one.
    Broadcast models the shared segment of the paper's testbed: every
    attached host receives the frame, *including the sender* — Totem
    relies on self-delivery of its own multicasts.
    """

    def __init__(self, process: Host) -> None:
        self.process = process
        self._handlers: Dict[Type, Handler] = {}

    @property
    def node_id(self) -> str:
        return self.process.node_id

    @property
    @abc.abstractmethod
    def mtu_payload(self) -> int:
        """Largest payload ``size_bytes`` a single frame may declare."""

    @abc.abstractmethod
    def unicast(
        self, dst: str, payload: Any, size_bytes: int, *, oob: bool = False,
    ) -> None:
        """Send ``payload`` to the host named ``dst`` only.

        ``oob=True`` requests the transport's out-of-band data lane — a
        point-to-point path that does not contend with the ordered
        broadcast stream (the recovery bulk lane uses it to move
        checkpoint pages).  Transports without a distinct lane simply
        ignore the flag: plain unicast is already off the ordering path.
        """

    @abc.abstractmethod
    def broadcast(self, payload: Any, size_bytes: int) -> None:
        """Send ``payload`` to every attached host, the sender included."""

    # Dispatch ----------------------------------------------------------

    def register(self, payload_type: Type, handler: Handler) -> None:
        """Route frames whose payload is an instance of ``payload_type``
        (exact class match first, then MRO walk) to ``handler``."""
        self._handlers[payload_type] = handler

    def unregister(self, payload_type: Type) -> None:
        self._handlers.pop(payload_type, None)

    def deliver(self, src: str, payload: Any) -> None:
        """Dispatch one incoming frame to its registered handler."""
        handler = self._handlers.get(type(payload))
        if handler is None:
            for base in type(payload).__mro__[1:]:
                handler = self._handlers.get(base)
                if handler is not None:
                    break
        if handler is not None:
            handler(src, payload)
