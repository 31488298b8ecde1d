"""Crash/restart lifecycle shared by simulated and live hosts.

:class:`BaseHost` implements everything in :class:`repro.runtime.Host`
that does not depend on the substrate: liveness, the incarnation counter,
the announce-epoch counter, the installed ring id, listener bookkeeping,
and the incarnation-guarded ``call_after``.  ``repro.simnet.process.Process`` and
``repro.live.node.LiveHost`` are thin subclasses.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.errors import ProcessCrashed
from repro.runtime.interfaces import Host, Scheduler, TimerHandle
from repro.runtime.trace import NULL_TRACER, Tracer


class BaseHost(Host):
    """One crashable host identified by ``node_id``."""

    def __init__(
        self,
        scheduler: Scheduler,
        node_id: str,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.scheduler = scheduler
        self.node_id = node_id
        self.tracer = tracer
        self._alive = True
        self._incarnation = 0
        self._announce_epoch = 0
        #: The highest Totem ring id a member on this host installed.  It
        #: outlives restarts, as Totem's ring sequence number lives on
        #: stable storage: a member rebuilt after every host of its ring
        #: went down starts from it, so the re-formed ring gets a new id
        #: instead of reusing one that named a different ring.
        self.installed_ring_id = 0
        self._crash_listeners: List[Callable[[], None]] = []
        self._restart_listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def incarnation(self) -> int:
        """Counts restarts; lets components detect stale callbacks."""
        return self._incarnation

    def next_announce_epoch(self) -> int:
        """A per-host monotone counter for 'my volatile state is gone'
        announcements — bumped on stack rebuilds after a restart and on
        history loss in a partition merge, never reset."""
        self._announce_epoch += 1
        return self._announce_epoch

    def check_alive(self) -> None:
        """Raise :class:`ProcessCrashed` if the host is down."""
        if not self._alive:
            raise ProcessCrashed(f"process {self.node_id} is crashed")

    def crash(self) -> None:
        """Kill the host.  All hosted components are notified, volatile
        state is lost, and in-flight deliveries to this host are dropped
        by the substrate (it checks ``alive`` at delivery time)."""
        if not self._alive:
            return
        self._alive = False
        self.tracer.emit("process", "crash", node=self.node_id)
        for listener in list(self._crash_listeners):
            listener()

    def restart(self) -> None:
        """Re-launch the host with a fresh incarnation number."""
        if self._alive:
            return
        self._alive = True
        self._incarnation += 1
        self.tracer.emit("process", "restart", node=self.node_id,
                         incarnation=self._incarnation)
        for listener in list(self._restart_listeners):
            listener()

    # ------------------------------------------------------------------
    # Listener registration
    # ------------------------------------------------------------------

    def on_crash(self, fn: Callable[[], None]) -> None:
        self._crash_listeners.append(fn)

    def on_restart(self, fn: Callable[[], None]) -> None:
        self._restart_listeners.append(fn)

    # ------------------------------------------------------------------
    # Scheduling helpers that respect liveness
    # ------------------------------------------------------------------

    def call_after(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        """Schedule ``fn`` after ``delay``; it is silently skipped if the
        host has crashed or restarted in the meantime."""
        incarnation = self._incarnation

        def guarded() -> None:
            if self._alive and self._incarnation == incarnation:
                fn(*args)

        return self.scheduler.call_after(delay, guarded)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "down"
        return (f"<{type(self).__name__} {self.node_id} {state} "
                f"inc={self._incarnation}>")
