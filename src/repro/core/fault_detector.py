"""Replica-level fault detection (FT-CORBA pull monitoring).

Crash faults of whole processes are detected by the Totem membership
protocol (a dead node falls out of the ring).  But FT-CORBA also requires
detecting *replica* faults on a live host — an object that hangs or
livelocks while its process keeps answering the network.  The FT-CORBA
standard uses pull-based monitoring: a Fault Detector periodically invokes
``is_alive()`` on each monitored object at the user-specified *fault
monitoring interval* (one of the §2 fault tolerance properties).

:class:`ReplicaFaultDetector` runs on every node, polls each locally
hosted replica, and multicasts a :class:`ReplicaFault` envelope when a
replica misses ``SUSPECT_AFTER`` consecutive polls — the report travels in
the total order, so all nodes (and the Replication Manager) learn of the
fault at the same logical point.  The Replication Manager reacts exactly
as for a crash: the member is removed and a replacement is placed.

The simulator injects this fault class via :meth:`EternalSystem.hang_replica`
(the servant stops completing operations without the process dying).
"""

from __future__ import annotations

from typing import Dict, Set, TYPE_CHECKING

from repro.core.envelope import ReplicaFault
from repro.runtime.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replication import ReplicaBinding, ReplicationMechanisms

SUSPECT_AFTER = 3
"""Consecutive failed liveness polls before a replica is reported faulty."""


class ReplicaFaultDetector:
    """Per-node pull-based monitor over the locally hosted replicas."""

    def __init__(self, mechanisms: "ReplicationMechanisms",
                 interval: float) -> None:
        self.mechanisms = mechanisms
        self.node_id = mechanisms.node_id
        self.tracer = mechanisms.tracer
        self._strikes: Dict[str, int] = {}
        self._reported: Set[str] = set()
        self._timer = PeriodicTimer(
            mechanisms.process.scheduler, interval, self._poll
        )
        mechanisms.process.on_crash(self._timer.stop)

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    def _poll(self) -> None:
        if not self.mechanisms.process.alive:
            return
        for group_id, binding in list(self.mechanisms.bindings.items()):
            if group_id in self._reported:
                continue
            if self._is_alive(binding):
                # A suspicion short of the report threshold evaporates.
                self._strikes[group_id] = 0
                continue
            strikes = self._strikes.get(group_id, 0) + 1
            self._strikes[group_id] = strikes
            self.tracer.emit("fault_detector", "suspect",
                             node=self.node_id, group=group_id,
                             strikes=strikes)
            if strikes >= SUSPECT_AFTER:
                self._report(group_id)

    def _is_alive(self, binding: "ReplicaBinding") -> bool:
        """Pull-based liveness: a healthy replica either has an empty work
        queue or is making progress through it.

        A *hung* replica shows a characteristic signature: work is queued
        but the executed-operations counter has stopped advancing.
        """
        container = binding.container
        if not container.instantiated:
            return True            # cold backups are not executing by design
        servant = container.servant
        if getattr(servant, "_hung_for_test", False):
            return False
        if container.queue_depth == 0:
            return True
        progressed = (container.operations_executed
                      != getattr(binding, "_last_ops_seen", -1))
        binding._last_ops_seen = container.operations_executed
        return progressed

    def _report(self, group_id: str) -> None:
        self._reported.add(group_id)
        self.tracer.emit("fault_detector", "report", node=self.node_id,
                         group=group_id)
        self.mechanisms.multicast(ReplicaFault(group_id, self.node_id))

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-group suspicion state (rendered by the health exposition)."""
        groups = set(self._strikes) | self._reported
        groups.update(self.mechanisms.bindings)
        return {
            group_id: {
                "strikes": self._strikes.get(group_id, 0),
                "reported": int(group_id in self._reported),
            }
            for group_id in sorted(groups)
        }

    def forget(self, group_id: str) -> None:
        """Clear history (the replica was replaced)."""
        self._strikes.pop(group_id, None)
        self._reported.discard(group_id)
