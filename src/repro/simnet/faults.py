"""Fault injection: crashes, restarts, network partitions and message loss.

The paper's experiments "killed and then re-launched" server replicas; its
design discussion also covers partitioned operation.  :class:`FaultInjector`
provides those events as first-class operations on a simulation, implemented
as process control plus drop filters on the :class:`~repro.simnet.network.Network`.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.simnet.network import Network
from repro.runtime.trace import NULL_TRACER, Tracer


class FaultInjector:
    """Injects crash, partition, and loss faults into a simulation."""

    def __init__(
        self,
        network: Network,
        *,
        seed: int = 0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self._network = network
        self._tracer = tracer
        self._rng = random.Random(seed)
        self._partition_groups: Optional[List[frozenset]] = None
        self._loss_rate = 0.0
        self._partition_filter_installed = False
        self._loss_filter_installed = False

    # ------------------------------------------------------------------
    # Process faults
    # ------------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Kill the process on ``node_id`` (volatile state is lost)."""
        self._tracer.emit("fault", "crash", node=node_id)
        self._network.process(node_id).crash()

    def restart(self, node_id: str) -> None:
        """Re-launch a previously crashed process."""
        self._tracer.emit("fault", "restart", node=node_id)
        self._network.process(node_id).restart()

    def crash_after(self, delay: float, node_id: str) -> None:
        """Schedule a crash ``delay`` simulated seconds from now."""
        self._network.scheduler.call_after(delay, self.crash, node_id)

    def restart_after(self, delay: float, node_id: str) -> None:
        """Schedule a restart ``delay`` simulated seconds from now."""
        self._network.scheduler.call_after(delay, self.restart, node_id)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------

    def partition(self, groups: Sequence[Iterable[str]]) -> None:
        """Split the network into isolated groups of node ids.

        Frames between nodes in different groups are dropped; frames within a
        group flow normally.  Nodes not mentioned in any group are isolated.
        """
        frozen = [frozenset(g) for g in groups]
        seen: set = set()
        for group in frozen:
            if seen & group:
                raise SimulationError("partition groups must be disjoint")
            seen |= group
        self._partition_groups = frozen
        self._tracer.emit("fault", "partition",
                          groups=[sorted(g) for g in frozen])
        if not self._partition_filter_installed:
            self._network.add_filter(self._partition_drop)
            self._partition_filter_installed = True

    def heal(self) -> None:
        """Remove any partition; full connectivity is restored."""
        self._partition_groups = None
        self._tracer.emit("fault", "heal")

    def _partition_drop(self, src: str, dst: str, payload: Any, size: int) -> bool:
        if self._partition_groups is None:
            return False
        if src == dst:
            return False  # loopback never traverses the wire
        for group in self._partition_groups:
            if src in group:
                return dst not in group
        return True  # src not in any group: isolated

    # ------------------------------------------------------------------
    # Message loss
    # ------------------------------------------------------------------

    def set_loss_rate(self, rate: float) -> None:
        """Drop each (src, dst) frame copy independently with probability
        ``rate``.  Totem's retransmission machinery must recover the gaps."""
        if not 0.0 <= rate <= 1.0:
            raise SimulationError(f"loss rate {rate!r} outside [0, 1]")
        self._loss_rate = rate
        self._tracer.emit("fault", "loss_rate", rate=rate)
        if rate > 0.0 and not self._loss_filter_installed:
            self._network.add_filter(self._loss_drop)
            self._loss_filter_installed = True

    def _loss_drop(self, src: str, dst: str, payload: Any, size: int) -> bool:
        if self._loss_rate <= 0.0:
            return False
        if src == dst:
            return False  # local loopback never traverses the wire
        return self._rng.random() < self._loss_rate
