"""An Ethernet-like shared-medium network model.

The paper's testbed was a 100 Mbps Ethernet whose 1518-byte maximum frame
size forces Eternal/Totem to fragment any larger IIOP message into multiple
multicast packets — the effect that shapes Figure 6.  This model reproduces
the mechanism:

* the medium is **shared and serialized**: one frame occupies it at a time,
  so concurrent senders queue behind each other;
* each frame pays fixed per-frame overhead (header, FCS, preamble, inter-frame
  gap) in addition to its payload bytes;
* a payload larger than the MTU payload capacity is **rejected** — callers
  (the Totem fragmentation layer) must fragment, exactly as the paper states.

Payloads are opaque Python objects with an explicit ``size_bytes``; the model
charges time for the declared size, so layers must declare honest sizes (the
GIOP layer produces real byte strings, so sizes are exact there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.errors import NetworkError, UnknownNode
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.runtime.trace import NULL_TRACER, Tracer

# A filter sees (src, dst, payload, size_bytes) and returns True to DROP.
DropFilter = Callable[[str, str, Any, int], bool]
DeliverFn = Callable[[str, Any], None]

ETHERNET_FRAME_MAX = 1518      # bytes, incl. MAC header + FCS (paper's figure)
ETHERNET_HEADER = 18           # MAC header (14) + FCS (4)
ETHERNET_SILENCE = 20          # preamble (8) + inter-frame gap (12), in byte-times


@dataclass(frozen=True)
class NetworkConfig:
    """Physical parameters of the medium.

    ``mtu_payload`` is the largest payload a single frame can carry
    (1518 - 18 = 1500 for classic Ethernet).  ``propagation_delay`` covers
    signal propagation plus NIC/driver latency per frame.
    """

    bandwidth_bps: float = 100e6
    propagation_delay: float = 50e-6
    frame_max: int = ETHERNET_FRAME_MAX
    frame_header: int = ETHERNET_HEADER
    frame_silence: int = ETHERNET_SILENCE
    per_frame_cpu: float = 30e-6   # send+receive protocol processing per frame
    #: Bandwidth of the out-of-band data lane: a dedicated point-to-point
    #: interconnect (think a second NIC on a switched full-duplex fabric,
    #: the classic "separate replication network") that bulk unicast may
    #: use instead of the shared broadcast segment.  Each ordered
    #: ``(src, dst)`` pair is an independent serialized link, so bulk
    #: transfers neither contend with the ordered multicast stream nor
    #: with each other across different links.
    oob_bandwidth_bps: float = 1e9

    @property
    def mtu_payload(self) -> int:
        return self.frame_max - self.frame_header

    def frame_time(self, payload_bytes: int) -> float:
        """Seconds the medium is occupied by one frame with this payload."""
        wire_bytes = payload_bytes + self.frame_header + self.frame_silence
        return wire_bytes * 8.0 / self.bandwidth_bps

    def oob_frame_time(self, payload_bytes: int) -> float:
        """Seconds one out-of-band link is occupied by one frame."""
        wire_bytes = payload_bytes + self.frame_header + self.frame_silence
        return wire_bytes * 8.0 / self.oob_bandwidth_bps


ETHERNET_100MBPS = NetworkConfig()
"""The paper's medium: 100 Mbps Ethernet, 1518-byte frames."""


class Network:
    """The shared medium connecting all simulated processes.

    Nodes attach with a delivery callback; :meth:`unicast` and
    :meth:`broadcast` move single frames.  Loss and partitions are imposed by
    registered drop filters (see :mod:`repro.simnet.faults`).
    """

    def __init__(
        self,
        scheduler: Scheduler,
        config: NetworkConfig = ETHERNET_100MBPS,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.tracer = tracer
        self._nodes: Dict[str, Process] = {}
        self._handlers: Dict[str, DeliverFn] = {}
        self._filters: List[DropFilter] = []
        self._medium_free_at = 0.0
        self._link_free_at: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def attach(self, process: Process, deliver: DeliverFn) -> None:
        """Attach a process; ``deliver(src_node_id, payload)`` is called for
        each frame that reaches it while it is alive."""
        self._nodes[process.node_id] = process
        self._handlers[process.node_id] = deliver

    def set_handler(self, node_id: str, deliver: DeliverFn) -> None:
        """Replace the delivery callback (used when a stack is rebuilt
        after a process restart)."""
        if node_id not in self._nodes:
            raise UnknownNode(node_id)
        self._handlers[node_id] = deliver

    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def process(self, node_id: str) -> Process:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    # ------------------------------------------------------------------
    # Fault filters
    # ------------------------------------------------------------------

    def add_filter(self, fn: DropFilter) -> None:
        self._filters.append(fn)

    def remove_filter(self, fn: DropFilter) -> None:
        self._filters.remove(fn)

    def _dropped(self, src: str, dst: str, payload: Any, size: int) -> bool:
        return any(f(src, dst, payload, size) for f in self._filters)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _occupy_medium(self, size_bytes: int) -> float:
        """Serialize one frame onto the shared medium; returns arrival time."""
        now = self.scheduler.now
        start = max(now, self._medium_free_at)
        tx_time = self.config.frame_time(size_bytes)
        self._medium_free_at = start + tx_time
        return self._medium_free_at + self.config.propagation_delay \
            + self.config.per_frame_cpu

    def _check_size(self, size_bytes: int) -> None:
        if size_bytes < 0:
            raise NetworkError(f"negative frame size {size_bytes}")
        if size_bytes > self.config.mtu_payload:
            raise NetworkError(
                f"frame payload {size_bytes} exceeds MTU payload "
                f"{self.config.mtu_payload}; fragment before sending"
            )

    def _occupy_link(self, src: str, dst: str, size_bytes: int) -> float:
        """Serialize one frame onto the dedicated out-of-band link from
        ``src`` to ``dst``; returns arrival time.  Each ordered pair is an
        independent full-duplex link, so out-of-band frames contend neither
        with the shared broadcast medium nor with other links."""
        key = (src, dst)
        now = self.scheduler.now
        start = max(now, self._link_free_at.get(key, 0.0))
        tx_time = self.config.oob_frame_time(size_bytes)
        self._link_free_at[key] = start + tx_time
        return self._link_free_at[key] + self.config.propagation_delay \
            + self.config.per_frame_cpu

    def unicast(
        self, src: str, dst: str, payload: Any, size_bytes: int,
        *, oob: bool = False,
    ) -> None:
        """Send one frame from ``src`` to ``dst``.

        With ``oob=True`` the frame travels the out-of-band point-to-point
        lane (see :attr:`NetworkConfig.oob_bandwidth_bps`) instead of the
        shared broadcast segment.  Drop filters and MTU limits apply on
        both lanes.
        """
        if dst not in self._nodes:
            raise UnknownNode(dst)
        self._check_size(size_bytes)
        kind = "oob_unicast" if oob else "unicast"
        self.tracer.emit("net", kind, src=src, dst=dst, size=size_bytes)
        self.tracer.add("net.bytes", size_bytes)
        if oob:
            arrival = self._occupy_link(src, dst, size_bytes)
        else:
            arrival = self._occupy_medium(size_bytes)
        if self._dropped(src, dst, payload, size_bytes):
            self.tracer.emit("net", "drop", src=src, dst=dst)
            return
        self.scheduler.call_at(arrival, self._deliver, src, dst, payload)

    def broadcast(self, src: str, payload: Any, size_bytes: int) -> None:
        """Send one frame from ``src`` to every attached node, including the
        sender (multicast loopback, as Totem relies on seeing its own
        messages in the total order)."""
        self._check_size(size_bytes)
        self.tracer.emit("net", "broadcast", src=src, size=size_bytes)
        self.tracer.add("net.bytes", size_bytes)
        arrival = self._occupy_medium(size_bytes)
        for dst in self._nodes:
            if self._dropped(src, dst, payload, size_bytes):
                self.tracer.emit("net", "drop", src=src, dst=dst)
                continue
            self.scheduler.call_at(arrival, self._deliver, src, dst, payload)

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        process = self._nodes.get(dst)
        if process is None or not process.alive:
            self.tracer.emit("net", "dead_dst", src=src, dst=dst)
            return
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, payload)
