"""The unreplicated baseline: one client, one server, plain point-to-point.

The paper quantifies Eternal's fault-free cost as "within the range of
10-15% of the response time for fault-tolerant CORBA test applications,
over their unreplicated counterparts" (§6).  This module provides the
unreplicated counterpart: the same mini-ORB and GIOP bytes, but carried by
direct unicast frames (the simulated TCP path) with no interception, no
multicast, no replication mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.giop.ior import IOR
from repro.giop.messages import ReplyMessage, ReplyStatus
from repro.orb.orb import Orb
from repro.orb.servant import Servant
from repro.simnet.endpoint import Endpoint
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.runtime.trace import NULL_TRACER, Tracer

BASELINE_PORT = 2809


@dataclass(frozen=True)
class RawIiop:
    """A point-to-point frame: IIOP bytes between two concrete nodes."""

    src_node: str
    dst_node: str
    kind: str            # "request" | "reply"
    data: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.data) + 8     # TCP/IP-ish framing overhead


class BaselineServer:
    """An unreplicated server: ORB + servant on one node."""

    def __init__(self, process: Process, network: Network, servant: Servant,
                 *, tracer: Tracer = NULL_TRACER) -> None:
        self.process = process
        self.endpoint = Endpoint(process, network)
        self.orb = Orb(f"{process.node_id}:baseline", host=process.node_id,
                       port=BASELINE_PORT)
        self.ior = self.orb.activate(servant)
        self.servant = servant
        self.tracer = tracer
        self._busy = False
        self._backlog: List[RawIiop] = []
        self.endpoint.register(RawIiop, self._on_frame)

    def _on_frame(self, src: str, frame: RawIiop) -> None:
        if frame.kind != "request":
            return
        if self._busy:
            self._backlog.append(frame)
            return
        self._execute(frame)

    def _execute(self, frame: RawIiop) -> None:
        decoded = self.orb.decode_request(frame.src_node, frame.data)
        if decoded is None:
            return
        self._busy = True
        self.process.call_after(decoded.duration, self._complete, frame,
                                decoded)

    def _complete(self, frame: RawIiop, decoded) -> None:
        reply = self.orb.execute_request(decoded)
        self._busy = False
        if reply is not None:
            self.endpoint.unicast(
                frame.src_node,
                RawIiop(self.process.node_id, frame.src_node, "reply", reply),
                len(reply) + 8,
            )
        if self._backlog:
            self._execute(self._backlog.pop(0))


class BaselineClient:
    """An unreplicated client issuing two-way invocations back-to-back."""

    def __init__(self, process: Process, network: Network, server_ior: IOR,
                 *, tracer: Tracer = NULL_TRACER) -> None:
        self.process = process
        self.endpoint = Endpoint(process, network)
        self.orb = Orb(f"{process.node_id}:baseline-client")
        self.orb.set_client_transport(self._transport)
        self.proxy = self.orb.connect(server_ior)
        self.server_node = server_ior.host
        self.tracer = tracer
        self.completed = 0
        self.latencies: List[float] = []
        self._sent_at: Optional[float] = None
        self._running = False
        self.endpoint.register(RawIiop, self._on_frame)

    def _transport(self, host: str, port: int, data: bytes) -> None:
        self.endpoint.unicast(
            self.server_node,
            RawIiop(self.process.node_id, self.server_node, "request", data),
            len(data) + 8,
        )

    def _on_frame(self, src: str, frame: RawIiop) -> None:
        if frame.kind != "reply":
            return
        self.orb.handle_reply(self.proxy.ior.host, self.proxy.ior.port,
                              frame.data)

    def start(self) -> None:
        self._running = True
        self._send_next()

    def stop(self) -> None:
        self._running = False

    def _send_next(self) -> None:
        self._sent_at = self.process.scheduler.now
        self.proxy.invoke("echo", self.completed, on_reply=self._on_reply)

    def _on_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            return
        self.latencies.append(self.process.scheduler.now - self._sent_at)
        self.completed += 1
        if self._running:
            self._send_next()

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)


class BaselinePair:
    """A ready-to-run unreplicated client/server pair on a fresh network."""

    def __init__(self, servant_factory, *, network_config=None,
                 seed: int = 0) -> None:
        from repro.simnet.network import ETHERNET_100MBPS
        self.scheduler = Scheduler()
        self.tracer = Tracer(keep_records=False)
        self.tracer.bind_clock(lambda: self.scheduler.now)
        self.network = Network(self.scheduler,
                               network_config or ETHERNET_100MBPS,
                               tracer=self.tracer)
        server_proc = Process(self.scheduler, "server", tracer=self.tracer)
        client_proc = Process(self.scheduler, "client", tracer=self.tracer)
        self.server = BaselineServer(server_proc, self.network,
                                     servant_factory(), tracer=self.tracer)
        self.client = BaselineClient(client_proc, self.network,
                                     self.server.ior, tracer=self.tracer)

    def run(self, duration: float) -> None:
        self.client.start()
        self.scheduler.run_until(self.scheduler.now + duration)
        self.client.stop()
