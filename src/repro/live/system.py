"""The :class:`LiveSystem` facade: a whole Eternal deployment on UDP.

The wall-clock counterpart of the simulator's ``EternalSystem`` — same
substrate-neutral core (:class:`repro.core.system.SystemCore`), same
protocol stacks, but hosts are :class:`~repro.live.node.LiveNode`\\ s
with real sockets and timers on an asyncio loop.  Time advances by
*awaiting*, so the running/waiting helpers are coroutines::

    system = LiveSystem(["n1", "n2", "n3"])      # inside a running loop
    system.register_factory("IDL:Counter:1.0", CounterServant)
    await system.wait_for(system.ring_formed, timeout=10.0)
    group = system.create_group("counter", "IDL:Counter:1.0")
    ...
    system.kill_node("n2")
    system.restart_node("n2")
    await system.wait_for(lambda: group.is_operational_on("n2"))
    system.close()
"""

from __future__ import annotations

import asyncio
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import EternalConfig
from repro.core.system import SystemCore
from repro.errors import UnknownNode
from repro.live.clock import LiveScheduler
from repro.live.node import LiveNode
from repro.live.transport import UdpTransport
from repro.runtime.interfaces import Host
from repro.totem.config import TotemConfig

#: Totem tuned for wall-clock time on a shared loopback host.  The
#: simulator's defaults assume ideal 100 Mbps latencies (20 ms token
#: loss timeout); under asyncio scheduling jitter and CI-grade machines
#: those would misdiagnose slow timers as token loss and churn the ring.
#: These values keep the same ordering (hold ≪ timeout, join < gather)
#: with two orders of magnitude of slack.  ``token_hold`` is the
#: quiet-ring hold — what keeps an idle ring from spinning the one event
#: loop (~790 visits/s); the first payload queued anywhere ends it
#: (``HoldCancel``) — and the batching window of a member with a
#: backlog; a ring carrying traffic does not wait for it.
LIVE_TOTEM_CONFIG = TotemConfig(
    token_hold=0.001,
    token_timeout=0.25,
    gather_timeout=0.08,
    join_interval=0.04,
    probe_interval=0.5,
)


class WallClockTime:
    """Letting wall-clock time pass on a deployment's ``loop``: a single
    ring and a sharded facade (:mod:`repro.live.sharded`) both await."""

    loop: asyncio.AbstractEventLoop

    async def run_for(self, duration: float) -> None:
        await asyncio.sleep(duration)

    async def wait_for(self, predicate: Callable[[], bool],
                       timeout: float = 10.0, *,
                       poll_interval: float = 0.005) -> bool:
        """Poll ``predicate`` until true; False on wall-clock timeout."""
        deadline = self.loop.time() + timeout
        while True:
            if predicate():
                return True
            if self.loop.time() >= deadline:
                return bool(predicate())
            await asyncio.sleep(poll_interval)


class LiveSystem(WallClockTime, SystemCore):
    """A complete live (loopback-UDP, wall-clock) Eternal deployment.

    Must be constructed while an asyncio event loop is available (pass
    ``loop`` explicitly, or construct inside a running loop).
    """

    def __init__(
        self,
        node_ids: List[str],
        *,
        totem_config: Optional[TotemConfig] = None,
        eternal_config: Optional[EternalConfig] = None,
        manager_node: Optional[str] = None,
        keep_trace_records: bool = False,
        telemetry=None,
        profiling=None,
        store_dir: Optional[str] = None,
        store_fsync: str = "checkpoint",
        loop: Optional[asyncio.AbstractEventLoop] = None,
        shared_observability=None,
        ring_name: str = "",
        gateway_port=None,
    ) -> None:
        if loop is None:
            loop = asyncio.get_event_loop()
        self.loop = loop
        self.scheduler = LiveScheduler(loop)
        store_factory = None
        if store_dir is not None:
            # One journal root per node, as each real deployment node
            # would own its own disk.  The store survives kill()/restart()
            # because SystemCore caches it outside the node stack.
            from repro.store.journal import JournalStore

            def store_factory(node_id: str, _root=store_dir,
                              _fsync=store_fsync) -> JournalStore:
                return JournalStore(os.path.join(_root, node_id),
                                    fsync=_fsync)
        self._init_core(
            node_ids,
            totem_config=totem_config or LIVE_TOTEM_CONFIG,
            eternal_config=eternal_config,
            manager_node=manager_node,
            keep_trace_records=keep_trace_records,
            telemetry=telemetry,
            profiling=profiling,
            store_factory=store_factory,
            shared_observability=shared_observability,
            ring_name=ring_name,
            gateway_port=gateway_port,
        )
        # A ring of a sharded facade adopts the facade's plane and must not
        # tear it down in close(); the facade owns that lifecycle.
        self._owns_observability = shared_observability is None
        self.nodes: Dict[str, LiveNode] = {
            node_id: LiveNode(self, node_id) for node_id in node_ids
        }
        self.peer_addrs: Dict[str, Tuple[str, int]] = {
            node_id: node.addr for node_id, node in self.nodes.items()
        }
        for node_id in node_ids:
            self._add_stack(self.nodes[node_id].host)
        self.resource_manager.set_alive(set(node_ids))

    def _make_transport(self, process: Host) -> UdpTransport:
        return self.nodes[process.node_id].make_transport()

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        self.tracer.emit("fault", "crash", node=node_id)
        self.nodes[node_id].kill()

    def restart_node(self, node_id: str) -> None:
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        self.tracer.emit("fault", "restart", node=node_id)
        self.nodes[node_id].restart()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear the deployment down: crash every node (cancelling all
        protocol timers via their crash listeners) and release sockets."""
        if self._owns_observability:
            self.telemetry.stop()
            self.profiler.release()
        for node in self.nodes.values():
            node.kill()
        self.close_stores()
