"""Sharded live deployments: many UDP Totem rings on one asyncio loop.

:class:`LiveShardedSystem` is :class:`repro.core.sharded.ShardedCore`
(placement, cross-ring gateway, one shared observability plane) over N
:class:`~repro.live.system.LiveSystem` rings — each with its own
ephemeral UDP ports, its own peer table (a broadcast fans out to that
ring's ports only) and its own token rotation.

Because every ring runs real sockets on the one loop, aggregate
throughput scales with rings until the host's cores or the loop itself
saturate — the live analogue of the simulator's per-ring token bound.

Typical use (inside a running loop)::

    system = LiveShardedSystem(rings=4)
    system.register_factory("IDL:Counter:1.0", CounterServant)
    await system.wait_for(system.ring_formed, timeout=10.0)
    group = system.create_group("counter", "IDL:Counter:1.0")
    ...
    system.close()
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

from repro.core.config import EternalConfig
from repro.core.sharded import DEFAULT_NODE_TEMPLATE, ShardedCore
from repro.live.clock import LiveScheduler
from repro.live.system import LIVE_TOTEM_CONFIG, LiveSystem, WallClockTime
from repro.obs.profiling import ProfilingConfig
from repro.obs.telemetry import TelemetryConfig
from repro.totem.config import TotemConfig


class LiveShardedSystem(WallClockTime, ShardedCore):
    """N independent live rings behind one placement + routing layer."""

    def __init__(
        self,
        rings: int = 2,
        *,
        node_template: Sequence[str] = DEFAULT_NODE_TEMPLATE,
        totem_config: Optional[TotemConfig] = None,
        eternal_config: Optional[EternalConfig] = None,
        keep_trace_records: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
        profiling: Optional[ProfilingConfig] = None,
        store_dir: Optional[str] = None,
        store_fsync: str = "checkpoint",
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        if loop is None:
            loop = asyncio.get_event_loop()
        self.loop = loop
        self.scheduler = LiveScheduler(loop)

        def build_ring(index, node_ids, **ring) -> LiveSystem:
            # Node ids are globally unique, so all rings can share one
            # store root: each node keeps its own journal directory.
            return LiveSystem(
                node_ids, eternal_config=eternal_config,
                store_dir=store_dir, store_fsync=store_fsync, loop=loop,
                **ring)

        self._init_sharded(
            rings, node_template, build_ring, totem_config or LIVE_TOTEM_CONFIG,
            keep_trace_records=keep_trace_records,
            telemetry=telemetry, profiling=profiling)

    def close(self) -> None:
        """Stop the shared plane (the rings adopted it, so their own
        ``close()`` leaves it alone), then tear every ring down."""
        self.telemetry.stop()
        self.profiler.release()
        for sub in self.rings.values():
            sub.close()
