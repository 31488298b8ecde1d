"""Sharded simulated deployments: many Totem rings on one simulated clock.

:class:`ShardedEternalSystem` is :class:`repro.core.sharded.ShardedCore`
(placement, cross-ring gateway, one shared observability plane) over N
:class:`~repro.simnet.system.EternalSystem` rings, each with its own
simulated Ethernet segment.

Typical use::

    system = ShardedEternalSystem(rings=4)
    system.register_factory("IDL:Counter:1.0", CounterServant)
    group = system.create_group("counter", "IDL:Counter:1.0")
    system.run_for(0.1)               # all rings form in parallel
    system.kill_node(group.operational_nodes()[0])   # one ring degrades;
    ...                                              # the others don't notice
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.config import EternalConfig
from repro.core.sharded import DEFAULT_NODE_TEMPLATE, ShardedCore
from repro.obs.profiling import ProfilingConfig
from repro.obs.telemetry import TelemetryConfig
from repro.simnet.network import ETHERNET_100MBPS, NetworkConfig
from repro.simnet.scheduler import Scheduler
from repro.simnet.system import EternalSystem, SimulatedTime
from repro.totem.config import TotemConfig


class ShardedEternalSystem(SimulatedTime, ShardedCore):
    """N independent simulated rings behind one placement + routing
    layer; ring ``index`` draws its faults from ``seed + index``."""

    def __init__(
        self,
        rings: int = 2,
        *,
        node_template: Sequence[str] = DEFAULT_NODE_TEMPLATE,
        seed: int = 0,
        network_config: NetworkConfig = ETHERNET_100MBPS,
        totem_config: Optional[TotemConfig] = None,
        eternal_config: Optional[EternalConfig] = None,
        keep_trace_records: bool = False,
        telemetry: Optional[TelemetryConfig] = None,
        profiling: Optional[ProfilingConfig] = None,
        store_factory=None,
    ) -> None:
        # One scheduler: every ring's events interleave on one simulated
        # clock, so rotations genuinely proceed in parallel wall-clock-wise
        # while staying deterministic.
        self.scheduler = Scheduler()

        def build_ring(index, node_ids, **ring) -> EternalSystem:
            return EternalSystem(
                node_ids, seed=seed + index, network_config=network_config,
                eternal_config=eternal_config, store_factory=store_factory,
                scheduler=self.scheduler, **ring)

        self._init_sharded(
            rings, node_template, build_ring, totem_config or TotemConfig(),
            keep_trace_records=keep_trace_records,
            telemetry=telemetry, profiling=profiling)
