"""The :class:`EternalSystem` facade: a whole *simulated* Eternal deployment.

The substrate-neutral assembly (node stacks, managers, group handles,
introspection) lives in :class:`repro.core.system.SystemCore`; this
subclass supplies the discrete-event world: the simulated scheduler, the
modelled Ethernet segment, and scripted fault injection.  The wall-clock
counterpart is :class:`repro.live.system.LiveSystem`.

Typical use::

    system = EternalSystem(["n1", "n2", "n3"])
    system.register_factory("IDL:Counter:1.0", CounterServant)
    group = system.create_group("counter", "IDL:Counter:1.0",
                                FTProperties(initial_replicas=2))
    system.run_for(0.05)              # let the ring form and deploy
    ...
    system.kill_node("n2")            # fault injection
    system.restart_node("n2")         # re-launch; recovery synchronizes it
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.config import EternalConfig
from repro.core.system import SystemCore
from repro.errors import UnknownNode
from repro.runtime.interfaces import Host, Transport
from repro.simnet.endpoint import Endpoint
from repro.simnet.faults import FaultInjector
from repro.simnet.network import ETHERNET_100MBPS, Network, NetworkConfig
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.totem.config import TotemConfig


class SimulatedTime:
    """Advancing a deployment's simulated clock: a single ring and a
    sharded facade (:mod:`repro.simnet.sharded`) both just run their
    ``scheduler``."""

    scheduler: Scheduler

    def run_until(self, time: float) -> None:
        self.scheduler.run_until(time)

    def run_for(self, duration: float) -> None:
        self.scheduler.run_until(self.scheduler.now + duration)

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: float = 10.0) -> bool:
        """Run until ``predicate()`` is true; False on timeout."""
        return self.scheduler.run_while(lambda: not predicate(), timeout)


class EternalSystem(SimulatedTime, SystemCore):
    """A complete simulated deployment of the Eternal system."""

    def __init__(
        self,
        node_ids: List[str],
        *,
        seed: int = 0,
        network_config: NetworkConfig = ETHERNET_100MBPS,
        totem_config: Optional[TotemConfig] = None,
        eternal_config: Optional[EternalConfig] = None,
        manager_node: Optional[str] = None,
        keep_trace_records: bool = False,
        telemetry=None,
        profiling=None,
        store_factory=None,
        scheduler: Optional[Scheduler] = None,
        shared_observability=None,
        ring_name: str = "",
        gateway_port=None,
    ) -> None:
        # A sharded facade passes one shared scheduler so every ring's
        # events interleave on one simulated clock (rotations still
        # proceed in parallel: each ring has its own network medium).
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self._init_core(
            node_ids,
            totem_config=totem_config,
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
        self.network = Network(self.scheduler, network_config,
                               tracer=self.tracer)
        self.faults = FaultInjector(self.network, seed=seed,
                                    tracer=self.tracer)
        for node_id in node_ids:
            self._add_stack(Process(self.scheduler, node_id,
                                    tracer=self.tracer))
        # All nodes are up at t=0; view events keep this current afterwards.
        self.resource_manager.set_alive(set(node_ids))

    def _make_transport(self, process: Host) -> Transport:
        return Endpoint(process, self.network)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        if node_id not in self.stacks:
            raise UnknownNode(node_id)
        self.faults.crash(node_id)

    def restart_node(self, node_id: str) -> None:
        if node_id not in self.stacks:
            raise UnknownNode(node_id)
        self.faults.restart(node_id)
