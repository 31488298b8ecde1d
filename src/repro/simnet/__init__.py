"""Discrete-event simulation substrate for the Eternal reproduction.

The paper measured a real testbed (UltraSPARC workstations on 100 Mbps
Ethernet).  We substitute a deterministic discrete-event simulation: simulated
processes host the ORB/Eternal stacks, and an Ethernet-like shared medium
carries the multicast frames, including the MTU-driven fragmentation that
shapes Figure 6 of the paper.

Public surface:

* :class:`~repro.simnet.scheduler.Scheduler` — the event loop and clock.
* :class:`~repro.simnet.process.Process` — a crashable simulated process.
* :class:`~repro.simnet.network.Network` / :class:`~repro.simnet.network.NetworkConfig`
  — the shared-medium network model.
* :class:`~repro.simnet.faults.FaultInjector` — crashes, partitions, loss.

The tracer and the periodic timer are substrate-independent and live in
:mod:`repro.runtime.trace` / :mod:`repro.runtime.timers`.
"""

from repro.simnet.faults import FaultInjector
from repro.simnet.network import Network, NetworkConfig, ETHERNET_100MBPS
from repro.simnet.process import Process
from repro.simnet.scheduler import Event, Scheduler

__all__ = [
    "Event",
    "Scheduler",
    "Process",
    "Network",
    "NetworkConfig",
    "ETHERNET_100MBPS",
    "FaultInjector",
]
