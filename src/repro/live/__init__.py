"""The live runtime: the Eternal/Totem stack over UDP and the wall clock.

Hosts the *unchanged* protocol code (Totem ring member, Replication and
Recovery Mechanisms, interceptor, managers) on the
:mod:`repro.runtime` interfaces implemented with asyncio: real UDP
sockets on loopback, ``loop.call_later`` timers, and wall-clock time.
A :class:`~repro.live.system.LiveSystem` mirrors the simulator's
``EternalSystem`` facade.  :mod:`repro.live.loadgen` holds the apps the
live runtime deploys and the one ``deploy`` coroutine that puts the
closed-loop client (:mod:`repro.apps.packet_driver`) on them, and
``python -m repro live`` (:mod:`repro.live.cli`) drives the one
kill/recover scenario over ``--rings`` rings end to end and reports
wall-clock recovery latency.

Tracing, metrics, the online consistency auditor, and the health
exposition from :mod:`repro.obs` work identically in live mode — they
only ever consumed the trace stream and the system facade.
"""

from repro.live.clock import LiveScheduler
from repro.live.node import LiveHost, LiveNode
from repro.live.system import LIVE_TOTEM_CONFIG, LiveSystem
from repro.live.transport import UdpTransport

__all__ = [
    "LIVE_TOTEM_CONFIG",
    "LiveHost",
    "LiveNode",
    "LiveScheduler",
    "LiveSystem",
    "UdpTransport",
]
