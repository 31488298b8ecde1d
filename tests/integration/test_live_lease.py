"""Live (loopback-UDP) leader-lease test: kill the leaseholder mid-stream.

The wall-clock counterpart of the simulated lease tests: a real 3-node
ring, a read-heavy kvstore mix with the read fast path enabled, then a
SIGKILL of the node holding the read lease.  The stream must keep
flowing — stranded fast reads fall back to the total order, the ring
reforms, and the surviving replica takes over the lease — and the
consistency auditor (which shadows the lease-window rule) must stay
clean throughout.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.kvstore import make_kvstore_factory
from repro.apps.packet_driver import ReadMixDriver
from repro.core.config import EternalConfig
from repro.ftcorba.properties import FTProperties, ReplicationStyle
from repro.live.system import LiveSystem

pytestmark = pytest.mark.live

KVSTORE_TYPE = "IDL:repro/KvStore:1.0"
DRIVER_TYPE = "IDL:repro/ClosedLoopDriver:1.0"
NODES = ["n1", "n2", "n3"]


async def _kill_leaseholder_scenario():
    system = LiveSystem(
        NODES, eternal_config=EternalConfig(read_lease=True))
    auditor = system.attach_auditor()
    try:
        assert await system.wait_for(system.ring_formed, timeout=15.0), \
            "Totem ring did not form on loopback UDP"
        server_nodes = ["n2", "n3"]
        system.register_factory(KVSTORE_TYPE, make_kvstore_factory(200),
                                nodes=server_nodes)
        group = system.create_group(
            "store", KVSTORE_TYPE,
            FTProperties(replication_style=ReplicationStyle.ACTIVE,
                         initial_replicas=2, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=server_nodes)
        assert await system.wait_for(
            lambda: all(group.is_operational_on(n) for n in server_nodes),
            timeout=15.0)
        iogr = group.iogr().stringify()
        system.register_factory(DRIVER_TYPE,
                                lambda: ReadMixDriver(iogr), nodes=["n1"])
        driver_group = system.create_group(
            "driver", DRIVER_TYPE,
            FTProperties(replication_style=ReplicationStyle.ACTIVE,
                         initial_replicas=1, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=["n1"])
        assert await system.wait_for(
            lambda: driver_group.is_operational_on("n1"), timeout=15.0)
        driver = driver_group.servant_on("n1")
        t = system.tracer

        # The fast path is live: reads are being served point-to-point.
        assert await system.wait_for(
            lambda: t.count("lease.read_served") >= 50, timeout=15.0), \
            "read fast path never engaged"
        assert driver.reads_acked > 0

        # SIGKILL the leaseholder (the lowest executing ring member).
        before = driver.acked
        system.kill_node("n2")
        assert await system.wait_for(
            lambda: driver.acked > before + 100, timeout=20.0), \
            "read stream stalled after the leaseholder was killed"
        # The survivor holds the lease now and serves reads again.
        served = t.count("lease.read_served")
        assert await system.wait_for(
            lambda: t.count("lease.read_served") > served, timeout=15.0), \
            "fast path never resumed on the surviving replica"
        return auditor
    finally:
        system.close()


def test_live_kill_the_leaseholder_stream_continues_audit_clean():
    auditor = asyncio.run(_kill_leaseholder_scenario())
    auditor.finish(raise_on_findings=True)
