"""Live telemetry acceptance: a real 3-node ring on loopback UDP with the
full telemetry plane on.

The observability counterpart of ``test_live_runtime``: replicate a
counter under closed-loop load, serve ``/metrics/history`` over real
HTTP, kill a replica and require (a) the killed node's flight recorder to
have dumped its recent past to disk at the moment of the crash, (b) the
sampled metrics history to hold actual time series, and (c) the per-node
flight dumps to stitch back into cross-node invocation timelines.
"""

from __future__ import annotations

import asyncio
import glob
import json

import pytest

from repro.apps.counter import CounterServant
from repro.apps.packet_driver import ClosedLoopDriver
from repro.ftcorba.properties import FTProperties
from repro.live.health_http import start_health_server
from repro.live.system import LiveSystem
from repro.obs.report import (
    load_trace_jsonl,
    stitch_invocations,
    stitch_jsonl_streams,
)
from repro.obs import telemetry
from repro.obs.telemetry import TelemetryConfig

pytestmark = pytest.mark.live

NODES = ["n1", "n2", "n3"]


async def _fetch(port: int, path: str) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert b"200" in head.split(b"\r\n", 1)[0], head
    return body


async def _telemetry_scenario(flight_dir: str):
    # Full wire fidelity (no exclusions) so the stitched timelines carry
    # the per-node ring_deliver stage too.
    system = LiveSystem(NODES, telemetry=TelemetryConfig(
        flight_dir=flight_dir, sample_interval=0.1))
    auditor = system.attach_auditor()
    health_server = None
    try:
        assert await system.wait_for(system.ring_formed, timeout=15.0), \
            "Totem ring did not form on loopback UDP"
        health_server, port = await start_health_server(system, 0)

        server_nodes = ["n2", "n3"]
        system.register_factory(CounterServant.type_id, CounterServant,
                                nodes=server_nodes)
        group = system.create_group(
            "counter", CounterServant.type_id,
            FTProperties(initial_replicas=2, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=server_nodes,
        )
        assert await system.wait_for(
            lambda: all(group.is_operational_on(n) for n in server_nodes),
            timeout=15.0), "counter group never became operational"

        iogr = group.iogr().stringify()
        system.register_factory(
            ClosedLoopDriver.type_id,
            lambda: ClosedLoopDriver(iogr, "increment"),
            nodes=["n1"])
        driver_group = system.create_group(
            "driver", ClosedLoopDriver.type_id,
            FTProperties(initial_replicas=1, min_replicas=1,
                         fault_monitoring_interval=0.5),
            nodes=["n1"],
        )
        assert await system.wait_for(
            lambda: driver_group.is_operational_on("n1"), timeout=15.0)
        driver = driver_group.servant_on("n1")
        assert await system.wait_for(lambda: driver.acked >= 20,
                                     timeout=15.0), "no load flowing"
        # Let the 0.1 s sampler tick a few times under load.
        await system.run_for(0.5)

        # -- (b) the history endpoint serves real sampled series --------
        body = await _fetch(port, "/metrics/history")
        history = json.loads(body)
        series = history["series"]
        named = {key.split("{", 1)[0] for key in series}
        assert {"totem.send_queue_depth",
                "replica.outstanding_invocations"} <= named
        depths = [slot for key, slot in series.items()
                  if key.startswith("totem.send_queue_depth")]
        assert depths and all(len(s["points"]) >= 2 for s in depths), \
            "sampler produced fewer than 2 points per queue-depth series"
        assert all(s["kind"] == "gauge" for s in depths)

        # -- (a) killing a node dumps its flight ring at crash time -----
        system.kill_node("n3")
        await system.run_for(0.3)
        crash_dumps = glob.glob(f"{flight_dir}/flight-n3-*-crash.jsonl")
        assert crash_dumps, "killed node left no flight dump on disk"
        records = load_trace_jsonl(crash_dumps[0])
        assert records, "crash dump is empty"
        assert ("fault", "crash") in {(r.category, r.event)
                                      for r in records}
        assert any(r.category == "replication" for r in records), \
            "crash dump carries no causal context from before the kill"

        # -- (c) per-node dumps stitch into cross-node timelines --------
        system.telemetry.flight.dump_all("shutdown")
        return auditor
    finally:
        if health_server is not None:
            health_server.close()
        system.close()


def test_live_flight_dump_history_and_stitched_timelines(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(telemetry, "FLIGHT_EXCLUDE", ())
    flight_dir = str(tmp_path)
    auditor = asyncio.run(_telemetry_scenario(flight_dir))
    auditor.finish(raise_on_findings=True)

    merged = stitch_jsonl_streams(sorted(glob.glob(f"{flight_dir}/*.jsonl")))
    timelines = stitch_invocations(merged)
    assert timelines, "no invocation trace ids survived into the dumps"
    complete = [t for t in timelines
                if t.total is not None and len(t.nodes) >= 2]
    assert complete, "no complete cross-node invocation could be stitched"
    sample = complete[len(complete) // 2]
    stages = {e.stage for e in sample.events}
    assert {"client_send", "ring_deliver", "execute",
            "client_done"} <= stages
    # The invocation demonstrably crossed the wire: client stages at the
    # driver node, execution at a replica node.
    client_nodes = {e.node for e in sample.events
                    if e.stage == "client_send"}
    exec_nodes = {e.node for e in sample.events if e.stage == "execute"}
    assert client_nodes == {"n1"} and exec_nodes <= {"n2", "n3"}
    assert exec_nodes, "no execute stage attributed to a replica"
