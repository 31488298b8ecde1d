"""Leader-lease read fast path: simulator correctness tests.

The fast path (:mod:`repro.core.readfast`) lets the ring leaseholder
answer ``read_only`` operations point-to-point while writes stay on the
Totem total order.  These tests pin the safety story:

* under a read-heavy mix the fast path actually serves reads, and the
  strict auditor (which shadows the lease-window rule) stays clean;
* ``read_lease=False`` keeps every message on the total order;
* killing the leaseholder mid-stream falls the pending reads back to the
  total order and the stream continues, audit-clean, with the next ring
  member taking over the lease;
* the leaseholder refuses (nacks) a read whose connection handshake has
  not been ordered, or whose ring is stale — every nack reason routes the
  client back to the total order.
"""

import pytest

from repro.apps.kvstore import make_kvstore_factory
from repro.apps.packet_driver import ReadMixDriver
from repro.core.config import EternalConfig
from repro.simnet.system import EternalSystem
from repro.ftcorba.properties import FTProperties, ReplicationStyle
from repro.totem.wire import ReadFastNack, ReadFastReply, ReadFastRequest

KVSTORE_TYPE = "IDL:repro/KvStore:1.0"
DRIVER_TYPE = "IDL:repro/ClosedLoopDriver:1.0"


def build(read_lease, *, seed=3):
    system = EternalSystem(
        ["m", "c1", "s1", "s2"], seed=seed,
        eternal_config=EternalConfig(read_lease=read_lease),
    )
    system.register_factory(KVSTORE_TYPE, make_kvstore_factory(500),
                            nodes=["s1", "s2"])
    store = system.create_group(
        "store", KVSTORE_TYPE,
        FTProperties(replication_style=ReplicationStyle.ACTIVE,
                     initial_replicas=2, min_replicas=1),
        nodes=["s1", "s2"])
    system.run_for(0.05)
    iogr = store.iogr().stringify()
    system.register_factory(DRIVER_TYPE,
                            lambda: ReadMixDriver(iogr), nodes=["c1"])
    driver = system.create_group(
        "driver", DRIVER_TYPE,
        FTProperties(replication_style=ReplicationStyle.ACTIVE,
                     initial_replicas=1, min_replicas=1),
        nodes=["c1"])
    return system, store, driver


def frames(system, kind, **fields):
    """``(src, dst)`` of every later ``kind`` frame on the wire whose
    attributes match ``fields``."""
    seen = []

    def note(src, dst, payload, size):
        if isinstance(payload, kind) and all(
                getattr(payload, k) == v for k, v in fields.items()):
            seen.append((src, dst))
        return False                    # observe only, never drop
    system.network.add_filter(note)
    return seen


def test_read_mix_serves_reads_point_to_point(strict_audit):
    system, _store, driver, = build(True)
    replies = frames(system, ReadFastReply)
    system.run_for(1.0)
    servant = driver.servant_on("c1")
    t = system.tracer
    assert servant.reads_acked > 100
    assert servant.writes_acked > 0
    # The interceptor diverted reads and the leaseholder answered them.
    assert t.count("interceptor.request_fast") > 100
    assert t.count("lease.read_served") > 100
    assert len(replies) > 100
    # strict_audit's teardown raises on any lease-window finding.


def test_no_read_lease_keeps_total_order(strict_audit):
    system, _store, driver = build(False)
    requests = frames(system, ReadFastRequest)
    system.run_for(1.0)
    servant = driver.servant_on("c1")
    assert servant.reads_acked > 100
    assert requests == []
    for key in ("interceptor.request_fast", "lease.read_served",
                "lease.fallback"):
        assert system.tracer.count(key) == 0


def test_leaseholder_kill_falls_back_and_stream_continues(strict_audit):
    system, _store, driver = build(True)
    system.run_for(0.5)
    servant = driver.servant_on("c1")
    before = servant.acked
    assert system.tracer.count("lease.read_served") > 0
    # Step until a fast read is actually in flight, so the kill strands
    # it and the fallback machinery must fire (ring-change sweep or the
    # read_lease_timeout timer — both route it back to the total order).
    client_fast = system.mechanisms("c1").readfast
    for _ in range(5000):
        if client_fast._pending_fetch:
            break
        system.run_for(0.0005)
    assert client_fast._pending_fetch, "no fast read ever in flight"
    # The leaseholder is the lowest executing ring member: s1.
    system.kill_node("s1")
    system.run_for(1.0)
    t = system.tracer
    assert servant.acked > before + 100, \
        "read stream stalled after the leaseholder was killed"
    # In-flight fast reads fell back to the total order (timer, nack, or
    # ring-change sweep — any of the three shows the fallback worked).
    assert t.count("lease.fallback") > 0
    # After the new ring installs, s2 holds the lease and serves again.
    served_after_kill = t.count("lease.read_served")
    system.run_for(0.5)
    assert t.count("lease.read_served") > served_after_kill


def test_serve_refusal_reasons():
    system, _store, driver = build(True)
    system.run_for(0.5)
    coordinator = system.mechanisms("s1").readfast
    totem = system.mechanisms("s1").totem
    # A genuine in-ring request template, taken from live traffic shape.
    live_conn = next(iter(
        system.mechanisms("s1").bindings["store"].orb_state.handshakes))

    def request(**overrides):
        fields = dict(group_id="store", conn=live_conn.as_str(),
                      request_id=999, requester="c1",
                      ring_id=totem.ring_id, iiop_bytes=b"")
        fields.update(overrides)
        return ReadFastRequest(**fields)

    assert coordinator._serve_refusal(request()) is None
    assert (coordinator._serve_refusal(request(ring_id=totem.ring_id - 1))
            == "ring_changed")
    assert (coordinator._serve_refusal(request(conn="ghost->store"))
            == "no_handshake")
    assert (coordinator._serve_refusal(request(group_id="nope"))
            == "not_operational")


def test_unordered_handshake_is_nacked_back_to_total_order(strict_audit):
    system, _store, driver = build(True)
    system.run_for(0.5)
    refused = frames(system, ReadFastNack, request_id=424242)
    # Deliver a fast-read request for a connection whose handshake was
    # never ordered: the leaseholder must nack it, not serve it.
    endpoint = system.mechanisms("s1").endpoint
    endpoint.deliver("c1", ReadFastRequest(
        group_id="store", conn="ghost->store", request_id=424242,
        requester="c1", ring_id=system.mechanisms("s1").totem.ring_id,
        iiop_bytes=b""))
    system.run_for(0.05)
    assert [src for src, _ in refused] == ["s1"]
    assert [dst for _, dst in refused] == ["c1"]
