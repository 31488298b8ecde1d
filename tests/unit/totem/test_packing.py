"""Edge cases for token-rotation frame packing.

Packing coalesces queued sub-MTU fragments into one multi-payload DATA
frame per token visit; these tests pin the boundary behaviours — empty
payloads, frames filled to exactly the MTU, ring changes racing in-flight
packed frames — and the reassembly-buffer eviction that rides along.
"""

from repro.runtime.trace import Tracer
from repro.totem.config import TotemConfig
from repro.totem.fragmentation import Reassembler
from repro.totem.messages import DATA_HEADER, PACKED_SUBHEADER

from .test_member import Ring


def _traced_ring(**kwargs):
    ring = Ring(**kwargs)
    tracer = Tracer()
    tracer.bind_clock(lambda: ring.scheduler.now)
    for member in ring.members.values():
        member.tracer = tracer
    return ring, tracer


def _packed_events(tracer):
    return [r for r in tracer.records
            if r.category == "totem" and r.event == "packed_frame"]


def test_burst_of_small_messages_packs_into_few_frames():
    ring, tracer = _traced_ring()
    ring.run(0.1)
    for i in range(12):
        ring.members["A"].multicast(b"m%d" % i)
    ring.run(0.3)
    packed = _packed_events(tracer)
    assert packed, "a burst of tiny messages should coalesce"
    # all 12 messages delivered everywhere, in one total order
    sequences = [ring.delivered[n] for n in "ABC"]
    assert sequences[0] == sequences[1] == sequences[2]
    assert [p for _, p in sequences[0]] == [b"m%d" % i for i in range(12)]


def test_empty_payload_travels_through_packing():
    ring, _ = _traced_ring()
    ring.run(0.1)
    ring.members["A"].multicast(b"")
    ring.members["A"].multicast(b"x")
    ring.members["A"].multicast(b"")
    ring.run(0.2)
    for node_id in "ABC":
        assert [p for _, p in ring.delivered[node_id]] == [b"", b"x", b""]


def test_payload_exactly_filling_packed_frame():
    ring, tracer = _traced_ring()
    ring.run(0.1)
    mtu = ring.members["A"].endpoint.mtu_payload
    # Two chunks sized so the packed frame hits the MTU exactly:
    # header + 2 sub-headers + a + b == mtu.
    budget = mtu - DATA_HEADER - 2 * PACKED_SUBHEADER
    a, b = 1000, budget - 1000
    ring.members["A"].multicast(b"\x01" * a)
    ring.members["A"].multicast(b"\x02" * b)
    ring.run(0.2)
    exact = [r for r in _packed_events(tracer) if r.fields["size"] == mtu]
    assert exact and exact[0].fields["payloads"] == 2
    for node_id in "ABC":
        assert [p for _, p in ring.delivered[node_id]] == \
            [b"\x01" * a, b"\x02" * b]


def test_full_mtu_fragment_stays_classic():
    # A fragment already at max_chunk cannot absorb the packed sub-header;
    # it must go out as a classic DataMsg, not an over-MTU packed frame.
    ring, tracer = _traced_ring()
    ring.run(0.1)
    mtu = ring.members["A"].endpoint.mtu_payload
    payload = b"\x03" * (3 * (mtu - DATA_HEADER))    # 3 full fragments
    ring.members["A"].multicast(payload)
    ring.run(0.2)
    assert _packed_events(tracer) == []
    for node_id in "ABC":
        assert ring.delivered[node_id] == [("A", payload)]


def test_packed_frames_spanning_ring_change():
    # A burst is queued, then a member crashes while the packed frames are
    # still circulating: survivors must agree on one gap-free total order.
    ring, _ = _traced_ring(seed=5)
    ring.run(0.1)
    for i in range(20):
        ring.members["A"].multicast(b"s%d" % i)
    ring.faults.crash("C")
    ring.run(0.6)
    assert ring.all_operational(["A", "B"])
    assert ring.delivered["A"] == ring.delivered["B"]
    payloads = [p for _, p in ring.delivered["A"]]
    assert payloads == [b"s%d" % i for i in range(20)]


def test_packing_disabled_restores_classic_frames():
    ring, tracer = _traced_ring(config=TotemConfig(frame_packing=False))
    ring.run(0.1)
    for i in range(8):
        ring.members["A"].multicast(b"c%d" % i)
    ring.run(0.2)
    assert _packed_events(tracer) == []
    for node_id in "ABC":
        assert [p for _, p in ring.delivered[node_id]] == \
            [b"c%d" % i for i in range(8)]


def test_departed_sender_partials_evicted_at_install():
    # A partial message from a sender that then leaves the ring can never
    # complete; installation of the new ring must drop it so the
    # reassembly gauge (eternal_totem_partial_count) returns to zero.
    ring, _ = _traced_ring()
    ring.run(0.1)
    member = ring.members["B"]
    reassembler = member._reassembler
    reassembler.add(("C", 99), 0, 3, b"orphaned")
    assert member.reassembly_pending == 1
    evictions = []
    evict = reassembler.evict_absent_origins
    reassembler.evict_absent_origins = \
        lambda members: evictions.append(evict(members)) or evictions[-1]
    ring.faults.crash("C")
    ring.run(0.5)
    assert ring.all_operational(["A", "B"])
    assert member.reassembly_pending == 0
    assert evictions and evictions[-1] == 1


def test_reassembler_evicts_only_absent_origins():
    reasm = Reassembler()
    assert reasm.add(("gone", 1), 0, 3, b"g0") is None
    assert reasm.add(("kept", 1), 0, 2, b"k0") is None
    assert reasm.pending == 2
    assert reasm.evict_absent_origins(["kept", "other"]) == 1
    assert reasm.pending == 1
    # the surviving partial still completes
    assert reasm.add(("kept", 1), 1, 2, b"k1") == b"k0k1"
    # idempotent when nothing is stale
    assert reasm.evict_absent_origins(["kept"]) == 0
