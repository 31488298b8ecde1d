"""Unit tests for the live runtime's frame codec and scheduler."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import NetworkError
from repro.live.clock import LiveScheduler
from repro.live.transport import (
    LIVE_MTU_PAYLOAD,
    decode_frame,
    encode_frame,
)
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)
from repro.totem.wire import (BulkFetch, BulkNack, BulkPage, ReadFastNack,
                              ReadFastRequest)

FRAMES = [
    DataMsg(ring_id=3, seq=17, sender="n2", msg_id=("n2", 4),
            frag_index=0, frag_count=1, chunk=b"\x00" * 100),
    DataMsg(ring_id=1, seq=2, sender="n1", msg_id=("n1", 1),
            frag_index=2, frag_count=5, chunk=b"", retransmit=True),
    PackedDataMsg(ring_id=7, seq=90, sender="n3", payloads=(
        PackedPayload(("n3", 11), 0, 1, b"alpha"),
        PackedPayload(("n3", 12), 1, 3, b"beta" * 50),
    )),
    Token(ring_id=4, seq=1000, aru=990, aru_id="n2", rtr=[991, 995],
          rotations=62, ring_key=0xDEADBEEF, commit_phase=0),
    Token(ring_id=5, seq=0, aru=0, commit_phase=2, ring_key=1),
    JoinMsg(sender="n4", ring_id_seen=2, delivered_aru=40,
            held=frozenset({41, 42, 45}), fresh=False,
            view_members=("n1", "n4"), base_seen=30),
    JoinMsg(sender="n5", ring_id_seen=0, delivered_aru=0,
            held=frozenset(), fresh=True),
    FormMsg(ring_id=9, leader="n1", members=("n1", "n2", "n3"),
            flush_seq=55, base_seq=55, holders={54: "n2", 55: "n3"},
            fresh_members=("n3",)),
    ProbeMsg(ring_id=6, sender="n1", members=("n1", "n2")),
    # recovery bulk-lane frames ride the same codec as the Totem ring
    BulkFetch(session_id="rec:store:s1:e0:1", requester="s1",
              first_page=0, last_page=127),
    BulkPage(session_id="rec:store:s1:e0:1", sender="s2", index=5,
             crc=0xDEADBEEF, page=b"\xAB" * 1024),
    BulkNack(session_id="rec:store:s1:e0:1", sender="s2",
             reason="pending"),
]


@pytest.mark.parametrize("msg", FRAMES, ids=lambda m: type(m).__name__)
def test_frame_round_trip_every_totem_type(msg):
    src, decoded = decode_frame(encode_frame("n1", msg))
    assert src == "n1"
    assert decoded == msg
    assert type(decoded) is type(msg)


def test_non_totem_payload_rejected_at_encode():
    # The binary codec only speaks Totem frames — arbitrary objects (which
    # the original pickle codec would happily carry) are refused.
    with pytest.raises(NetworkError):
        encode_frame("n1", {"op": "echo", "args": (1, "two", b"three")})


@pytest.mark.parametrize("msg", [
    Token(2 ** 64, 1, 1, "n1", [], 0, 0, 0),
    Token(1, 1, 1, "n1", [], 0, 0, commit_phase=256),
    Token(1, 1, 1, "n1", [-1]),
    DataMsg(ring_id=1, seq=-1, sender="n1", msg_id=("n1", 1),
            frag_index=0, frag_count=1, chunk=b""),
    PackedDataMsg(ring_id=2 ** 64, seq=1, sender="n1", payloads=()),
    HoldCancel(2 ** 64, "n1"),
    JoinMsg(sender="n1", ring_id_seen=0, delivered_aru=0,
            held=frozenset({2 ** 64}), fresh=False),
    BulkFetch(session_id="s", requester="n1", first_page=0,
              last_page=2 ** 32),
    ReadFastRequest(group_id="g", conn="c", request_id=-1, requester="n1",
                    ring_id=1, iiop_bytes=b""),
    ReadFastNack(group_id="g", conn="c", request_id=2 ** 64),
], ids=lambda m: type(m).__name__)
def test_out_of_range_field_raises_network_error_for_every_frame(msg):
    # The encode contract is one exception type whatever the frame: a
    # field outside its wire range never escapes as a raw struct.error.
    with pytest.raises(NetworkError):
        encode_frame("n1", msg)


def test_encoded_data_frame_is_compact():
    chunk = b"\xAB" * 1400
    msg = DataMsg(ring_id=1, seq=10, sender="n1", msg_id=("n1", 1),
                  frag_index=0, frag_count=1, chunk=chunk)
    encoded = encode_frame("n1", msg)
    # Codec overhead must stay a small constant over the declared frame
    # size — the loopback MTU headroom the module docstring promises.
    assert len(encoded) <= msg.size_bytes + 64


@pytest.mark.parametrize("data", [
    b"",                                  # empty
    b"xy",                                # shorter than the header
    b"BAD\x00\x00\x01a" + b"junk",        # wrong magic
    encode_frame("node", Token(1, 0, 0))[:8],   # truncated source id
    b"ET1\x00\x00\x02n1\x01\x02\x03",     # old pickle-codec magic
    b"ET2\x00\x00\x02n1\x63\x01",         # unknown wire version (0x63)
    b"ET2\x00\x00\x02n1\x01\x63",         # unknown frame tag (0x63)
    encode_frame("node", Token(1, 5, 5))[:-3],  # truncated body
])
def test_malformed_frames_raise_network_error(data):
    with pytest.raises(NetworkError):
        decode_frame(data)


def test_mtu_matches_simulated_ethernet():
    assert LIVE_MTU_PAYLOAD == 1500


# ---------------------------------------------------------------------------
# Syscall accounting (live.sys.* counters; see repro.obs.profiling)
# ---------------------------------------------------------------------------

def _make_pair(force_portable=False):
    from repro.live.clock import LiveScheduler
    from repro.live.transport import UdpTransport, bind_udp_socket
    from repro.runtime.host import BaseHost
    from repro.runtime.trace import Tracer

    loop = asyncio.new_event_loop()
    scheduler = LiveScheduler(loop)
    tracer = Tracer()
    socks = {"a": bind_udp_socket(), "b": bind_udp_socket()}
    peers = {n: s.getsockname() for n, s in socks.items()}
    transports = {
        n: UdpTransport(BaseHost(scheduler, n), socks[n], peers,
                        tracer=tracer)
        for n in socks
    }
    if force_portable:
        for transport in transports.values():
            transport._mmsg = None
    return loop, socks, transports, tracer


@pytest.fixture()
def udp_pair():
    """Two UdpTransports on loopback sharing a tracer, driven directly
    (no event loop: `_on_readable`/`_send` are called by hand), pinned
    to the portable (recvfrom/sendto) path so the syscall counters the
    tests assert on are deterministic."""
    loop, socks, transports, tracer = _make_pair(force_portable=True)
    yield transports, tracer
    for sock in socks.values():
        sock.close()
    loop.close()


@pytest.fixture()
def udp_pair_batched():
    """Same as ``udp_pair`` but on whatever path the platform provides
    (sendmmsg/recvmmsg when available)."""
    loop, socks, transports, tracer = _make_pair()
    yield transports, tracer
    for sock in socks.values():
        sock.close()
    loop.close()


def _drain(transport, tracer, *, expect: int):
    # Loopback delivery is asynchronous to the sender: poll until the
    # expected number of datagrams has been drained.
    import time as wallclock
    deadline = wallclock.monotonic() + 2.0
    while (tracer.count("live.sys.recv_datagrams") < expect
           and wallclock.monotonic() < deadline):
        transport._on_readable()
        wallclock.sleep(0.005)


def test_recv_syscall_counters_account_for_the_drain_loop(udp_pair):
    transports, tracer = udp_pair
    transports["b"].unicast("a", Token(ring_id=1, seq=5, aru=5), 50)
    # A token send outside a receive drain goes straight through (the
    # rotation's critical path never queues).
    assert tracer.count("live.sys.send_flushes") == 1
    assert tracer.count("live.sys.sendto") == 1
    _drain(transports["a"], tracer, expect=1)
    assert tracer.count("live.sys.recv_datagrams") == 1
    # Every wakeup ends in EAGAIN, so recvfrom = datagrams + eagain and
    # wakeups = eagain (each batch terminates exactly once).
    assert tracer.count("live.sys.recvfrom") == (
        tracer.count("live.sys.recv_datagrams")
        + tracer.count("live.sys.recv_eagain"))
    assert tracer.count("live.sys.recv_batches") == \
        tracer.count("live.sys.recv_eagain")
    assert tracer.count("live.codec.bytes_in") > 0


def test_recv_batch_record_is_sampled_one_in_32(udp_pair):
    transports, tracer = udp_pair
    receiver = transports["a"]
    for _ in range(64):
        receiver._on_readable()     # empty wakeups still tick the sampler
    assert tracer.count("live.sys.recv_batches") == 64
    # The histogram record fires on every 32nd wakeup only; the exact
    # counters above carry the full accounting.
    assert tracer.count("live.recv_batch") == 2


def test_mmsg_path_batches_syscalls():
    from repro.live import _mmsg
    if not _mmsg.available():
        pytest.skip("sendmmsg/recvmmsg unavailable")
    loop, socks, transports, tracer = _make_pair()
    try:
        assert transports["a"].batching
        sender = transports["b"]
        # Simulate a deep burst issued inside a receive drain: the
        # frames queue and flush once, in a single sendmmsg syscall
        # (a flush shallower than _MMSG_SEND_MIN uses a sendto loop).
        sender._in_drain = True
        for seq in range(20):
            sender.unicast("a", Token(ring_id=1, seq=seq, aru=seq), 50)
        assert tracer.count("live.sys.send_flushes") == 0   # queued
        sender._in_drain = False
        sender._flush_sends()
        assert tracer.count("live.sys.send_flushes") == 1
        assert tracer.count("live.sys.sendmmsg") == 1
        assert tracer.count("live.sys.sendto") == 0
        _drain(transports["a"], tracer, expect=20)
        assert tracer.count("live.sys.recv_datagrams") == 20
        # Hybrid drain: the first few datagrams of a wakeup use the
        # C-speed recvfrom_into, then recvmmsg moves the deep remainder.
        assert tracer.count("live.sys.recvmmsg") >= 1
        assert tracer.count("live.sys.recvfrom") >= 2
    finally:
        for sock in socks.values():
            sock.close()
        loop.close()


def test_sends_during_a_drain_coalesce_into_one_flush():
    """End-to-end: replies a delivery handler issues while the wakeup's
    drain loop is running queue up and flush once at the end of the
    wakeup; sends outside any drain go straight out."""
    from repro.live import _mmsg
    loop, socks, transports, tracer = _make_pair()
    try:
        a, b = transports["a"], transports["b"]

        def reply_three(src, payload):
            for seq in range(3):
                a.unicast("b", Token(ring_id=2, seq=seq, aru=seq), 50)

        a.deliver = reply_three
        b.unicast("a", Token(ring_id=1, seq=0, aru=0), 50)
        # Outside a drain the frame goes straight out: one flush, now.
        assert tracer.count("live.sys.send_flushes") == 1
        _drain(a, tracer, expect=1)
        # The three replies issued mid-drain coalesced into one flush
        # (shallow, so it went out as a sendto loop, not sendmmsg).
        assert tracer.count("live.sys.send_flushes") == 2
        assert tracer.count("live.sys.sendmmsg") == 0
        assert tracer.count("live.sys.sendto") == 4     # 1 direct + 3 flush
    finally:
        for sock in socks.values():
            sock.close()
        loop.close()


def test_out_of_drain_data_sends_coalesce_per_loop_pass():
    """Ordinary frames sent outside any drain (timer-callback bursts,
    e.g. the container's reply completions) queue behind a flush
    scheduled for the next event-loop pass — one flush per iteration —
    while token sends skip the queue entirely."""
    loop, socks, transports, tracer = _make_pair(force_portable=True)
    try:
        sender = transports["b"]
        sender._loop = loop     # open() would do this; no reader needed
        for seq in range(3):
            sender.unicast("a", DataMsg(
                ring_id=1, seq=seq, sender="b", msg_id=("b", seq),
                frag_index=0, frag_count=1, chunk=b"x"), 200)
        # Nothing on the wire yet: the flush awaits the next loop pass.
        assert tracer.count("live.sys.sendto") == 0
        assert tracer.count("live.sys.send_flushes") == 0
        loop.run_until_complete(asyncio.sleep(0))
        assert tracer.count("live.sys.send_flushes") == 1
        assert tracer.count("live.sys.sendto") == 3
        # A token forward bypasses the queue: sent immediately.
        sender.unicast("a", Token(ring_id=1, seq=9, aru=9), 50)
        assert tracer.count("live.sys.sendto") == 4
        assert tracer.count("live.sys.send_flushes") == 2
    finally:
        for sock in socks.values():
            sock.close()
        loop.close()


def _data(seq):
    return DataMsg(ring_id=1, seq=seq, sender="b", msg_id=("b", seq),
                   frag_index=0, frag_count=1, chunk=b"x")


def test_token_never_overtakes_frames_sent_before_it():
    """Send order is one guarantee across both regimes: frames handed to
    ``broadcast`` and then a token ``unicast`` reach a peer in that
    order, whether sent from a timer callback (the token flushes what is
    pending instead of jumping it) or from inside a receive drain."""
    loop, socks, transports, tracer = _make_pair(force_portable=True)
    try:
        a, b = transports["a"], transports["b"]
        b._loop = loop          # open() would do this; no reader needed
        got = []
        a.deliver = lambda src, payload: got.append(payload)

        def frames_then_token():
            b.broadcast(_data(8), 200)
            b.broadcast(_data(9), 200)
            b.unicast("a", Token(ring_id=1, seq=9, aru=7), 50)

        frames_then_token()                         # outside any drain
        assert tracer.count("live.sys.send_flushes") == 1
        assert tracer.count("live.sys.sendto") == 5     # 2 x 2 peers + token
        _drain(a, tracer, expect=3)
        assert got == [_data(8), _data(9), Token(ring_id=1, seq=9, aru=7)]
        # The flush the first broadcast scheduled finds nothing left.
        loop.run_until_complete(asyncio.sleep(0))
        assert tracer.count("live.sys.send_flushes") == 1

        del got[:]
        # Inside b's drain, which also finds b's own copies of the two
        # broadcasts above; only a's datagram is answered.
        b.deliver = lambda src, _p: src == "a" and frames_then_token()
        a.unicast("b", Token(ring_id=1, seq=7, aru=7), 50)
        _drain(b, tracer, expect=3 + 3)
        _drain(a, tracer, expect=3 + 3 + 3)
        assert got == [_data(8), _data(9), Token(ring_id=1, seq=9, aru=7)]
    finally:
        for sock in socks.values():
            sock.close()
        loop.close()


def test_empty_wakeup_counts_one_probe_and_no_datagrams(udp_pair):
    transports, tracer = udp_pair
    transports["a"]._on_readable()
    assert tracer.count("live.sys.recv_batches") == 1
    assert tracer.count("live.sys.recvfrom") == 1
    assert tracer.count("live.sys.recv_eagain") == 1
    assert tracer.count("live.sys.recv_datagrams") == 0


def test_bad_frame_still_counts_as_received_datagram(udp_pair):
    transports, tracer = udp_pair
    sock_b = transports["b"]._sock
    sock_b.sendto(b"not a frame", transports["a"].local_addr)
    _drain(transports["a"], tracer, expect=1)
    assert tracer.count("live.sys.recv_datagrams") == 1
    assert tracer.count("live.bad_frame") == 1
    assert tracer.count("live.codec.bytes_in") == 0


def test_malformed_datagrams_do_not_tear_down_the_transport(udp_pair):
    """A fuzzing peer (or bit-rot on the wire) must cost exactly one
    dropped frame per bad datagram: the reader stays registered and the
    next well-formed frame still delivers."""
    import os as os_mod

    transports, tracer = udp_pair
    a = transports["a"]
    delivered = []
    a.deliver = lambda src, payload: delivered.append((src, payload))
    raw = transports["b"]._sock
    good = encode_frame("b", Token(ring_id=1, seq=9, aru=9))
    hostile = [
        b"",                                    # zero-length datagram
        b"xy",                                  # shorter than the header
        b"ET1\x00\x00\x02n1\x01\x02\x03",       # old pickle-codec magic
        b"XT2\x00" + good[4:],                  # bit-flipped magic
        good[:-3],                              # truncated body
        b"ET2\x00\x00\x02n1\x63\x01",           # unknown wire version
        b"ET2\x00\x00\x02n1\x01\x63",           # unknown frame tag
        os_mod.urandom(48),                     # junk
    ]
    for frame in hostile:
        raw.sendto(frame, a.local_addr)
    raw.sendto(good, a.local_addr)
    _drain(a, tracer, expect=len(hostile) + 1)
    assert tracer.count("live.sys.recv_datagrams") == len(hostile) + 1
    assert tracer.count("live.bad_frame") == len(hostile)
    assert delivered == [("b", Token(ring_id=1, seq=9, aru=9))]


def test_repro_no_mmsg_forces_portable_path(monkeypatch):
    from repro.live import _mmsg

    monkeypatch.setenv("REPRO_NO_MMSG", "1")
    assert not _mmsg.available()
    assert _mmsg.new_batch() is None
    loop, socks, transports, tracer = _make_pair()
    try:
        assert not transports["a"].batching
        transports["b"].unicast("a", Token(ring_id=1, seq=5, aru=5), 50)
        _drain(transports["a"], tracer, expect=1)
        assert tracer.count("live.sys.recv_datagrams") == 1
        assert tracer.count("live.sys.recvmmsg") == 0
        assert tracer.count("live.sys.sendmmsg") == 0
        assert tracer.count("live.sys.sendto") == 1
    finally:
        for sock in socks.values():
            sock.close()
        loop.close()


def test_send_eagain_counted_apart_from_generic_drops(udp_pair):
    import errno as errno_mod

    transports, tracer = udp_pair
    transport = transports["a"]

    class FullSocket:
        def sendto(self, data, addr):
            raise BlockingIOError

    class DeadPeerSocket:
        def sendto(self, data, addr):
            raise OSError(errno_mod.ECONNREFUSED, "connection refused")

    class BrokenSocket:
        def sendto(self, data, addr):
            raise OSError(errno_mod.EPERM, "operation not permitted")

    transport._sock = FullSocket()
    transport.unicast("b", Token(ring_id=1, seq=1, aru=1), 50)
    assert tracer.count("live.sys.sendto") == 1
    assert tracer.count("live.sys.send_eagain") == 1
    assert tracer.count("live.send_drop") == 1

    # Dead-peer errnos (kill-test noise) are classified apart from
    # generic send drops.  A broadcast is one sendto per peer port (the
    # sender's own included), queued until the flush.
    transport._sock = DeadPeerSocket()
    transport.broadcast(ProbeMsg(ring_id=1, sender="a", members=("a",)), 50)
    assert tracer.count("live.sys.sendto") == 1         # nothing sent yet
    transport._flush_sends()
    assert tracer.count("live.sys.sendto") == 1 + 2
    assert tracer.count("live.sys.send_dead_peer") == 2
    assert tracer.count("live.send_dead_peer") == 2
    assert tracer.count("live.sys.send_eagain") == 1   # unchanged
    assert tracer.count("live.send_drop") == 1          # unchanged

    transport._sock = BrokenSocket()
    transport.broadcast(ProbeMsg(ring_id=1, sender="a", members=("a",)), 50)
    transport._flush_sends()
    assert tracer.count("live.send_drop") == 1 + 2
    assert tracer.count("live.sys.send_dead_peer") == 2  # unchanged


def test_mmsg_send_result_classified_into_counters(udp_pair_batched):
    """The batched-send outcome maps onto the same counter taxonomy the
    portable path uses: EAGAIN vs dead-peer vs generic drops."""
    from repro.live._mmsg import SendResult

    transports, tracer = udp_pair_batched
    transport = transports["a"]

    class FakeBatch:
        def send(self, fd, items):
            return SendResult(sent=len(items) - 4, eagain=2, dead_peer=1,
                              other=1, syscalls=3)

    transport._mmsg = FakeBatch()
    # Queue a deep mid-drain burst so the flush takes the batched path
    # (a flush shallower than _MMSG_SEND_MIN uses a sendto loop).
    transport._in_drain = True
    for seq in range(16):
        transport.unicast("b", Token(ring_id=1, seq=seq, aru=seq), 50)
    transport._in_drain = False
    transport._flush_sends()
    assert tracer.count("live.sys.sendmmsg") == 3
    assert tracer.count("live.sys.send_eagain") == 2
    assert tracer.count("live.sys.send_dead_peer") == 1
    assert tracer.count("live.send_dead_peer") == 1
    assert tracer.count("live.send_drop") == 2 + 1


def test_live_scheduler_clamps_past_deadlines():
    loop = asyncio.new_event_loop()
    try:
        scheduler = LiveScheduler(loop)
        fired = []
        # Both a negative delay and an already-passed absolute time must
        # run "as soon as possible" rather than raising — wall time moves
        # while code runs, unlike the simulator's clock.
        scheduler.call_after(-5.0, fired.append, "after")
        scheduler.call_at(scheduler.now - 1.0, fired.append, "at")
        loop.run_until_complete(asyncio.sleep(0.02))
        assert sorted(fired) == ["after", "at"]
    finally:
        loop.close()


def test_live_scheduler_cancel():
    loop = asyncio.new_event_loop()
    try:
        scheduler = LiveScheduler(loop)
        fired = []
        handle = scheduler.call_after(0.005, fired.append, "no")
        handle.cancel()
        loop.run_until_complete(asyncio.sleep(0.02))
        assert fired == []
    finally:
        loop.close()
