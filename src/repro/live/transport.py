"""UDP transport for the live runtime.

Each node owns one non-blocking UDP socket on loopback.  Unicast goes
straight to the destination node's port; broadcast is sender fan-out —
the encoded frame goes to *every* peer port, the sender's own included
(Totem relies on self-delivery of its own multicasts) — the way
production Totem runs where IP multicast is unavailable (Corosync's
``udpu``).  Every frame, data or token, therefore travels one datagram
hop from one socket to one socket, and the kernel keeps datagrams
between two loopback sockets in order: the transport is FIFO between
any two nodes.

Frames carry a small header (magic, source node id) followed by the
Totem frame in the versioned binary codec of :mod:`repro.totem.wire`,
which lays frames out in the CDR encoding the IIOP stack uses.  Unlike
the pickle encoding this transport started with, decoding a hostile
datagram can only ever produce Totem message objects, and a frame from
an incompatible build is rejected by its version octet instead of being
mis-parsed.

Raw-speed structure of the hot path:

* **Batched receive** — each readable wakeup drains the socket to
  EAGAIN: a short C-speed ``recvfrom_into`` prefix for the shallow
  common case, then ``recvmmsg`` (via :mod:`repro.live._mmsg`) into
  preallocated buffers once the queue is provably deep, falling back to
  a pure ``recvfrom_into`` loop when batching is unavailable; either
  way one wakeup handles every queued datagram and the achieved
  batching is visible in telemetry (``live.sys.recv_batch_size``).
* **Coalesced send** — while a receive drain is running, frames from
  ``unicast``/``broadcast`` queue up and flush once at the end of the
  wakeup — the reply bursts a drained datagram triggers batch for
  free, through ``sendmmsg`` once the flush is deep enough to amortize
  its setup and a C ``sendto`` loop below that.  Outside a drain,
  ordinary frames coalesce per event-loop iteration (a flush scheduled
  with ``call_soon`` sweeps everything the iteration's timer callbacks
  produced), while the token forward — the rotation's critical path —
  flushes at once, with zero queueing latency, taking whatever is
  pending out ahead of itself.  Send order is preserved across both
  regimes: the one queue is always flushed front to back, so a token
  cannot reach a member before the frames it sequences — the
  overtaking that used to cost every frame a second rotation (the
  token jumped the queue, and data took a dispatcher hop the token did
  not).
* **Zero-copy decode** — the single per-datagram ``bytes`` copy made by
  the receive path is the buffer all decoded chunk views point into;
  :func:`decode_frame` hands the codec a ``memoryview`` so payload
  bodies are never copied again, and :func:`encode_frame` reuses one
  scratch buffer per transport for the CDR body.

The MTU contract is enforced on the *declared* ``size_bytes`` of each
payload, exactly like the simulator's network model: the ring member
fragments application messages to honest 1500-byte Ethernet frames even
though the loopback interface would happily carry 64 KB datagrams.  The
encoded representation is slightly larger than the declared size (CDR
alignment padding); loopback's real MTU (65 536) absorbs the overhead.
"""

from __future__ import annotations

import asyncio
import errno as _errno
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import MarshalError, NetworkError, ProtocolError, \
    UnmarshalError
from repro.live import _mmsg
from repro.runtime.interfaces import Host, Transport
from repro.runtime.trace import NULL_TRACER, Tracer
from repro.totem.messages import Token
from repro.totem.wire import decode_frame_payload, encode_frame_payload_into

Address = Tuple[str, int]

#: Largest declared payload per frame — the simulator's Ethernet model
#: (1518-byte frame minus the 18-byte header) so fragment counts, and
#: therefore recovery-vs-state-size behaviour, match the simulation.
LIVE_MTU_PAYLOAD = 1500

_MAGIC = b"ET2\x00"     # bumped with the pickle -> CDR codec switch
_HEADER = struct.Struct("!4sH")     # magic, src-id length

#: Loopback errnos that mean "the peer's port is closed" — expected noise
#: while kill tests are running, not a transport failure.
_DEAD_PEER_ERRNOS = _mmsg.DEAD_PEER_ERRNOS

#: Safety bound on drain iterations per wakeup (each iteration is one
#: syscall; a healthy drain exits via EAGAIN long before this).
_MAX_DRAIN_ROUNDS = 4096

#: Minimum queued frames before a flush pays the ctypes ``sendmmsg``
#: machinery; below this a C-speed ``sendto`` loop is faster (measured:
#: the Python-side per-item scatter/gather setup costs more than the
#: syscalls it saves until the batch is this deep).
_MMSG_SEND_MIN = 16

#: Datagrams drained through ``recvfrom_into`` before a wakeup switches
#: to ``recvmmsg`` — shallow queues (the latency-bound common case)
#: never pay the ctypes overhead; provably deep saturation drains still
#: batch the remainder.
_HYBRID_RECV_PREFIX = 8


def encode_frame(src: str, payload: Any,
                 scratch: Optional[bytearray] = None) -> bytes:
    """Encode one frame: magic, source node id, CDR-encoded Totem frame.

    ``scratch`` is an optional reusable buffer for the CDR body (cleared
    here); the returned frame is always a fresh immutable ``bytes``.
    """
    src_bytes = src.encode("utf-8")
    body = scratch if scratch is not None else bytearray()
    del body[:]
    try:
        encode_frame_payload_into(body, payload)
    except (MarshalError, ProtocolError) as exc:
        raise NetworkError(f"unencodable frame payload: {exc}") from exc
    return _HEADER.pack(_MAGIC, len(src_bytes)) + src_bytes + body


def decode_frame(data: bytes) -> Tuple[str, Any]:
    """Decode a frame back into ``(src, payload)``; raises
    :class:`NetworkError` on anything malformed.

    ``data`` must be an immutable buffer: chunk fields of the decoded
    payload are zero-copy ``memoryview`` slices into it.
    """
    if len(data) < _HEADER.size:
        raise NetworkError(f"short frame ({len(data)} bytes)")
    magic, src_len = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise NetworkError(f"bad frame magic {magic!r}")
    end = _HEADER.size + src_len
    if len(data) < end:
        raise NetworkError("truncated frame source id")
    view = memoryview(data)
    try:
        src = str(view[_HEADER.size:end], "utf-8")
    except UnicodeDecodeError as exc:
        raise NetworkError(f"bad frame source id: {exc}") from exc
    try:
        payload = decode_frame_payload(view[end:])
    except (UnmarshalError, ProtocolError, ValueError) as exc:
        raise NetworkError(f"undecodable frame payload: {exc}") from exc
    return src, payload


def bind_udp_socket(port: int = 0) -> socket.socket:
    """A non-blocking UDP socket bound to loopback.

    ``SO_REUSEADDR`` lets a restarted node re-bind the port its peers
    already know (their peer table is fixed at system construction)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", port))
    sock.setblocking(False)
    return sock


class UdpTransport(Transport):
    """One node's attachment to the ring's peers (see module docstring).

    A process restart builds a *new* transport on a *new* socket bound to
    the same port; this one is closed by the node wrapper, exactly as the
    simulator's network detaches a crashed process's endpoint.
    """

    def __init__(
        self,
        process: Host,
        sock: socket.socket,
        peers: Dict[str, Address],
        *,
        mtu_payload: int = LIVE_MTU_PAYLOAD,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(process)
        self._sock = sock
        self._peers = peers
        self._mtu_payload = mtu_payload
        self._tracer = tracer
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._mmsg = _mmsg.new_batch()
        self._recv_buf = bytearray(65536)       # portable-path fill buffer
        self._encode_scratch = bytearray()      # reusable CDR body buffer
        self._send_queue: List[Tuple[bytes, Address]] = []
        self._in_drain = False
        self._batch_sample = 0      # 1-in-32 recv_batch record sampler

    @property
    def mtu_payload(self) -> int:
        return self._mtu_payload

    @property
    def local_addr(self) -> Address:
        return self._sock.getsockname()

    @property
    def batching(self) -> bool:
        """True when the sendmmsg/recvmmsg path is active."""
        return self._mmsg is not None

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------

    def open(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start reading: frames arriving on the socket are dispatched on
        the event loop thread."""
        self._loop = loop
        loop.add_reader(self._sock.fileno(), self._on_readable)

    def close(self) -> None:
        """Stop reading and release the socket (SIGKILL-style: anything
        in flight to this port is dropped by the kernel)."""
        if self._loop is not None:
            self._loop.remove_reader(self._sock.fileno())
            self._loop = None
        self._closed = True
        self._send_queue.clear()
        self._sock.close()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def _on_readable(self) -> None:
        # Syscall accounting (``live.sys.*``, see repro.obs.profiling):
        # one wakeup drains the socket, so datagrams/batches is the
        # kernel batching the drain loop actually achieves.
        tracer = self._tracer
        tracer.add("live.sys.recv_batches", 1)
        self._in_drain = True
        try:
            if self._mmsg is not None:
                datagrams = self._drain_mmsg()
            else:
                datagrams = self._drain_portable()
        finally:
            self._in_drain = False
            self._flush_sends()
        tracer.add("live.sys.recv_datagrams", datagrams)
        # The batch-size *record* (feeding the live.sys.recv_batch_size
        # histogram and repro top) is sampled 1-in-32: a full record per
        # wakeup costs more than the drain it measures, and an unbiased
        # subsample keeps the distribution honest.  The counters above
        # stay exact.
        self._batch_sample += 1
        if not self._batch_sample & 31:
            tracer.emit("live", "recv_batch", node=self.node_id,
                        n=datagrams)

    def _drain_mmsg(self) -> int:
        # Hybrid drain: the first few datagrams go through the socket
        # module's C-speed ``recvfrom_into`` — at ~1 datagram/wakeup
        # (the latency-bound common case) that is strictly cheaper than
        # ctypes ``recvmmsg`` on a batch of one.  Only once the queue is
        # provably deep does the batched path take over for the rest.
        tracer = self._tracer
        buf = self._recv_buf
        datagrams = 0
        for _ in range(_HYBRID_RECV_PREFIX):
            tracer.add("live.sys.recvfrom", 1)
            try:
                nbytes, _addr = self._sock.recvfrom_into(buf)
            except (BlockingIOError, InterruptedError):
                tracer.add("live.sys.recv_eagain", 1)
                return datagrams
            except OSError:
                continue
            datagrams += 1
            self._handle_datagram(bytes(buf[:nbytes]))
        fd = self._sock.fileno()
        for _ in range(_MAX_DRAIN_ROUNDS):
            tracer.add("live.sys.recvmmsg", 1)
            try:
                msgs, truncated, drained = self._mmsg.recv(fd)
            except OSError:
                break
            if truncated:
                tracer.add("live.sys.recv_trunc", truncated)
            datagrams += len(msgs)
            for data in msgs:
                self._handle_datagram(data)
            if drained:
                if not msgs:
                    tracer.add("live.sys.recv_eagain", 1)
                break
        return datagrams

    def _drain_portable(self) -> int:
        tracer = self._tracer
        buf = self._recv_buf
        datagrams = 0
        for _ in range(_MAX_DRAIN_ROUNDS):
            tracer.add("live.sys.recvfrom", 1)
            try:
                nbytes, _addr = self._sock.recvfrom_into(buf)
            except (BlockingIOError, InterruptedError):
                tracer.add("live.sys.recv_eagain", 1)
                break
            except OSError:
                # e.g. ECONNREFUSED surfaced from a prior send to a dead
                # peer's port (Linux reports the ICMP error on the socket).
                continue
            datagrams += 1
            self._handle_datagram(bytes(buf[:nbytes]))
        return datagrams

    def _handle_datagram(self, data: bytes) -> None:
        if not self.process.alive:
            return
        try:
            src, payload = decode_frame(data)
        except NetworkError:
            self._tracer.emit("live", "bad_frame", node=self.node_id,
                              size=len(data))
            return
        self._tracer.add("live.codec.bytes_in", len(data))
        self.deliver(src, payload)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _check_size(self, size_bytes: int) -> None:
        if size_bytes > self._mtu_payload:
            raise NetworkError(
                f"payload of {size_bytes} bytes exceeds the MTU "
                f"({self._mtu_payload} bytes) — fragment it first"
            )

    def _send(self, data: bytes, addr: Address, *,
              urgent: bool = False) -> None:
        """Send one frame.  During a receive drain frames are queued
        and flushed once at the end of the wakeup, so the bursts a
        delivered datagram triggers (acks, retransmissions, the RPC
        fan-out) coalesce into ``sendmmsg`` batches.  Outside a drain,
        ordinary frames queue behind a flush scheduled for the next
        loop pass — every timer callback expiring this iteration (the
        container's reply completions under concurrent load) lands in
        one burst, which is also what lets the *receiving* socket
        drain them as one batch.  An ``urgent`` frame (the token
        forward, the rotation's critical path) does not wait for that
        pass — one extra loop pass per hop is real latency on every
        rotation — but it does not jump the queue either: it flushes
        what is pending and goes out last, so the token never reaches
        a member ahead of the frames it sequences."""
        if self._closed:
            return
        if self._in_drain:
            self._send_queue.append((data, addr))
            return
        if urgent:
            self._send_queue.append((data, addr))
            self._flush_sends()
            return
        if not self._send_queue and self._loop is not None:
            self._loop.call_soon(self._flush_sends)
        self._send_queue.append((data, addr))

    def _flush_sends(self) -> None:
        if self._closed or not self._send_queue:
            return
        queue = self._send_queue
        self._send_queue = []
        tracer = self._tracer
        tracer.add("live.sys.send_flushes", 1)
        if len(queue) < _MMSG_SEND_MIN:
            # Shallow flush (the latency-bound common case): the socket
            # module's C ``sendto`` loop beats the ctypes sendmmsg
            # machinery until the batch is deep enough to amortize the
            # per-item scatter/gather setup.
            for data, addr in queue:
                self._sendto(data, addr)
            return
        if self._mmsg is not None:
            result = self._mmsg.send(self._sock.fileno(), queue)
            tracer.add("live.sys.sendmmsg", result.syscalls)
            if result.eagain:
                tracer.add("live.sys.send_eagain", result.eagain)
                for _ in range(result.eagain):
                    tracer.emit("live", "send_drop", node=self.node_id)
            if result.dead_peer:
                tracer.add("live.sys.send_dead_peer", result.dead_peer)
                for _ in range(result.dead_peer):
                    tracer.emit("live", "send_dead_peer", node=self.node_id)
            if result.other:
                for _ in range(result.other):
                    tracer.emit("live", "send_drop", node=self.node_id)
            return
        for data, addr in queue:
            self._sendto(data, addr)

    def _sendto(self, data: bytes, addr: Address) -> None:
        self._tracer.add("live.sys.sendto", 1)
        try:
            self._sock.sendto(data, addr)
        except BlockingIOError:
            # Socket buffer full (EAGAIN) — counted apart from generic
            # drops: a nonzero rate here means the sender outruns the
            # kernel buffer, a different problem than a dead peer.
            self._tracer.add("live.sys.send_eagain", 1)
            self._tracer.emit("live", "send_drop", node=self.node_id)
        except OSError as exc:
            if exc.errno in _DEAD_PEER_ERRNOS:
                # Dead peer (port closed): expected noise during kill
                # tests — drop the frame (UDP semantics; Totem's
                # retransmission machinery owns reliability) but count
                # it apart from real send failures.
                self._tracer.add("live.sys.send_dead_peer", 1)
                self._tracer.emit("live", "send_dead_peer",
                                  node=self.node_id)
            else:
                self._tracer.emit("live", "send_drop", node=self.node_id)

    def unicast(
        self, dst: str, payload: Any, size_bytes: int, *, oob: bool = False,
    ) -> None:
        # ``oob`` is accepted for interface parity and ignored: real UDP
        # unicast is already point-to-point and off the Totem ring; there
        # is no separate physical lane to select on a single interface.
        self._check_size(size_bytes)
        try:
            addr = self._peers[dst]
        except KeyError:
            raise NetworkError(f"unknown destination node {dst!r}") from None
        data = encode_frame(self.node_id, payload, self._encode_scratch)
        self._tracer.add("live.codec.bytes_out", len(data))
        self._send(data, addr, urgent=isinstance(payload, Token))

    def broadcast(self, payload: Any, size_bytes: int) -> None:
        """Fan the frame out to every peer port, this node's own
        included (Totem relies on self-delivery of its multicasts)."""
        self._check_size(size_bytes)
        data = encode_frame(self.node_id, payload, self._encode_scratch)
        self._tracer.add("live.codec.bytes_out", len(data))
        for addr in self._peers.values():
            self._send(data, addr)


class SegmentDispatcher:
    """Placeholder for the software switch the live system used to
    broadcast through.  :meth:`UdpTransport.broadcast` fans out to the
    peer ports itself now, and nothing constructs this class; the name
    and its ``_on_readable`` stay only because the frozen end-to-end
    harness (``benchmarks/e2e/layers.py``) wraps that method by name.
    It goes when that target does."""

    def _on_readable(self) -> None:
        pass
