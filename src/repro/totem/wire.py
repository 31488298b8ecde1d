"""Binary wire codec for Totem protocol frames.

The live runtime's UDP transport needs a byte representation of every
frame the ring exchanges.  This module encodes the seven Totem message
types — plus the out-of-band bulk-lane frames (:class:`BulkFetch`,
:class:`BulkPage`, :class:`BulkNack`) the recovery state transfer sends
point-to-point outside the total order, and the read-lease fast-path
frames (:class:`ReadFastRequest`, :class:`ReadFastReply`,
:class:`ReadFastNack`) — in the big-endian CDR layout the IIOP layer
uses (primitives aligned to their size relative to the frame start,
strings as length + UTF-8 + NUL, octet sequences as length + bytes)
behind a one-octet format version, replacing the pickle encoding the
live transport started with: the codec is

* **safe** — decoding attacker-controlled bytes can only yield Totem
  message objects, never arbitrary Python objects;
* **versioned** — the leading octet rejects frames from an incompatible
  build instead of mis-parsing them;
* **compact** — a classic ``DataMsg`` costs its chunk plus ~40 bytes of
  header, close to the simulator's declared ``size_bytes`` and far below
  pickle's overhead.

Every frame type has exactly one encoder and one decoder, reached
through one table (class → encoder, tag → decoder).  Encoders are
straight-line code over prebuilt :class:`struct.Struct` instances,
appending to a caller-supplied (reusable) ``bytearray``; decoders handed
a ``memoryview`` return zero-copy sub-views for octet-sequence bodies,
so a packed frame's sub-payloads are never copied out of the datagram
buffer (they materialize lazily, only if a consumer converts them).

The layout is pinned to CDR by test, not by shared code: the property
suite (``tests/properties/test_live_codec_properties.py``) checks, for
all thirteen frame types, that this codec's bytes equal those of an
independent reference written on :mod:`repro.giop.cdr`'s streams
(``tests/properties/cdr_oracle.py``) and that the reference's bytes
decode back to the original frame.

Unknown tags raise :class:`~repro.errors.ProtocolError`, malformed
bodies :class:`~repro.errors.UnmarshalError` and out-of-range fields on
encode :class:`~repro.errors.MarshalError`; the transport maps all three
onto :class:`~repro.errors.NetworkError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)

#: Format version octet leading every encoded frame (bump on layout change).
#: v2: data frames and packed payloads carry a trailing trace-id string.
WIRE_VERSION = 2


# ---------------------------------------------------------------------------
# Out-of-band bulk-lane frames (recovery state transfer, repro.core.bulk)
# ---------------------------------------------------------------------------

#: Declared wire overhead of one :class:`BulkPage` beyond its page bytes.
BULK_PAGE_HEADER = 48
#: Declared size of the fixed-layout control frames (fetch / nack).
BULK_CTRL_SIZE = 64


@dataclass(frozen=True)
class BulkFetch:
    """Target → sponsor: send me pages ``first_page..last_page`` (one
    stripe, or a retransmit of its missing subset) of session
    ``session_id``'s stashed snapshot."""

    session_id: str
    requester: str
    first_page: int
    last_page: int              # inclusive

    @property
    def size_bytes(self) -> int:
        return BULK_CTRL_SIZE

    @property
    def page_count(self) -> int:
        return self.last_page - self.first_page + 1


@dataclass(frozen=True)
class BulkPage:
    """Sponsor → target: one page of the snapshot, tagged with its CRC32
    so the receiver can verify it against the in-order manifest."""

    session_id: str
    sender: str
    index: int
    crc: int
    page: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.page) + BULK_PAGE_HEADER


@dataclass(frozen=True)
class BulkNack:
    """Sponsor → target: the fetch cannot be served.  ``reason`` is
    ``"unknown"`` (no such stash — the sponsor restarted or expired it;
    drop the sponsor) or ``"pending"`` (capture still in flight — retry
    the stripe after the watchdog)."""

    session_id: str
    sender: str
    reason: str = "unknown"

    @property
    def size_bytes(self) -> int:
        return BULK_CTRL_SIZE


# ---------------------------------------------------------------------------
# Read-lease fast-path frames (repro.core.readfast)
# ---------------------------------------------------------------------------

#: Declared wire overhead of a fast-path request/reply beyond its IIOP body.
READFAST_HEADER = 48
#: Declared size of the fixed-layout nack frame.
READFAST_CTRL_SIZE = 64


@dataclass(frozen=True)
class ReadFastRequest:
    """Client → leaseholder: execute this read-only IIOP request locally
    (off the total order) and unicast the reply back.  ``ring_id`` is the
    sender's installed ring — a currency hint the server re-validates
    against its own installed ring before serving."""

    group_id: str               # target (server) object group
    conn: str                   # ConnectionKey.as_str()
    request_id: int             # wire (offset-rewritten) GIOP request id
    requester: str              # node to unicast the reply to
    ring_id: int
    iiop_bytes: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.iiop_bytes) + READFAST_HEADER


@dataclass(frozen=True)
class ReadFastReply:
    """Leaseholder → client: the locally produced reply for a fast read."""

    group_id: str
    conn: str
    request_id: int
    ring_id: int
    iiop_bytes: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.iiop_bytes) + READFAST_HEADER


@dataclass(frozen=True)
class ReadFastNack:
    """Leaseholder → client: cannot serve this read under the lease
    (ring changed, replica not operational, reply oversize, …); the
    client re-issues the request through the total order."""

    group_id: str
    conn: str
    request_id: int
    reason: str = "not_leaseholder"

    @property
    def size_bytes(self) -> int:
        return READFAST_CTRL_SIZE


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
#
# CDR alignment is relative to the start of the frame; the version and
# tag octets occupy positions 0 and 1, so every encoder starts writing at
# offset 2 and every decoder starts reading there.

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_QQ = struct.Struct(">QQ")      # DataMsg/PackedDataMsg: ring_id, seq
_QQQ = struct.Struct(">QQQ")    # Token: ring_id, seq, aru

_PAD = tuple(b"\x00" * n for n in range(8))


def _w_u32(buf: bytearray, value: int) -> None:
    r = len(buf) & 3
    if r:
        buf += _PAD[4 - r]
    buf += _U32.pack(value)


def _w_u64(buf: bytearray, value: int) -> None:
    r = len(buf) & 7
    if r:
        buf += _PAD[8 - r]
    buf += _U64.pack(value)


def _w_str(buf: bytearray, value: str) -> None:
    encoded = value.encode("utf-8")
    _w_u32(buf, len(encoded) + 1)
    buf += encoded
    buf.append(0)


def _w_octets(buf: bytearray, value) -> None:
    _w_u32(buf, len(value))
    buf += value


def _w_members(buf: bytearray, members) -> None:
    _w_u32(buf, len(members))
    for member in members:
        _w_str(buf, member)


def _r_u32(data, pos: int):
    pos = (pos + 3) & ~3
    return _U32.unpack_from(data, pos)[0], pos + 4


def _r_u64(data, pos: int):
    pos = (pos + 7) & ~7
    return _U64.unpack_from(data, pos)[0], pos + 8


def _r_str(data, pos: int):
    length, pos = _r_u32(data, pos)
    end = pos + length
    if length == 0 or end > len(data):
        raise UnmarshalError(f"bad CDR string length {length} at {pos}")
    if data[end - 1] != 0:
        raise UnmarshalError("CDR string missing NUL terminator")
    try:
        return str(data[pos:end - 1], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise UnmarshalError(f"invalid UTF-8 in CDR string: {exc}") from exc


def _r_octets(data, pos: int):
    length, pos = _r_u32(data, pos)
    end = pos + length
    if end > len(data):
        raise UnmarshalError(f"truncated CDR octets ({length}) at {pos}")
    return data[pos:end], end


def _r_members(data, pos: int):
    count, pos = _r_u32(data, pos)
    members = []
    for _ in range(count):
        member, pos = _r_str(data, pos)
        members.append(member)
    return tuple(members), pos


# ---------------------------------------------------------------------------
# Ring frames (repro.totem.member)
# ---------------------------------------------------------------------------

def _encode_data_into(buf: bytearray, msg: DataMsg) -> None:
    buf += _PAD[6]
    buf += _QQ.pack(msg.ring_id, msg.seq)
    _w_str(buf, msg.sender)
    msg_id = msg.msg_id
    _w_str(buf, msg_id[0])
    _w_u64(buf, msg_id[1])
    _w_u32(buf, msg.frag_index)
    _w_u32(buf, msg.frag_count)
    buf.append(1 if msg.retransmit else 0)
    _w_octets(buf, msg.chunk)
    _w_str(buf, msg.trace_id)


def _decode_data(data) -> DataMsg:
    ring_id, seq = _QQ.unpack_from(data, 8)
    sender, pos = _r_str(data, 24)
    origin, pos = _r_str(data, pos)
    counter, pos = _r_u64(data, pos)
    frag_index, pos = _r_u32(data, pos)
    frag_count, pos = _r_u32(data, pos)
    retransmit = data[pos] != 0
    chunk, pos = _r_octets(data, pos + 1)
    trace_id, pos = _r_str(data, pos)
    return DataMsg(ring_id, seq, sender, (origin, counter), frag_index,
                   frag_count, chunk, retransmit, trace_id)


def _encode_packed_into(buf: bytearray, msg: PackedDataMsg) -> None:
    buf += _PAD[6]
    buf += _QQ.pack(msg.ring_id, msg.seq)
    _w_str(buf, msg.sender)
    buf.append(1 if msg.retransmit else 0)
    _w_u32(buf, len(msg.payloads))
    for payload in msg.payloads:
        _w_str(buf, payload.msg_id[0])
        _w_u64(buf, payload.msg_id[1])
        _w_u32(buf, payload.frag_index)
        _w_u32(buf, payload.frag_count)
        _w_octets(buf, payload.chunk)
        _w_str(buf, payload.trace_id)


def _decode_packed(data) -> PackedDataMsg:
    ring_id, seq = _QQ.unpack_from(data, 8)
    sender, pos = _r_str(data, 24)
    retransmit = data[pos] != 0
    count, pos = _r_u32(data, pos + 1)
    payloads = []
    for _ in range(count):
        origin, pos = _r_str(data, pos)
        counter, pos = _r_u64(data, pos)
        frag_index, pos = _r_u32(data, pos)
        frag_count, pos = _r_u32(data, pos)
        chunk, pos = _r_octets(data, pos)
        trace_id, pos = _r_str(data, pos)
        payloads.append(PackedPayload((origin, counter), frag_index,
                                      frag_count, chunk, trace_id))
    return PackedDataMsg(ring_id, seq, sender, tuple(payloads), retransmit)


def _encode_token_into(buf: bytearray, msg: Token) -> None:
    buf += _PAD[6]
    buf += _QQQ.pack(msg.ring_id, msg.seq, msg.aru)
    _w_str(buf, msg.aru_id)
    _w_u32(buf, len(msg.rtr))
    for seq in msg.rtr:
        _w_u64(buf, seq)
    _w_u64(buf, msg.rotations)
    _w_u32(buf, msg.ring_key)
    buf += _U8.pack(msg.commit_phase)


def _decode_token(data) -> Token:
    ring_id, seq, aru = _QQQ.unpack_from(data, 8)
    aru_id, pos = _r_str(data, 32)
    count, pos = _r_u32(data, pos)
    rtr = []
    for _ in range(count):
        value, pos = _r_u64(data, pos)
        rtr.append(value)
    rotations, pos = _r_u64(data, pos)
    ring_key, pos = _r_u32(data, pos)
    commit_phase = data[pos]
    return Token(ring_id, seq, aru, aru_id, rtr, rotations, ring_key,
                 commit_phase)


def _encode_join_into(buf: bytearray, msg: JoinMsg) -> None:
    _w_str(buf, msg.sender)
    _w_u64(buf, msg.ring_id_seen)
    _w_u64(buf, msg.delivered_aru)
    _w_u32(buf, len(msg.held))
    for seq in sorted(msg.held):
        _w_u64(buf, seq)
    buf.append(1 if msg.fresh else 0)
    _w_members(buf, msg.view_members)
    _w_u64(buf, msg.base_seen)


def _decode_join(data) -> JoinMsg:
    sender, pos = _r_str(data, 2)
    ring_id_seen, pos = _r_u64(data, pos)
    delivered_aru, pos = _r_u64(data, pos)
    count, pos = _r_u32(data, pos)
    held = []
    for _ in range(count):
        seq, pos = _r_u64(data, pos)
        held.append(seq)
    fresh = data[pos] != 0
    view_members, pos = _r_members(data, pos + 1)
    base_seen, pos = _r_u64(data, pos)
    return JoinMsg(sender, ring_id_seen, delivered_aru, frozenset(held),
                   fresh, view_members, base_seen)


def _encode_form_into(buf: bytearray, msg: FormMsg) -> None:
    _w_u64(buf, msg.ring_id)
    _w_str(buf, msg.leader)
    _w_members(buf, msg.members)
    _w_u64(buf, msg.flush_seq)
    _w_u64(buf, msg.base_seq)
    _w_u32(buf, len(msg.holders))
    for seq in sorted(msg.holders):
        _w_u64(buf, seq)
        _w_str(buf, msg.holders[seq])
    _w_members(buf, msg.fresh_members)


def _decode_form(data) -> FormMsg:
    ring_id, pos = _r_u64(data, 2)
    leader, pos = _r_str(data, pos)
    members, pos = _r_members(data, pos)
    flush_seq, pos = _r_u64(data, pos)
    base_seq, pos = _r_u64(data, pos)
    count, pos = _r_u32(data, pos)
    holders = {}
    for _ in range(count):
        seq, pos = _r_u64(data, pos)
        holder, pos = _r_str(data, pos)
        holders[seq] = holder
    fresh_members, pos = _r_members(data, pos)
    return FormMsg(ring_id, leader, members, flush_seq, base_seq, holders,
                   fresh_members)


def _encode_probe_into(buf: bytearray, msg: ProbeMsg) -> None:
    _w_u64(buf, msg.ring_id)
    _w_str(buf, msg.sender)
    _w_members(buf, msg.members)


def _decode_probe(data) -> ProbeMsg:
    ring_id, pos = _r_u64(data, 2)
    sender, pos = _r_str(data, pos)
    members, pos = _r_members(data, pos)
    return ProbeMsg(ring_id, sender, members)


def _encode_hold_cancel_into(buf: bytearray, msg: HoldCancel) -> None:
    _w_u64(buf, msg.ring_id)
    _w_str(buf, msg.sender)


def _decode_hold_cancel(data) -> HoldCancel:
    ring_id, pos = _r_u64(data, 2)
    sender, pos = _r_str(data, pos)
    return HoldCancel(ring_id, sender)


# ---------------------------------------------------------------------------
# Bulk-lane and read-lease frames (out of band)
# ---------------------------------------------------------------------------

def _encode_bulk_fetch_into(buf: bytearray, msg: BulkFetch) -> None:
    _w_str(buf, msg.session_id)
    _w_str(buf, msg.requester)
    _w_u32(buf, msg.first_page)
    _w_u32(buf, msg.last_page)


def _decode_bulk_fetch(data) -> BulkFetch:
    session_id, pos = _r_str(data, 2)
    requester, pos = _r_str(data, pos)
    first_page, pos = _r_u32(data, pos)
    last_page, pos = _r_u32(data, pos)
    return BulkFetch(session_id, requester, first_page, last_page)


def _encode_bulk_page_into(buf: bytearray, msg: BulkPage) -> None:
    _w_str(buf, msg.session_id)
    _w_str(buf, msg.sender)
    _w_u32(buf, msg.index)
    _w_u32(buf, msg.crc)
    _w_octets(buf, msg.page)


def _decode_bulk_page(data) -> BulkPage:
    session_id, pos = _r_str(data, 2)
    sender, pos = _r_str(data, pos)
    index, pos = _r_u32(data, pos)
    crc, pos = _r_u32(data, pos)
    page, pos = _r_octets(data, pos)
    return BulkPage(session_id, sender, index, crc, page)


def _encode_bulk_nack_into(buf: bytearray, msg: BulkNack) -> None:
    _w_str(buf, msg.session_id)
    _w_str(buf, msg.sender)
    _w_str(buf, msg.reason)


def _decode_bulk_nack(data) -> BulkNack:
    session_id, pos = _r_str(data, 2)
    sender, pos = _r_str(data, pos)
    reason, pos = _r_str(data, pos)
    return BulkNack(session_id, sender, reason)


def _encode_readfast_request_into(buf: bytearray,
                                  msg: ReadFastRequest) -> None:
    _w_str(buf, msg.group_id)
    _w_str(buf, msg.conn)
    _w_u64(buf, msg.request_id)
    _w_str(buf, msg.requester)
    _w_u64(buf, msg.ring_id)
    _w_octets(buf, msg.iiop_bytes)


def _decode_readfast_request(data) -> ReadFastRequest:
    group_id, pos = _r_str(data, 2)
    conn, pos = _r_str(data, pos)
    request_id, pos = _r_u64(data, pos)
    requester, pos = _r_str(data, pos)
    ring_id, pos = _r_u64(data, pos)
    iiop_bytes, pos = _r_octets(data, pos)
    return ReadFastRequest(group_id, conn, request_id, requester, ring_id,
                           iiop_bytes)


def _encode_readfast_reply_into(buf: bytearray, msg: ReadFastReply) -> None:
    _w_str(buf, msg.group_id)
    _w_str(buf, msg.conn)
    _w_u64(buf, msg.request_id)
    _w_u64(buf, msg.ring_id)
    _w_octets(buf, msg.iiop_bytes)


def _decode_readfast_reply(data) -> ReadFastReply:
    group_id, pos = _r_str(data, 2)
    conn, pos = _r_str(data, pos)
    request_id, pos = _r_u64(data, pos)
    ring_id, pos = _r_u64(data, pos)
    iiop_bytes, pos = _r_octets(data, pos)
    return ReadFastReply(group_id, conn, request_id, ring_id, iiop_bytes)


def _encode_readfast_nack_into(buf: bytearray, msg: ReadFastNack) -> None:
    _w_str(buf, msg.group_id)
    _w_str(buf, msg.conn)
    _w_u64(buf, msg.request_id)
    _w_str(buf, msg.reason)


def _decode_readfast_nack(data) -> ReadFastNack:
    group_id, pos = _r_str(data, 2)
    conn, pos = _r_str(data, pos)
    request_id, pos = _r_u64(data, pos)
    reason, pos = _r_str(data, pos)
    return ReadFastNack(group_id, conn, request_id, reason)


# ---------------------------------------------------------------------------
# The codec table and its two entry points
# ---------------------------------------------------------------------------

#: One row per core frame type: (tag, class, encoder, decoder).  Tags
#: below 64 are the protocol's; 64-255 are left to :func:`register_wire_type`.
_ROWS = (
    (1, DataMsg, _encode_data_into, _decode_data),
    (2, PackedDataMsg, _encode_packed_into, _decode_packed),
    (3, Token, _encode_token_into, _decode_token),
    (4, JoinMsg, _encode_join_into, _decode_join),
    (5, FormMsg, _encode_form_into, _decode_form),
    (6, ProbeMsg, _encode_probe_into, _decode_probe),
    (7, BulkFetch, _encode_bulk_fetch_into, _decode_bulk_fetch),
    (8, BulkPage, _encode_bulk_page_into, _decode_bulk_page),
    (9, BulkNack, _encode_bulk_nack_into, _decode_bulk_nack),
    (10, ReadFastRequest, _encode_readfast_request_into,
     _decode_readfast_request),
    (11, ReadFastReply, _encode_readfast_reply_into, _decode_readfast_reply),
    (12, ReadFastNack, _encode_readfast_nack_into, _decode_readfast_nack),
    (13, HoldCancel, _encode_hold_cancel_into, _decode_hold_cancel),
)

#: Exact class -> (version + tag octets, encoder); no MRO walk — the
#: transport dispatches received payloads by class, so the codec must
#: reproduce the precise type it was handed.
_ENCODERS = {cls: (bytes((WIRE_VERSION, tag)), encode)
             for tag, cls, encode, _ in _ROWS}
#: Tag -> decoder of the whole frame.
_DECODERS = {tag: decode for tag, _, _, decode in _ROWS}


def register_wire_type(tag: int, cls, encode, decode) -> None:
    """Register an extension frame type in the codec table.

    ``encode(obj)`` returns the frame body as bytes; ``decode(body)``
    rebuilds the object from it (a ``memoryview`` when the transport
    decodes a received datagram).
    """
    if not 64 <= tag <= 255:
        raise ValueError(f"extension tag {tag} outside 64..255")

    def encode_into(buf: bytearray, obj) -> None:
        buf += encode(obj)

    _ENCODERS[cls] = (bytes((WIRE_VERSION, tag)), encode_into)
    _DECODERS[tag] = lambda data: decode(data[2:])


def encode_frame_payload_into(buf: bytearray, msg) -> None:
    """Append one encoded Totem frame to ``buf`` (a reusable buffer).

    CDR alignment is computed from the start of ``buf``, so the frame
    must begin at offset 0 or a multiple of 8 (callers reuse a scratch
    buffer they clear between frames).  A field out of its wire range
    raises :class:`MarshalError`, leaving ``buf`` partly written."""
    entry = _ENCODERS.get(type(msg))
    if entry is None:
        raise ProtocolError(
            f"cannot encode Totem frame {type(msg).__name__}")
    head, encode = entry
    buf += head
    try:
        encode(buf, msg)
    except struct.error as exc:
        raise MarshalError(
            f"unencodable {type(msg).__name__} field: {exc}") from exc


def decode_frame_payload(data):
    """Inverse of :func:`encode_frame_payload_into`.

    Accepts ``bytes`` or a ``memoryview``; with a view, chunk bodies in
    the decoded messages are zero-copy sub-views of the datagram buffer.
    """
    if len(data) < 2:
        raise ProtocolError(f"short Totem frame ({len(data)} bytes)")
    version = data[0]
    if version != WIRE_VERSION:
        raise ProtocolError(f"unknown Totem wire version {version}")
    decode = _DECODERS.get(data[1])
    if decode is None:
        raise ProtocolError(f"unknown Totem frame tag {data[1]}")
    try:
        return decode(data)
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(
            f"truncated Totem frame (tag {data[1]}): {exc}") from exc
