"""Binary wire codec for Totem protocol frames.

The live runtime's UDP transport needs a byte representation of every
frame the ring exchanges.  This module encodes the seven Totem message
types — plus the out-of-band bulk-lane frames (:class:`BulkFetch`,
:class:`BulkPage`, :class:`BulkNack`) the recovery state transfer sends
point-to-point outside the total order, and the read-lease fast-path
frames (:class:`ReadFastRequest`, :class:`ReadFastReply`,
:class:`ReadFastNack`) — in CDR (reusing :mod:`repro.giop.cdr`, the same
marshalling the IIOP layer uses) behind a one-octet format version,
replacing the pickle encoding the live transport started with: the codec
is

* **safe** — decoding attacker-controlled bytes can only yield Totem
  message objects, never arbitrary Python objects;
* **versioned** — the leading octet rejects frames from an incompatible
  build instead of mis-parsing them;
* **compact** — a classic ``DataMsg`` costs its chunk plus ~40 bytes of
  header, close to the simulator's declared ``size_bytes`` and far below
  pickle's overhead.

The three frame types on the token-rotation hot path (``DataMsg``,
``PackedDataMsg``, ``Token``) additionally have hand-specialized
encoders/decoders: straight-line code over prebuilt :class:`struct.Struct`
instances with inlined CDR alignment arithmetic, appending to a caller
supplied (reusable) ``bytearray`` on encode and — when handed a
``memoryview`` — returning zero-copy sub-views for chunk bodies on
decode, so a packed frame's sub-payloads are never copied out of the
datagram buffer (they materialize lazily, only if a consumer converts
them).  The specialized paths are byte-identical to the generic CDR
ones (property-tested), which remain the reference and serve every
other tag.

Unknown tags and malformed bodies raise :class:`~repro.errors.ProtocolError`
(or the CDR layer's :class:`~repro.errors.UnmarshalError`); the transport
maps both onto dropped frames.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import ProtocolError, UnmarshalError
from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)

#: Format version octet leading every encoded frame (bump on layout change).
#: v2: data frames and packed payloads carry a trailing trace-id string.
WIRE_VERSION = 2

_TAG_DATA = 1
_TAG_PACKED = 2
_TAG_TOKEN = 3
_TAG_JOIN = 4
_TAG_FORM = 5
_TAG_PROBE = 6
_TAG_BULK_FETCH = 7
_TAG_BULK_PAGE = 8
_TAG_BULK_NACK = 9
_TAG_READFAST_REQ = 10
_TAG_READFAST_REPLY = 11
_TAG_READFAST_NACK = 12
_TAG_HOLD_CANCEL = 13

TotemFrame = object     # DataMsg | PackedDataMsg | Token | JoinMsg | ...


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


#: Extension frame types (tags 64-255): embedders may register additional
#: payload classes; the core protocol keeps tags below 64.
_EXT_BY_CLASS: dict = {}
_EXT_BY_TAG: dict = {}


def register_wire_type(tag: int, cls, encode, decode) -> None:
    """Register an extension frame type.

    ``encode(out, obj)`` writes the body onto a :class:`CdrOutputStream`;
    ``decode(inp)`` rebuilds the object from a :class:`CdrInputStream`.
    Exact-class match only (no MRO walk): the codec must reproduce the
    precise type it was handed, because the transport dispatches received
    payloads by class.
    """
    if not 64 <= tag <= 255:
        raise ValueError(f"extension tag {tag} outside 64..255")
    _EXT_BY_CLASS[cls] = (tag, encode)
    _EXT_BY_TAG[tag] = decode


def _write_msg_id(out: CdrOutputStream, msg_id) -> None:
    out.write_string(msg_id[0])
    out.write_ulonglong(msg_id[1])


def _read_msg_id(inp: CdrInputStream):
    return (inp.read_string(), inp.read_ulonglong())


def _write_members(out: CdrOutputStream, members) -> None:
    out.write_ulong(len(members))
    for member in members:
        out.write_string(member)


def _read_members(inp: CdrInputStream):
    return tuple(inp.read_string() for _ in range(inp.read_ulong()))


# ---------------------------------------------------------------------------
# Hand-specialized hot-path codec (DataMsg / PackedDataMsg / Token)
# ---------------------------------------------------------------------------
#
# CDR alignment is relative to the start of the stream; the version and
# tag octets occupy positions 0 and 1, so the leading ulonglong of all
# three hot frame types lands at offset 8 after six bytes of padding.
# The prefix constants below bake version+tag+padding into one append.

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_QQ = struct.Struct(">QQ")      # DataMsg/PackedDataMsg: ring_id, seq
_QQQ = struct.Struct(">QQQ")    # Token: ring_id, seq, aru

_PAD = tuple(b"\x00" * n for n in range(8))

_DATA_PREFIX = bytes([WIRE_VERSION, _TAG_DATA]) + b"\x00" * 6
_PACKED_PREFIX = bytes([WIRE_VERSION, _TAG_PACKED]) + b"\x00" * 6
_TOKEN_PREFIX = bytes([WIRE_VERSION, _TAG_TOKEN]) + b"\x00" * 6


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


def _encode_data_into(buf: bytearray, msg: DataMsg) -> None:
    buf += _DATA_PREFIX
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
    buf += _PACKED_PREFIX
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
    buf += _TOKEN_PREFIX
    buf += _QQQ.pack(msg.ring_id, msg.seq, msg.aru)
    _w_str(buf, msg.aru_id)
    _w_u32(buf, len(msg.rtr))
    for seq in msg.rtr:
        _w_u64(buf, seq)
    _w_u64(buf, msg.rotations)
    _w_u32(buf, msg.ring_key)
    buf.append(msg.commit_phase)


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


def encode_frame_payload_into(buf: bytearray, msg) -> None:
    """Append one encoded Totem frame to ``buf`` (a reusable buffer).

    CDR alignment is computed from the start of ``buf``, so the frame
    must begin at offset 0 or a multiple of 8 (callers reuse a scratch
    buffer they clear between frames)."""
    kind = type(msg)
    if kind is DataMsg:
        _encode_data_into(buf, msg)
        return
    if kind is PackedDataMsg:
        _encode_packed_into(buf, msg)
        return
    if kind is Token:
        _encode_token_into(buf, msg)
        return
    buf += _encode_generic(msg)


def encode_frame_payload(msg) -> bytes:
    """Serialize one Totem frame (any of the registered message types)."""
    kind = type(msg)
    if kind is DataMsg or kind is PackedDataMsg or kind is Token:
        buf = bytearray()
        encode_frame_payload_into(buf, msg)
        return bytes(buf)
    return _encode_generic(msg)


def _encode_generic(msg) -> bytes:
    """Reference CDR encoder covering every frame type (the specialized
    hot-path encoders above must stay byte-identical to it)."""
    out = CdrOutputStream()
    out.write_octet(WIRE_VERSION)
    extension = _EXT_BY_CLASS.get(type(msg))
    if extension is not None:
        tag, encode = extension
        out.write_octet(tag)
        encode(out, msg)
    elif isinstance(msg, DataMsg):
        out.write_octet(_TAG_DATA)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_string(msg.sender)
        _write_msg_id(out, msg.msg_id)
        out.write_ulong(msg.frag_index)
        out.write_ulong(msg.frag_count)
        out.write_boolean(msg.retransmit)
        out.write_octets(msg.chunk)
        out.write_string(msg.trace_id)
    elif isinstance(msg, PackedDataMsg):
        out.write_octet(_TAG_PACKED)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_string(msg.sender)
        out.write_boolean(msg.retransmit)
        out.write_ulong(len(msg.payloads))
        for payload in msg.payloads:
            _write_msg_id(out, payload.msg_id)
            out.write_ulong(payload.frag_index)
            out.write_ulong(payload.frag_count)
            out.write_octets(payload.chunk)
            out.write_string(payload.trace_id)
    elif isinstance(msg, Token):
        out.write_octet(_TAG_TOKEN)
        out.write_ulonglong(msg.ring_id)
        out.write_ulonglong(msg.seq)
        out.write_ulonglong(msg.aru)
        out.write_string(msg.aru_id)
        out.write_ulong(len(msg.rtr))
        for seq in msg.rtr:
            out.write_ulonglong(seq)
        out.write_ulonglong(msg.rotations)
        out.write_ulong(msg.ring_key)
        out.write_octet(msg.commit_phase)
    elif isinstance(msg, JoinMsg):
        out.write_octet(_TAG_JOIN)
        out.write_string(msg.sender)
        out.write_ulonglong(msg.ring_id_seen)
        out.write_ulonglong(msg.delivered_aru)
        out.write_ulong(len(msg.held))
        for seq in sorted(msg.held):
            out.write_ulonglong(seq)
        out.write_boolean(msg.fresh)
        _write_members(out, msg.view_members)
        out.write_ulonglong(msg.base_seen)
    elif isinstance(msg, FormMsg):
        out.write_octet(_TAG_FORM)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.leader)
        _write_members(out, msg.members)
        out.write_ulonglong(msg.flush_seq)
        out.write_ulonglong(msg.base_seq)
        out.write_ulong(len(msg.holders))
        for seq in sorted(msg.holders):
            out.write_ulonglong(seq)
            out.write_string(msg.holders[seq])
        _write_members(out, msg.fresh_members)
    elif isinstance(msg, ProbeMsg):
        out.write_octet(_TAG_PROBE)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
        _write_members(out, msg.members)
    elif isinstance(msg, HoldCancel):
        out.write_octet(_TAG_HOLD_CANCEL)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
    elif isinstance(msg, BulkFetch):
        out.write_octet(_TAG_BULK_FETCH)
        out.write_string(msg.session_id)
        out.write_string(msg.requester)
        out.write_ulong(msg.first_page)
        out.write_ulong(msg.last_page)
    elif isinstance(msg, BulkPage):
        out.write_octet(_TAG_BULK_PAGE)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_ulong(msg.index)
        out.write_ulong(msg.crc)
        out.write_octets(msg.page)
    elif isinstance(msg, BulkNack):
        out.write_octet(_TAG_BULK_NACK)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_string(msg.reason)
    elif isinstance(msg, ReadFastRequest):
        out.write_octet(_TAG_READFAST_REQ)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.requester)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastReply):
        out.write_octet(_TAG_READFAST_REPLY)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastNack):
        out.write_octet(_TAG_READFAST_NACK)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.reason)
    else:
        raise ProtocolError(
            f"cannot encode Totem frame {type(msg).__name__}")
    return out.getvalue()


def decode_frame_payload(data):
    """Inverse of :func:`encode_frame_payload`.

    Accepts ``bytes`` or a ``memoryview``; with a view, chunk bodies in
    the decoded messages are zero-copy sub-views of the datagram buffer.
    """
    if len(data) < 2:
        raise ProtocolError(f"short Totem frame ({len(data)} bytes)")
    version = data[0]
    if version != WIRE_VERSION:
        raise ProtocolError(f"unknown Totem wire version {version}")
    tag = data[1]
    try:
        if tag == _TAG_DATA:
            return _decode_data(data)
        if tag == _TAG_PACKED:
            return _decode_packed(data)
        if tag == _TAG_TOKEN:
            return _decode_token(data)
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(f"truncated Totem frame (tag {tag}): {exc}") \
            from exc
    inp = CdrInputStream(data)
    inp.read_octet()            # version (validated above)
    inp.read_octet()            # tag
    return _decode_generic(tag, inp)


def _decode_generic(tag: int, inp: CdrInputStream):
    """Reference CDR decoder for every non-hot tag (and the equivalence
    oracle the specialized decoders are property-tested against)."""
    if tag == _TAG_DATA:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        sender = inp.read_string()
        msg_id = _read_msg_id(inp)
        frag_index = inp.read_ulong()
        frag_count = inp.read_ulong()
        retransmit = inp.read_boolean()
        chunk = inp.read_octets()
        trace_id = inp.read_string()
        return DataMsg(ring_id, seq, sender, msg_id, frag_index,
                       frag_count, chunk, retransmit, trace_id)
    if tag == _TAG_PACKED:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        sender = inp.read_string()
        retransmit = inp.read_boolean()
        count = inp.read_ulong()
        payloads = []
        for _ in range(count):
            msg_id = _read_msg_id(inp)
            frag_index = inp.read_ulong()
            frag_count = inp.read_ulong()
            chunk = inp.read_octets()
            payloads.append(PackedPayload(msg_id, frag_index, frag_count,
                                          chunk, inp.read_string()))
        return PackedDataMsg(ring_id, seq, sender, tuple(payloads),
                             retransmit)
    if tag == _TAG_TOKEN:
        ring_id = inp.read_ulonglong()
        seq = inp.read_ulonglong()
        aru = inp.read_ulonglong()
        aru_id = inp.read_string()
        rtr = [inp.read_ulonglong() for _ in range(inp.read_ulong())]
        rotations = inp.read_ulonglong()
        ring_key = inp.read_ulong()
        commit_phase = inp.read_octet()
        return Token(ring_id, seq, aru, aru_id, rtr, rotations, ring_key,
                     commit_phase)
    if tag == _TAG_JOIN:
        sender = inp.read_string()
        ring_id_seen = inp.read_ulonglong()
        delivered_aru = inp.read_ulonglong()
        held = frozenset(inp.read_ulonglong()
                         for _ in range(inp.read_ulong()))
        fresh = inp.read_boolean()
        view_members = _read_members(inp)
        base_seen = inp.read_ulonglong()
        return JoinMsg(sender, ring_id_seen, delivered_aru, held, fresh,
                       view_members, base_seen)
    if tag == _TAG_FORM:
        ring_id = inp.read_ulonglong()
        leader = inp.read_string()
        members = _read_members(inp)
        flush_seq = inp.read_ulonglong()
        base_seq = inp.read_ulonglong()
        holders = {}
        for _ in range(inp.read_ulong()):
            seq = inp.read_ulonglong()
            holders[seq] = inp.read_string()
        fresh_members = _read_members(inp)
        return FormMsg(ring_id, leader, members, flush_seq, base_seq,
                       holders, fresh_members)
    if tag == _TAG_PROBE:
        ring_id = inp.read_ulonglong()
        sender = inp.read_string()
        members = _read_members(inp)
        return ProbeMsg(ring_id, sender, members)
    if tag == _TAG_HOLD_CANCEL:
        return HoldCancel(inp.read_ulonglong(), inp.read_string())
    if tag == _TAG_BULK_FETCH:
        return BulkFetch(inp.read_string(), inp.read_string(),
                         inp.read_ulong(), inp.read_ulong())
    if tag == _TAG_BULK_PAGE:
        return BulkPage(inp.read_string(), inp.read_string(),
                        inp.read_ulong(), inp.read_ulong(),
                        inp.read_octets())
    if tag == _TAG_BULK_NACK:
        return BulkNack(inp.read_string(), inp.read_string(),
                        inp.read_string())
    if tag == _TAG_READFAST_REQ:
        return ReadFastRequest(inp.read_string(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_octets())
    if tag == _TAG_READFAST_REPLY:
        return ReadFastReply(inp.read_string(), inp.read_string(),
                             inp.read_ulonglong(), inp.read_ulonglong(),
                             inp.read_octets())
    if tag == _TAG_READFAST_NACK:
        return ReadFastNack(inp.read_string(), inp.read_string(),
                            inp.read_ulonglong(), inp.read_string())
    decode = _EXT_BY_TAG.get(tag)
    if decode is not None:
        return decode(inp)
    raise ProtocolError(f"unknown Totem frame tag {tag}")
