"""Reference CDR codecs: the property-test oracle.

Two parts, neither sharing a line with the production codec kit
(:mod:`repro.giop.cdr`'s primitives and record builder):

* :class:`CdrOutputStream` / :class:`CdrInputStream` — general CDR
  streams that align and byte-swap field by field.  ``giop_oracle.py``
  writes its GIOP, ``any`` and envelope references on them too.
* :func:`oracle_encode` / :func:`oracle_decode` — an independent encoder
  and decoder for all thirteen frame types of :mod:`repro.totem.wire`.
  The live codec must produce exactly these bytes and decode them back to
  the original frame (``test_live_codec_properties.py``).
"""

import struct

from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)
from repro.totem.wire import (BulkFetch, BulkNack, BulkPage, ReadFastNack,
                              ReadFastReply, ReadFastRequest)


_PAD = b"\x00"

#: Padding strings by gap length (CDR boundaries are at most 8).
_PADDING = tuple(_PAD * n for n in range(8))

#: Per-primitive ``struct.Struct`` objects, both byte orders.
_STRUCTS = {
    order + fmt: struct.Struct(order + fmt)
    for order in ("<", ">")
    for fmt in ("B", "h", "H", "i", "I", "q", "Q", "f", "d")
}


class CdrOutputStream:
    """Appends CDR-encoded values to a growing byte buffer."""

    def __init__(self, little_endian: bool = False) -> None:
        self.little_endian = little_endian
        self._buf = bytearray()
        self._fmt = "<" if little_endian else ">"

    # -- low level ------------------------------------------------------

    def align(self, boundary: int) -> None:
        remainder = len(self._buf) % boundary
        if remainder:
            self._buf += _PADDING[boundary - remainder]

    def write_raw(self, data: bytes) -> None:
        self._buf += data

    def _pack(self, fmt: str, boundary: int, value) -> None:
        try:
            packed = _STRUCTS[self._fmt + fmt].pack(value)
        except struct.error as exc:
            raise MarshalError(f"cannot pack {value!r} as {fmt!r}: {exc}") from exc
        remainder = len(self._buf) % boundary
        if remainder:
            # Single append per primitive: pad and payload joined once.
            packed = _PADDING[boundary - remainder] + packed
        self._buf += packed

    # -- primitives -----------------------------------------------------

    def write_octet(self, value: int) -> None:
        self._pack("B", 1, value)

    def write_boolean(self, value: bool) -> None:
        self._pack("B", 1, 1 if value else 0)

    def write_short(self, value: int) -> None:
        self._pack("h", 2, value)

    def write_ushort(self, value: int) -> None:
        self._pack("H", 2, value)

    def write_long(self, value: int) -> None:
        self._pack("i", 4, value)

    def write_ulong(self, value: int) -> None:
        self._pack("I", 4, value)

    def write_longlong(self, value: int) -> None:
        self._pack("q", 8, value)

    def write_ulonglong(self, value: int) -> None:
        self._pack("Q", 8, value)

    def write_float(self, value: float) -> None:
        self._pack("f", 4, value)

    def write_double(self, value: float) -> None:
        self._pack("d", 8, value)

    # -- composites ------------------------------------------------------

    def write_string(self, value: str) -> None:
        """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
        encoded = value.encode("utf-8")
        self.write_ulong(len(encoded) + 1)
        self.write_raw(encoded + b"\x00")

    def write_octets(self, value: bytes) -> None:
        """sequence<octet>: ulong length then raw bytes."""
        self.write_ulong(len(value))
        self.write_raw(value)

    def write_encapsulation(self, inner: "CdrOutputStream") -> None:
        """An encapsulation: octet-sequence wrapping a nested CDR stream
        whose first octet records the nested stream's endianness."""
        payload = bytes([1 if inner.little_endian else 0]) + inner.getvalue()
        self.write_octets(payload)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class CdrInputStream:
    """Reads CDR-encoded values from a byte buffer.

    Accepts ``bytes``, ``bytearray`` or ``memoryview``: the decode hot
    path hands in a ``memoryview`` of the received datagram, and
    :meth:`read_raw` / :meth:`read_octets` then return sub-views instead
    of copied slices — payload bytes are never duplicated on the way up
    the stack (the view pins the ~MTU-sized datagram buffer, which is
    immutable and bounded).

    ``offset_base`` supports encapsulations: alignment inside an
    encapsulation is relative to the encapsulation's own start.
    """

    def __init__(self, data, little_endian: bool = False) -> None:
        self._data = data
        self._pos = 0
        self.little_endian = little_endian
        self._fmt = "<" if little_endian else ">"

    # -- low level ------------------------------------------------------

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def read_raw(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise UnmarshalError(
                f"truncated CDR stream: need {count} bytes at offset "
                f"{self._pos}, have {len(self._data) - self._pos}"
            )
        value = self._data[self._pos:self._pos + count]
        self._pos += count
        return value

    def _unpack(self, fmt: str, boundary: int, size: int):
        # Unpack straight out of the backing buffer (no intermediate
        # slice object per primitive — this is the decode hot path).
        pos = self._pos
        remainder = pos % boundary
        if remainder:
            pos += boundary - remainder
        if pos + size > len(self._data):
            raise UnmarshalError(
                f"truncated CDR stream: need {size} bytes at offset "
                f"{pos}, have {len(self._data) - pos}"
            )
        self._pos = pos + size
        try:
            return _STRUCTS[self._fmt + fmt].unpack_from(self._data, pos)[0]
        except struct.error as exc:  # pragma: no cover - guarded above
            raise UnmarshalError(str(exc)) from exc

    # -- primitives -----------------------------------------------------

    def read_octet(self) -> int:
        return self._unpack("B", 1, 1)

    def read_boolean(self) -> bool:
        return bool(self._unpack("B", 1, 1))

    def read_short(self) -> int:
        return self._unpack("h", 2, 2)

    def read_ushort(self) -> int:
        return self._unpack("H", 2, 2)

    def read_long(self) -> int:
        return self._unpack("i", 4, 4)

    def read_ulong(self) -> int:
        return self._unpack("I", 4, 4)

    def read_longlong(self) -> int:
        return self._unpack("q", 8, 8)

    def read_ulonglong(self) -> int:
        return self._unpack("Q", 8, 8)

    def read_float(self) -> float:
        return self._unpack("f", 4, 4)

    def read_double(self) -> float:
        return self._unpack("d", 8, 8)

    # -- composites ------------------------------------------------------

    def read_string(self) -> str:
        length = self.read_ulong()
        if length == 0:
            raise UnmarshalError("CDR string length 0 (must include NUL)")
        raw = self.read_raw(length)
        if raw[-1] != 0:
            raise UnmarshalError("CDR string missing NUL terminator")
        try:
            # str(buffer, encoding) decodes bytes and memoryview alike.
            return str(raw[:-1], "utf-8")
        except UnicodeDecodeError as exc:
            raise UnmarshalError(f"invalid UTF-8 in CDR string: {exc}") from exc

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        return self.read_raw(length)

    def read_encapsulation(self) -> "CdrInputStream":
        payload = self.read_octets()
        if not payload:
            raise UnmarshalError("empty CDR encapsulation")
        return CdrInputStream(payload[1:], little_endian=bool(payload[0]))


WIRE_VERSION = 2

TAG_DATA = 1
TAG_PACKED = 2
TAG_TOKEN = 3
TAG_JOIN = 4
TAG_FORM = 5
TAG_PROBE = 6
TAG_BULK_FETCH = 7
TAG_BULK_PAGE = 8
TAG_BULK_NACK = 9
TAG_READFAST_REQ = 10
TAG_READFAST_REPLY = 11
TAG_READFAST_NACK = 12
TAG_HOLD_CANCEL = 13


def _write_msg_id(out, msg_id):
    out.write_string(msg_id[0])
    out.write_ulonglong(msg_id[1])


def _read_msg_id(inp):
    return (inp.read_string(), inp.read_ulonglong())


def _write_members(out, members):
    out.write_ulong(len(members))
    for member in members:
        out.write_string(member)


def _read_members(inp):
    return tuple(inp.read_string() for _ in range(inp.read_ulong()))


def oracle_encode(msg) -> bytes:
    """One whole frame (version, tag, body) through the CDR streams."""
    out = CdrOutputStream()
    out.write_octet(WIRE_VERSION)
    if isinstance(msg, DataMsg):
        out.write_octet(TAG_DATA)
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
        out.write_octet(TAG_PACKED)
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
        out.write_octet(TAG_TOKEN)
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
        out.write_octet(TAG_JOIN)
        out.write_string(msg.sender)
        out.write_ulonglong(msg.ring_id_seen)
        out.write_ulonglong(msg.delivered_aru)
        out.write_ulong(len(msg.held))
        for seq in sorted(msg.held):
            out.write_ulonglong(seq)
        out.write_boolean(msg.fresh)
        _write_members(out, msg.view_members)
        out.write_ulonglong(msg.base_seen)
        _write_members(out, msg.candidates)
    elif isinstance(msg, FormMsg):
        out.write_octet(TAG_FORM)
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
        out.write_octet(TAG_PROBE)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
        _write_members(out, msg.members)
    elif isinstance(msg, HoldCancel):
        out.write_octet(TAG_HOLD_CANCEL)
        out.write_ulonglong(msg.ring_id)
        out.write_string(msg.sender)
    elif isinstance(msg, BulkFetch):
        out.write_octet(TAG_BULK_FETCH)
        out.write_string(msg.session_id)
        out.write_string(msg.requester)
        out.write_ulong(msg.first_page)
        out.write_ulong(msg.last_page)
    elif isinstance(msg, BulkPage):
        out.write_octet(TAG_BULK_PAGE)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_ulong(msg.index)
        out.write_ulong(msg.crc)
        out.write_octets(msg.page)
    elif isinstance(msg, BulkNack):
        out.write_octet(TAG_BULK_NACK)
        out.write_string(msg.session_id)
        out.write_string(msg.sender)
        out.write_string(msg.reason)
    elif isinstance(msg, ReadFastRequest):
        out.write_octet(TAG_READFAST_REQ)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.requester)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastReply):
        out.write_octet(TAG_READFAST_REPLY)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_ulonglong(msg.ring_id)
        out.write_octets(msg.iiop_bytes)
    elif isinstance(msg, ReadFastNack):
        out.write_octet(TAG_READFAST_NACK)
        out.write_string(msg.group_id)
        out.write_string(msg.conn)
        out.write_ulonglong(msg.request_id)
        out.write_string(msg.reason)
    else:
        raise ProtocolError(
            f"cannot encode Totem frame {type(msg).__name__}")
    return out.getvalue()


def oracle_decode(data):
    """Inverse of :func:`oracle_encode`."""
    inp = CdrInputStream(data)
    if inp.read_octet() != WIRE_VERSION:
        raise ProtocolError("unknown Totem wire version")
    tag = inp.read_octet()
    if tag == TAG_DATA:
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
    if tag == TAG_PACKED:
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
    if tag == TAG_TOKEN:
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
    if tag == TAG_JOIN:
        sender = inp.read_string()
        ring_id_seen = inp.read_ulonglong()
        delivered_aru = inp.read_ulonglong()
        held = frozenset(inp.read_ulonglong()
                         for _ in range(inp.read_ulong()))
        fresh = inp.read_boolean()
        view_members = _read_members(inp)
        base_seen = inp.read_ulonglong()
        candidates = _read_members(inp)
        return JoinMsg(sender, ring_id_seen, delivered_aru, held, fresh,
                       view_members, base_seen, candidates)
    if tag == TAG_FORM:
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
    if tag == TAG_PROBE:
        ring_id = inp.read_ulonglong()
        sender = inp.read_string()
        members = _read_members(inp)
        return ProbeMsg(ring_id, sender, members)
    if tag == TAG_HOLD_CANCEL:
        return HoldCancel(inp.read_ulonglong(), inp.read_string())
    if tag == TAG_BULK_FETCH:
        return BulkFetch(inp.read_string(), inp.read_string(),
                         inp.read_ulong(), inp.read_ulong())
    if tag == TAG_BULK_PAGE:
        return BulkPage(inp.read_string(), inp.read_string(),
                        inp.read_ulong(), inp.read_ulong(),
                        inp.read_octets())
    if tag == TAG_BULK_NACK:
        return BulkNack(inp.read_string(), inp.read_string(),
                        inp.read_string())
    if tag == TAG_READFAST_REQ:
        return ReadFastRequest(inp.read_string(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_string(),
                               inp.read_ulonglong(), inp.read_octets())
    if tag == TAG_READFAST_REPLY:
        return ReadFastReply(inp.read_string(), inp.read_string(),
                             inp.read_ulonglong(), inp.read_ulonglong(),
                             inp.read_octets())
    if tag == TAG_READFAST_NACK:
        return ReadFastNack(inp.read_string(), inp.read_string(),
                            inp.read_ulonglong(), inp.read_string())
    raise ProtocolError(f"unknown Totem frame tag {tag}")
