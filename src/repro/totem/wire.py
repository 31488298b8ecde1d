"""Binary wire codec for Totem protocol frames.

The live runtime's UDP transport carries every frame the ring exchanges —
the seven Totem message types, the out-of-band bulk-lane frames
(:class:`BulkFetch`, :class:`BulkPage`, :class:`BulkNack`) of the
recovery state transfer, and the read-lease fast-path frames
(:class:`ReadFastRequest`, :class:`ReadFastReply`,
:class:`ReadFastNack`) — as big-endian CDR behind a format version octet
and a tag octet.  Decoding attacker-controlled bytes can only yield these
message objects, and the version octet rejects frames from an
incompatible build.

Each frame type is one row of :data:`FRAMES`, a
:class:`repro.giop.cdr.Table`: its fields in wire order, built into
straight-line code by the same codec kit as the IIOP layer.
Encoders append to a reusable ``bytearray``; decoders handed a
``memoryview`` return zero-copy sub-views for octet sequences, so a
packed frame's payloads are never copied out of the datagram buffer.
The property suite (``tests/properties/test_live_codec_properties.py``)
holds every row to an independent CDR reference
(``tests/properties/cdr_oracle.py``), both ways.

Unknown tags raise :class:`~repro.errors.ProtocolError`, malformed
bodies :class:`~repro.errors.UnmarshalError` and out-of-range fields on
encode :class:`~repro.errors.MarshalError`; the transport maps all three
onto :class:`~repro.errors.NetworkError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.giop.cdr import (BOOL, OCTET, OCTETS, STRING, ULONG, ULONGLONG,
                            Row, Seq, SortedMap, SortedSet, Table, Tup)
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
# The codec: one table of rows
# ---------------------------------------------------------------------------
#
# The version and tag octets occupy offsets 0 and 1, so every record
# starts at offset 2 (a leading ulonglong is padded to offset 8).

_MSG_ID = Tup(STRING, ULONGLONG)     # (originating node, per-origin counter)
_MEMBERS = Seq(STRING)

#: Tags below 64 are the protocol's; 64-255 are left to extensions
#: (:meth:`repro.giop.cdr.Table.add`).
FRAMES = Table("Totem frame", WIRE_VERSION, (
    (1, Row(DataMsg, ("ring_id", ULONGLONG), ("seq", ULONGLONG),
            ("sender", STRING), ("msg_id", _MSG_ID), ("frag_index", ULONG),
            ("frag_count", ULONG), ("retransmit", BOOL), ("chunk", OCTETS),
            ("trace_id", STRING))),
    (2, Row(PackedDataMsg, ("ring_id", ULONGLONG), ("seq", ULONGLONG),
            ("sender", STRING), ("retransmit", BOOL),
            ("payloads", Seq(Row(PackedPayload, ("msg_id", _MSG_ID),
                                 ("frag_index", ULONG),
                                 ("frag_count", ULONG), ("chunk", OCTETS),
                                 ("trace_id", STRING)))))),
    (3, Row(Token, ("ring_id", ULONGLONG), ("seq", ULONGLONG),
            ("aru", ULONGLONG), ("aru_id", STRING),
            ("rtr", Seq(ULONGLONG, list)), ("rotations", ULONGLONG),
            ("ring_key", ULONG), ("commit_phase", OCTET))),
    (4, Row(JoinMsg, ("sender", STRING), ("ring_id_seen", ULONGLONG),
            ("delivered_aru", ULONGLONG), ("held", SortedSet(ULONGLONG)),
            ("fresh", BOOL), ("view_members", _MEMBERS),
            ("base_seen", ULONGLONG), ("candidates", _MEMBERS))),
    (5, Row(FormMsg, ("ring_id", ULONGLONG), ("leader", STRING),
            ("members", _MEMBERS), ("flush_seq", ULONGLONG),
            ("base_seq", ULONGLONG),
            ("holders", SortedMap(ULONGLONG, STRING)),
            ("fresh_members", _MEMBERS))),
    (6, Row(ProbeMsg, ("ring_id", ULONGLONG), ("sender", STRING),
            ("members", _MEMBERS))),
    (7, Row(BulkFetch, ("session_id", STRING), ("requester", STRING),
            ("first_page", ULONG), ("last_page", ULONG))),
    (8, Row(BulkPage, ("session_id", STRING), ("sender", STRING),
            ("index", ULONG), ("crc", ULONG), ("page", OCTETS))),
    (9, Row(BulkNack, ("session_id", STRING), ("sender", STRING),
            ("reason", STRING))),
    (10, Row(ReadFastRequest, ("group_id", STRING), ("conn", STRING),
             ("request_id", ULONGLONG), ("requester", STRING),
             ("ring_id", ULONGLONG), ("iiop_bytes", OCTETS))),
    (11, Row(ReadFastReply, ("group_id", STRING), ("conn", STRING),
             ("request_id", ULONGLONG), ("ring_id", ULONGLONG),
             ("iiop_bytes", OCTETS))),
    (12, Row(ReadFastNack, ("group_id", STRING), ("conn", STRING),
             ("request_id", ULONGLONG), ("reason", STRING))),
    (13, Row(HoldCancel, ("ring_id", ULONGLONG), ("sender", STRING))),
))

#: Append one encoded frame to a reusable ``bytearray`` (by exact class:
#: the transport dispatches received payloads by class).
encode_frame_payload_into = FRAMES.encode_into
#: Inverse of :func:`encode_frame_payload_into`, on bytes or a memoryview.
decode_frame_payload = FRAMES.decode
