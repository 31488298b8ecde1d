"""Wire format of the durable journal (:mod:`repro.store`).

A journal is a sequence of CRC32-framed records::

    frame  := [u32 payload_length][u32 crc32(payload)][payload]
    payload:= [octet record_type][type-specific CDR body]

Three record types cover everything the recovery ladder needs:

* ``CKPT_FULL`` — a complete :class:`~repro.core.msglog.CheckpointRecord`
  (all three kinds of state);
* ``CKPT_DELTA`` — the app-state blob replaced by an encoded
  :class:`~repro.core.statedelta.StateDelta` against the *previous durable
  checkpoint* — the PR-4 page format, so delta checkpoints go to disk as
  cheaply as they go over the wire.  The ORB/POA and infrastructure blobs
  are small and always stored in full;
* ``MSG`` — one totally-ordered message (the encoded
  :class:`~repro.core.envelope.IiopEnvelope`) at its local log position.

Framing failures are classified by the reader:  an *incomplete* frame at
the physical end of the newest segment is the torn tail of a crashed
write and is truncated silently; a CRC mismatch on a complete frame, or
any short frame that is not the journal's last bytes, raises
:class:`~repro.errors.StoreCorruptError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union
from zlib import crc32

from repro.errors import StoreCorruptError
from repro.giop.cdr import (LONGLONG, MALFORMED, OCTETS, STRING, U32,
                            EnumOctet, Row, build, encode_record)

#: Bump on any layout change; readers reject unknown record types.
REC_CKPT_FULL = 1
REC_CKPT_DELTA = 2
REC_MSG = 3

#: ``[u32 payload_length][u32 crc32(payload)]``, little-endian.
FRAME_HEADER_SIZE = 8
_U32LE = U32[1]


@dataclass(frozen=True)
class CheckpointPayload:
    """A decoded checkpoint record (full or delta-encoded app state)."""

    transfer_id: str
    position: int
    app_state: bytes          # full snapshot, or encoded StateDelta
    orb_state: bytes
    infra_state: bytes
    delta: bool


@dataclass(frozen=True)
class MessagePayload:
    """A decoded message record."""

    position: int
    envelope_bytes: bytes


RecordPayload = Union[CheckpointPayload, MessagePayload]


_CHECKPOINT = build(Row(
    CheckpointPayload,
    ("delta", EnumOctet({REC_CKPT_FULL: False, REC_CKPT_DELTA: True},
                        "journal record type")),
    ("transfer_id", STRING), ("position", LONGLONG), ("app_state", OCTETS),
    ("orb_state", OCTETS), ("infra_state", OCTETS)))
#: The message record after its ``REC_MSG`` octet.
_MESSAGE = build(Row(MessagePayload, ("position", LONGLONG),
                     ("envelope_bytes", OCTETS)), 1)


def encode_checkpoint(transfer_id: str, position: int, app_state: bytes,
                      orb_state: bytes, infra_state: bytes,
                      *, delta: bool) -> bytes:
    """Encode a checkpoint record payload (``delta`` selects whether
    ``app_state`` is an encoded :class:`StateDelta` or a full snapshot)."""
    return encode_record(_CHECKPOINT, CheckpointPayload(
        transfer_id, position, app_state, orb_state, infra_state,
        bool(delta)))


def encode_message(position: int, envelope_bytes: bytes) -> bytes:
    """Encode one ordered-message record payload."""
    return encode_record(_MESSAGE, MessagePayload(position, envelope_bytes),
                         bytes((REC_MSG,)))


def decode_record(payload: bytes) -> RecordPayload:
    """Decode one framed payload; raises :class:`StoreCorruptError` on any
    malformed body or unknown record type (the frame CRC already passed,
    so this is real damage or a foreign/newer format, never a torn
    write)."""
    try:
        if payload[0] == REC_MSG:
            return _MESSAGE.decode(payload)
        return _CHECKPOINT.decode(payload)
    except MALFORMED as exc:
        raise StoreCorruptError(f"undecodable journal record: {exc}") from exc


def frame(payload: bytes) -> bytes:
    """Wrap a record payload in its length+CRC frame."""
    return _U32LE.pack(len(payload)) + _U32LE.pack(crc32(payload)) + payload


def iter_frames(blob: bytes, *,
                last_segment: bool) -> Iterator[Tuple[bytes, int]]:
    """Yield ``(payload, end_offset)`` for every complete, CRC-clean frame
    in one segment's bytes.

    ``last_segment`` selects the torn-tail rule: an incomplete frame at
    the end of the *newest* segment is silently dropped (the caller may
    truncate the file to the last yielded ``end_offset``); the same
    condition in an older segment — which was only ever appended to while
    it was the newest — is corruption.  A CRC mismatch on a complete
    frame is corruption anywhere.
    """
    offset = 0
    total = len(blob)
    while offset < total:
        header = blob[offset:offset + FRAME_HEADER_SIZE]
        if len(header) < FRAME_HEADER_SIZE:
            if last_segment:
                return        # torn header at the physical tail
            raise StoreCorruptError(
                f"short frame header at offset {offset} of a sealed segment"
            )
        length = _U32LE.unpack_from(header, 0)[0]
        tag = _U32LE.unpack_from(header, 4)[0]
        start = offset + FRAME_HEADER_SIZE
        payload = blob[start:start + length]
        if len(payload) < length:
            if last_segment:
                return        # torn payload at the physical tail
            raise StoreCorruptError(
                f"short frame payload at offset {offset} of a sealed segment"
            )
        if crc32(payload) != tag:
            raise StoreCorruptError(
                f"frame CRC mismatch at offset {offset}"
            )
        offset = start + length
        yield payload, offset


def scan_segment(blob: bytes, *,
                 last_segment: bool) -> Tuple[list, Optional[int]]:
    """Decode a whole segment.

    Returns ``(payloads, truncate_to)`` where ``truncate_to`` is the byte
    length the caller should truncate the file to (``None`` when the
    segment ends on a clean frame boundary)."""
    payloads = []
    end = 0
    for payload, offset in iter_frames(blob, last_segment=last_segment):
        payloads.append(decode_record(payload))
        end = offset
    return payloads, (end if end != len(blob) else None)
