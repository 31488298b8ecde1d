"""GIOP message encoding and decoding.

Every message is a 12-byte GIOP header (magic, version, flags, type, body
size) followed by a CDR body.  We implement the message types Eternal's
interceptor must understand: Request, Reply, CloseConnection, and
MessageError.  Request and reply bodies carry arguments/results as
TypeCode-lite ``any`` values, which keeps the stack self-describing without
compiled IDL stubs.

The codec is straight-line: one encoder and one decoder per message type,
reading and writing at offsets with prebuilt ``struct`` objects (the
offset-based primitives of :mod:`repro.giop.cdr`) — no stream object,
header object or enum construction per message.  Alignment inside the
body is relative to the body's start, as GIOP 1.2 requires.  The property
suite holds it to a reference written on the CDR streams
(``tests/properties/giop_oracle.py``): identical bytes, and each side
decodes the other's.

:func:`peek_request_id` parses only the header of a raw message — as far
as the ``request_id`` and, for a Request, the ``response_expected`` flag
and the operation name.  This is the paper's §4.2.1 technique: "by parsing
every outgoing IIOP request message sent by a client-side ORB, Eternal can
discover, and store, the ORB's current setting for the request_id"; the
interceptor reads every request and reply it captures this way instead of
decoding the whole message.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.giop.cdr import (U32, r_octets, r_string, r_ulong, w_octets,
                            w_string, w_ulong)
from repro.giop.service_context import (
    read_service_contexts,
    write_service_contexts,
)
from repro.giop.types import read_any_value, write_any

GIOP_MAGIC = b"GIOP"
GIOP_VERSION = (1, 2)
_HEADER_LEN = 12


class MsgType(enum.IntEnum):
    """GIOP message types (OMG CORBA spec, GIOP header octet 7)."""

    REQUEST = 0
    REPLY = 1
    CANCEL_REQUEST = 2
    LOCATE_REQUEST = 3
    LOCATE_REPLY = 4
    CLOSE_CONNECTION = 5
    MESSAGE_ERROR = 6
    FRAGMENT = 7


class ReplyStatus(enum.IntEnum):
    """GIOP reply status: normal result, user/system exception, forward."""

    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


@dataclass(frozen=True)
class GiopHeader:
    msg_type: MsgType
    size: int
    little_endian: bool = False
    version: tuple = GIOP_VERSION


@dataclass(frozen=True)
class RequestMessage:
    """A GIOP Request: the client's invocation of ``operation`` on the
    object identified by ``object_key`` over one connection."""

    request_id: int
    object_key: bytes
    operation: str
    args: tuple = ()
    response_expected: bool = True
    service_contexts: tuple = ()

    @property
    def oneway(self) -> bool:
        return not self.response_expected


@dataclass(frozen=True)
class ReplyMessage:
    """A GIOP Reply matching the Request with the same ``request_id``."""

    request_id: int
    reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION
    result: object = None
    exception_id: str = ""
    service_contexts: tuple = ()


@dataclass(frozen=True)
class CloseConnectionMessage:
    """Server-initiated orderly connection shutdown."""


@dataclass(frozen=True)
class MessageErrorMessage:
    """Sent when a peer receives an uninterpretable message."""


GiopMessage = Union[RequestMessage, ReplyMessage,
                    CloseConnectionMessage, MessageErrorMessage]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
#
# Each body encoder appends to a fresh bytearray (so CDR alignment is
# relative to the body) in byte order ``le`` (0 big, 1 little).

#: magic, major, minor, flags (bit 0 = little-endian), type, body size.
_HEADER = (struct.Struct(">4sBBBBI"), struct.Struct("<4sBBBBI"))


def _encode_request(buf: bytearray, message: RequestMessage, le: int) -> None:
    write_service_contexts(buf, message.service_contexts, le)
    w_ulong(buf, message.request_id, le)
    buf.append(1 if message.response_expected else 0)
    w_octets(buf, message.object_key, le)
    w_string(buf, message.operation, le)
    w_ulong(buf, len(message.args), le)
    for arg in message.args:
        write_any(buf, arg, le)


def _encode_reply(buf: bytearray, message: ReplyMessage, le: int) -> None:
    write_service_contexts(buf, message.service_contexts, le)
    w_ulong(buf, message.request_id, le)
    w_ulong(buf, message.reply_status, le)
    if message.reply_status is not ReplyStatus.NO_EXCEPTION:
        w_string(buf, message.exception_id, le)
    write_any(buf, message.result, le)


def _encode_empty(buf: bytearray, message, le: int) -> None:
    pass


#: Exact message class -> (GIOP type, body encoder).
_ENCODERS = {
    RequestMessage: (MsgType.REQUEST, _encode_request),
    ReplyMessage: (MsgType.REPLY, _encode_reply),
    CloseConnectionMessage: (MsgType.CLOSE_CONNECTION, _encode_empty),
    MessageErrorMessage: (MsgType.MESSAGE_ERROR, _encode_empty),
}


def encode_message(message: GiopMessage, little_endian: bool = False) -> bytes:
    """Serialize a GIOP message to its full wire form (header + body)."""
    entry = _ENCODERS.get(type(message))
    if entry is None:
        raise ProtocolError(f"cannot encode {type(message).__name__}")
    msg_type, encode = entry
    le = 1 if little_endian else 0
    body = bytearray()
    try:
        encode(body, message, le)
        header = _HEADER[le].pack(GIOP_MAGIC, GIOP_VERSION[0],
                                  GIOP_VERSION[1], le, msg_type, len(body))
    except struct.error as exc:
        raise MarshalError(
            f"unencodable {type(message).__name__} field: {exc}") from exc
    return header + body


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

#: Raw reply status -> member (an index, not an enum construction).
_REPLY_STATUSES = tuple(ReplyStatus)


def _header(data) -> Tuple[int, int, int]:
    """Check the 12-byte GIOP header; returns ``(type, le, body size)``."""
    if len(data) < _HEADER_LEN:
        raise ProtocolError(f"short GIOP header: {len(data)} bytes")
    if data[:4] != GIOP_MAGIC:
        raise ProtocolError(f"bad GIOP magic {bytes(data[:4])!r}")
    msg_type = data[7]
    if msg_type > MsgType.FRAGMENT:
        raise ProtocolError(f"unknown GIOP message type {msg_type}")
    le = data[6] & 1
    return msg_type, le, U32[le].unpack_from(data, 8)[0]


def decode_header(data: bytes) -> GiopHeader:
    """Parse the 12-byte GIOP header (magic, version, flags, type, size)."""
    msg_type, le, size = _header(data)
    return GiopHeader(MsgType(msg_type), size, bool(le), (data[4], data[5]))


def _decode_request(body, le: int) -> RequestMessage:
    contexts, pos = read_service_contexts(body, 0, le)
    request_id, pos = r_ulong(body, pos, le)
    response_expected = body[pos] != 0
    object_key, pos = r_octets(body, pos + 1, le)
    operation, pos = r_string(body, pos, le)
    count, pos = r_ulong(body, pos, le)
    if count > 1_000_000:
        raise UnmarshalError(f"implausible argument count {count}")
    args = []
    for _ in range(count):
        arg, pos = read_any_value(body, pos, le)
        args.append(arg)
    return RequestMessage(request_id, object_key, operation, tuple(args),
                          response_expected, contexts)


def _decode_reply(body, le: int) -> ReplyMessage:
    contexts, pos = read_service_contexts(body, 0, le)
    request_id, pos = r_ulong(body, pos, le)
    raw_status, pos = r_ulong(body, pos, le)
    if raw_status >= len(_REPLY_STATUSES):
        raise ProtocolError(f"unknown reply status {raw_status}")
    status = _REPLY_STATUSES[raw_status]
    exception_id = ""
    if status is not ReplyStatus.NO_EXCEPTION:
        exception_id, pos = r_string(body, pos, le)
    result, pos = read_any_value(body, pos, le)
    return ReplyMessage(request_id, status, result, exception_id, contexts)


def _decode_close(body, le: int) -> CloseConnectionMessage:
    return CloseConnectionMessage()


def _decode_message_error(body, le: int) -> MessageErrorMessage:
    return MessageErrorMessage()


#: GIOP type -> body decoder.
_DECODERS = {
    MsgType.REQUEST: _decode_request,
    MsgType.REPLY: _decode_reply,
    MsgType.CLOSE_CONNECTION: _decode_close,
    MsgType.MESSAGE_ERROR: _decode_message_error,
}


def decode_message(data: bytes) -> GiopMessage:
    """Parse a full GIOP message from its wire form."""
    msg_type, le, size = _header(data)
    if len(data) - _HEADER_LEN != size:
        raise ProtocolError(
            f"GIOP body size mismatch: header says {size}, "
            f"got {len(data) - _HEADER_LEN}"
        )
    decode = _DECODERS.get(msg_type)
    if decode is None:
        raise ProtocolError(
            f"unsupported GIOP message type {MsgType(msg_type)!r}")
    try:
        return decode(data[_HEADER_LEN:], le)
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(f"truncated GIOP body: {exc}") from exc


#: Message types whose body opens with a service-context list before the
#: request_id (the others with a request_id start with it).
_CONTEXTS_FIRST = (MsgType.REQUEST, MsgType.REPLY)
_HAS_REQUEST_ID = (MsgType.REQUEST, MsgType.REPLY, MsgType.CANCEL_REQUEST,
                   MsgType.LOCATE_REQUEST, MsgType.LOCATE_REPLY)


def peek_request_id(data: bytes) -> Optional[Tuple[int, bool, str]]:
    """Read a raw message's header fields without decoding its body.

    Returns ``(request_id, response_expected, operation)`` for a Request,
    ``(request_id, False, "")`` for the other message types that carry a
    request_id, and None for those that carry none.  This is the
    interceptor's view of every message it captures: it tracks each
    connection's ``request_id`` counter from outside the ORB (paper
    §4.2.1) and routes requests by operation, and it never needs the
    arguments.  The body starts at a multiple of 4 and the peek reads no
    8-byte field, so it reads ``data`` in place (CDR alignment relative
    to the message is then the same as relative to the body).
    """
    msg_type, le, _ = _header(data)
    if msg_type not in _HAS_REQUEST_ID:
        return None
    try:
        pos = _HEADER_LEN
        if msg_type in _CONTEXTS_FIRST:
            count, pos = r_ulong(data, pos, le)
            for _ in range(count):
                _, pos = r_ulong(data, pos, le)        # context_id
                _, pos = r_octets(data, pos, le)       # context_data
        request_id, pos = r_ulong(data, pos, le)
        if msg_type != MsgType.REQUEST:
            return request_id, False, ""
        response_expected = data[pos] != 0
        _, pos = r_octets(data, pos + 1, le)           # object_key
        operation, _ = r_string(data, pos, le)
        return request_id, response_expected, operation
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(f"truncated GIOP header fields: {exc}") from exc
