"""Reference CDR codecs for GIOP messages, ``any`` values and multicast
envelopes: the property-test oracle.

Field-by-field encoders and decoders written on the general CDR streams
of ``cdr_oracle.py`` (:class:`CdrOutputStream` / :class:`CdrInputStream`)
rather than on the codec kit's primitives and record builder.  The
production codecs in :mod:`repro.giop.messages`, :mod:`repro.giop.types` and
:mod:`repro.core.envelope` must produce exactly these bytes, and each
side must decode the other's (``test_giop_oracle_properties.py``) — which
pins the wire layout to CDR without the production code sharing a line
with its reference.
"""

from repro.core.envelope import (
    ColdSeed,
    GroupUpdate,
    IiopEnvelope,
    NodeRestarted,
    ReplicaFault,
    ReplicaJoin,
    StateGet,
    StateSet,
    TransferPurpose,
)
from repro.core.identifiers import ConnectionKey, OpKind
from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.giop.messages import (
    GIOP_MAGIC,
    GIOP_VERSION,
    CloseConnectionMessage,
    MessageErrorMessage,
    MsgType,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
)
from repro.giop.service_context import ServiceContext
from repro.giop.types import Any, TCKind, TypeCode, from_any, to_any
from tests.properties.cdr_oracle import CdrInputStream, CdrOutputStream

# ---------------------------------------------------------------------------
# any
# ---------------------------------------------------------------------------


def write_typecode(out, tc):
    out.write_ulong(int(tc.kind))
    if tc.kind is TCKind.SEQUENCE:
        write_typecode(out, tc.element)
    elif tc.kind is TCKind.STRUCT:
        out.write_string(tc.name)
        out.write_ulong(len(tc.fields))
        for field_name, field_tc in tc.fields:
            out.write_string(field_name)
            write_typecode(out, field_tc)


def read_typecode(inp):
    raw_kind = inp.read_ulong()
    try:
        kind = TCKind(raw_kind)
    except ValueError as exc:
        raise UnmarshalError(f"unknown TCKind {raw_kind}") from exc
    if kind is TCKind.SEQUENCE:
        return TypeCode(kind, element=read_typecode(inp))
    if kind is TCKind.STRUCT:
        name = inp.read_string()
        count = inp.read_ulong()
        fields = tuple(
            (inp.read_string(), read_typecode(inp)) for _ in range(count))
        return TypeCode(kind, name=name, fields=fields)
    return TypeCode(kind)


def _write_value(out, tc, value):
    kind = tc.kind
    if kind is TCKind.NULL:
        return
    if kind is TCKind.BOOLEAN:
        out.write_boolean(bool(value))
    elif kind is TCKind.OCTET:
        out.write_octet(int(value))
    elif kind is TCKind.LONG:
        out.write_long(int(value))
    elif kind is TCKind.LONGLONG:
        out.write_longlong(int(value))
    elif kind is TCKind.DOUBLE:
        out.write_double(float(value))
    elif kind is TCKind.STRING:
        out.write_string(value)
    elif kind is TCKind.OCTETS:
        out.write_octets(value)
    elif kind is TCKind.SEQUENCE:
        out.write_ulong(len(value))
        for item in value:
            if tc.element.kind is TCKind.ANY:
                write_any(out, to_any(item))
            else:
                _write_value(out, tc.element, item)
    elif kind is TCKind.MAP:
        out.write_ulong(len(value))
        for key, item in value.items():
            write_any(out, to_any(key))
            write_any(out, to_any(item))
    elif kind is TCKind.STRUCT:
        for field_name, field_tc in tc.fields:
            try:
                field_value = value[field_name]
            except KeyError as exc:
                raise MarshalError(
                    f"struct {tc.name!r} missing field {field_name!r}"
                ) from exc
            if isinstance(field_value, Any):
                _write_value(out, field_value.typecode, field_value.value)
            else:
                _write_value(out, field_tc, field_value)
    elif kind is TCKind.ANY:
        write_any(out, to_any(value))


def _read_value(inp, tc):
    kind = tc.kind
    if kind is TCKind.NULL:
        return None
    if kind is TCKind.BOOLEAN:
        return inp.read_boolean()
    if kind is TCKind.OCTET:
        return inp.read_octet()
    if kind is TCKind.LONG:
        return inp.read_long()
    if kind is TCKind.LONGLONG:
        return inp.read_longlong()
    if kind is TCKind.DOUBLE:
        return inp.read_double()
    if kind is TCKind.STRING:
        return inp.read_string()
    if kind is TCKind.OCTETS:
        return inp.read_octets()
    if kind is TCKind.SEQUENCE:
        count = inp.read_ulong()
        if tc.element.kind is TCKind.ANY:
            return [from_any(read_any(inp)) for _ in range(count)]
        return [_read_value(inp, tc.element) for _ in range(count)]
    if kind is TCKind.MAP:
        result = {}
        for _ in range(inp.read_ulong()):
            key = from_any(read_any(inp))
            result[key] = from_any(read_any(inp))
        return result
    if kind is TCKind.STRUCT:
        return {field_name: _read_value(inp, field_tc)
                for field_name, field_tc in tc.fields}
    return from_any(read_any(inp))      # TCKind.ANY


def write_any(out, any_value):
    write_typecode(out, any_value.typecode)
    _write_value(out, any_value.typecode, any_value.value)


def read_any(inp):
    tc = read_typecode(inp)
    return Any(tc, _read_value(inp, tc))


def oracle_encode_any(any_value, little_endian=False):
    out = CdrOutputStream(little_endian)
    out.write_boolean(little_endian)
    write_any(out, any_value)
    return out.getvalue()


def oracle_decode_any(data):
    little = CdrInputStream(data).read_boolean()
    inp = CdrInputStream(data, little_endian=little)
    inp.read_boolean()
    return read_any(inp)


# ---------------------------------------------------------------------------
# GIOP messages
# ---------------------------------------------------------------------------


def _write_contexts(out, contexts):
    out.write_ulong(len(contexts))
    for ctx in contexts:
        out.write_ulong(ctx.context_id)
        out.write_octets(ctx.context_data)


def _read_contexts(inp):
    return tuple(ServiceContext(inp.read_ulong(), inp.read_octets())
                 for _ in range(inp.read_ulong()))


def oracle_encode_message(message, little_endian=False):
    body = CdrOutputStream(little_endian)
    if isinstance(message, RequestMessage):
        msg_type = MsgType.REQUEST
        _write_contexts(body, message.service_contexts)
        body.write_ulong(message.request_id)
        body.write_boolean(message.response_expected)
        body.write_octets(message.object_key)
        body.write_string(message.operation)
        body.write_ulong(len(message.args))
        for arg in message.args:
            write_any(body, to_any(arg))
    elif isinstance(message, ReplyMessage):
        msg_type = MsgType.REPLY
        _write_contexts(body, message.service_contexts)
        body.write_ulong(message.request_id)
        body.write_ulong(int(message.reply_status))
        if message.reply_status is not ReplyStatus.NO_EXCEPTION:
            body.write_string(message.exception_id)
        write_any(body, to_any(message.result))
    elif isinstance(message, CloseConnectionMessage):
        msg_type = MsgType.CLOSE_CONNECTION
    elif isinstance(message, MessageErrorMessage):
        msg_type = MsgType.MESSAGE_ERROR
    else:
        raise ProtocolError(f"cannot encode {type(message).__name__}")
    header = CdrOutputStream(little_endian)
    header.write_raw(GIOP_MAGIC)
    header.write_octet(GIOP_VERSION[0])
    header.write_octet(GIOP_VERSION[1])
    header.write_octet(1 if little_endian else 0)
    header.write_octet(int(msg_type))
    header.write_ulong(len(body))
    return header.getvalue() + body.getvalue()


def oracle_decode_message(data):
    if data[:4] != GIOP_MAGIC:
        raise ProtocolError(f"bad GIOP magic {data[:4]!r}")
    little = bool(data[6] & 1)
    msg_type = MsgType(data[7])
    size = CdrInputStream(data[8:12], little_endian=little).read_ulong()
    if len(data) - 12 != size:
        raise ProtocolError("GIOP body size mismatch")
    body = CdrInputStream(data[12:], little_endian=little)
    if msg_type is MsgType.REQUEST:
        contexts = _read_contexts(body)
        request_id = body.read_ulong()
        response_expected = body.read_boolean()
        object_key = body.read_octets()
        operation = body.read_string()
        args = tuple(from_any(read_any(body))
                     for _ in range(body.read_ulong()))
        return RequestMessage(request_id, object_key, operation, args,
                              response_expected, contexts)
    if msg_type is MsgType.REPLY:
        contexts = _read_contexts(body)
        request_id = body.read_ulong()
        status = ReplyStatus(body.read_ulong())
        exception_id = ""
        if status is not ReplyStatus.NO_EXCEPTION:
            exception_id = body.read_string()
        result = from_any(read_any(body))
        return ReplyMessage(request_id, status, result, exception_id,
                            contexts)
    if msg_type is MsgType.CLOSE_CONNECTION:
        return CloseConnectionMessage()
    if msg_type is MsgType.MESSAGE_ERROR:
        return MessageErrorMessage()
    raise ProtocolError(f"unsupported GIOP message type {msg_type!r}")


def oracle_peek(data):
    """The ``(request_id, response_expected, operation)`` header peek by
    way of a full reference decode."""
    message = oracle_decode_message(data)
    if isinstance(message, RequestMessage):
        return (message.request_id, message.response_expected,
                message.operation)
    if isinstance(message, ReplyMessage):
        return (message.request_id, False, "")
    return None


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

TAG_IIOP = 1
TAG_GROUP_UPDATE = 2
TAG_REPLICA_JOIN = 5
TAG_STATE_GET = 6
TAG_STATE_SET = 7
TAG_REPLICA_FAULT = 8
TAG_NODE_RESTARTED = 9
TAG_COLD_SEED = 10


def oracle_encode_envelope(envelope):
    out = CdrOutputStream()
    if isinstance(envelope, IiopEnvelope):
        out.write_octet(TAG_IIOP)
        out.write_string(envelope.connection.client_group)
        out.write_string(envelope.connection.server_group)
        out.write_octet(envelope.kind.value)
        out.write_ulong(envelope.request_id)
        out.write_string(envelope.sender_node)
        out.write_octets(envelope.iiop_bytes)
    elif isinstance(envelope, GroupUpdate):
        out.write_octet(TAG_GROUP_UPDATE)
        out.write_string(envelope.group_id)
        out.write_string(envelope.type_id)
        out.write_string(envelope.style)
        out.write_double(envelope.checkpoint_interval)
        out.write_ulong(envelope.app_version)
        out.write_ulong(len(envelope.members))
        for node_id, role, operational in envelope.members:
            out.write_string(node_id)
            out.write_string(role)
            out.write_boolean(operational)
        out.write_string(envelope.action)
        out.write_string(envelope.subject_node)
        out.write_double(envelope.fault_monitoring_interval)
        out.write_ulong(envelope.max_log_messages)
    elif isinstance(envelope, ReplicaJoin):
        out.write_octet(TAG_REPLICA_JOIN)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.transfer_id)
        out.write_octets(envelope.base_digest.encode("ascii"))
        out.write_boolean(envelope.bulk_ok)
        out.write_longlong(envelope.store_position)
    elif isinstance(envelope, StateGet):
        out.write_octet(TAG_STATE_GET)
        out.write_string(envelope.group_id)
        out.write_string(envelope.transfer_id)
        out.write_octet(envelope.purpose.value)
        out.write_string(envelope.initiator)
        out.write_string(envelope.target_node)
        out.write_octets(envelope.base_digest.encode("ascii"))
        out.write_boolean(envelope.bulk_ok)
    elif isinstance(envelope, StateSet):
        out.write_octet(TAG_STATE_SET)
        out.write_string(envelope.group_id)
        out.write_string(envelope.transfer_id)
        out.write_octet(envelope.purpose.value)
        out.write_string(envelope.source_node)
        out.write_string(envelope.target_node)
        out.write_octet(2 if envelope.app_manifest
                        else 1 if envelope.app_delta else 0)
        out.write_octets(envelope.app_state)
        out.write_octets(envelope.orb_state)
        out.write_octets(envelope.infra_state)
    elif isinstance(envelope, ReplicaFault):
        out.write_octet(TAG_REPLICA_FAULT)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.reason)
    elif isinstance(envelope, NodeRestarted):
        out.write_octet(TAG_NODE_RESTARTED)
        out.write_string(envelope.node_id)
        out.write_ulong(envelope.incarnation)
    elif isinstance(envelope, ColdSeed):
        out.write_octet(TAG_COLD_SEED)
        out.write_string(envelope.group_id)
        out.write_string(envelope.node_id)
        out.write_string(envelope.transfer_id)
        out.write_longlong(envelope.store_position)
    else:
        raise ProtocolError(f"cannot encode {type(envelope).__name__}")
    return out.getvalue()


def oracle_decode_envelope(data):
    inp = CdrInputStream(data)
    tag = inp.read_octet()
    if tag == TAG_IIOP:
        connection = ConnectionKey(inp.read_string(), inp.read_string())
        return IiopEnvelope(connection, OpKind(inp.read_octet()),
                            inp.read_ulong(), inp.read_string(),
                            inp.read_octets())
    if tag == TAG_GROUP_UPDATE:
        group_id = inp.read_string()
        type_id = inp.read_string()
        style = inp.read_string()
        checkpoint_interval = inp.read_double()
        app_version = inp.read_ulong()
        members = tuple(
            (inp.read_string(), inp.read_string(), inp.read_boolean())
            for _ in range(inp.read_ulong()))
        return GroupUpdate(group_id, type_id, style, checkpoint_interval,
                           app_version, members, inp.read_string(),
                           inp.read_string(), inp.read_double(),
                           inp.read_ulong())
    if tag == TAG_REPLICA_JOIN:
        return ReplicaJoin(inp.read_string(), inp.read_string(),
                           inp.read_string(), str(inp.read_octets(), "ascii"),
                           inp.read_boolean(), inp.read_longlong())
    if tag == TAG_STATE_GET:
        return StateGet(inp.read_string(), inp.read_string(),
                        TransferPurpose(inp.read_octet()), inp.read_string(),
                        inp.read_string(), str(inp.read_octets(), "ascii"),
                        inp.read_boolean())
    if tag == TAG_STATE_SET:
        group_id = inp.read_string()
        transfer_id = inp.read_string()
        purpose = TransferPurpose(inp.read_octet())
        source_node = inp.read_string()
        target_node = inp.read_string()
        body_kind = inp.read_octet()
        return StateSet(group_id, transfer_id, purpose, source_node,
                        target_node, inp.read_octets(), inp.read_octets(),
                        inp.read_octets(), app_delta=body_kind == 1,
                        app_manifest=body_kind == 2)
    if tag == TAG_REPLICA_FAULT:
        return ReplicaFault(inp.read_string(), inp.read_string(),
                            inp.read_string())
    if tag == TAG_NODE_RESTARTED:
        return NodeRestarted(inp.read_string(), inp.read_ulong())
    if tag == TAG_COLD_SEED:
        return ColdSeed(inp.read_string(), inp.read_string(),
                        inp.read_string(), inp.read_longlong())
    raise ProtocolError(f"unknown envelope tag {tag}")
