"""Unit tests for GIOP message encoding/decoding."""

import pytest

from repro.errors import ProtocolError
from repro.giop.messages import (
    GIOP_MAGIC,
    CloseConnectionMessage,
    MessageErrorMessage,
    MsgType,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_header,
    decode_message,
    encode_message,
    peek_request_id,
)
from repro.giop.service_context import CodeSetContext, ServiceContext


def make_request(**kwargs):
    defaults = dict(request_id=7, object_key=b"\x00\x00\x04RootPoid",
                    operation="ping", args=(1, "two"))
    defaults.update(kwargs)
    return RequestMessage(**defaults)


@pytest.mark.parametrize("little", [False, True])
def test_request_roundtrip(little):
    original = make_request()
    decoded = decode_message(encode_message(original, little))
    assert decoded.request_id == 7
    assert decoded.operation == "ping"
    assert decoded.args == (1, "two")
    assert decoded.object_key == original.object_key
    assert decoded.response_expected


def test_request_with_contexts_roundtrip():
    ctx = CodeSetContext().to_service_context()
    original = make_request(service_contexts=(ctx,))
    decoded = decode_message(encode_message(original))
    assert decoded.service_contexts[0].context_id == ctx.context_id
    assert decoded.service_contexts[0].context_data == ctx.context_data


def test_oneway_request_roundtrip():
    decoded = decode_message(
        encode_message(make_request(response_expected=False))
    )
    assert decoded.oneway


def test_reply_roundtrip():
    original = ReplyMessage(request_id=7, result={"a": [1, 2]})
    decoded = decode_message(encode_message(original))
    assert decoded.request_id == 7
    assert decoded.reply_status is ReplyStatus.NO_EXCEPTION
    assert decoded.result == {"a": [1, 2]}


def test_user_exception_reply_roundtrip():
    original = ReplyMessage(request_id=9,
                            reply_status=ReplyStatus.USER_EXCEPTION,
                            exception_id="IDL:Bad:1.0",
                            result="boom")
    decoded = decode_message(encode_message(original))
    assert decoded.reply_status is ReplyStatus.USER_EXCEPTION
    assert decoded.exception_id == "IDL:Bad:1.0"
    assert decoded.result == "boom"


def test_close_connection_roundtrip():
    assert isinstance(decode_message(encode_message(CloseConnectionMessage())),
                      CloseConnectionMessage)


def test_message_error_roundtrip():
    assert isinstance(decode_message(encode_message(MessageErrorMessage())),
                      MessageErrorMessage)


def test_wire_form_starts_with_magic():
    assert encode_message(make_request())[:4] == GIOP_MAGIC


def test_header_reports_type_and_size():
    wire = encode_message(make_request())
    header = decode_header(wire)
    assert header.msg_type is MsgType.REQUEST
    assert header.size == len(wire) - 12


def test_bad_magic_rejected():
    wire = bytearray(encode_message(make_request()))
    wire[0] = ord("X")
    with pytest.raises(ProtocolError):
        decode_message(bytes(wire))


def test_short_header_rejected():
    with pytest.raises(ProtocolError):
        decode_header(b"GIOP")


def test_truncated_body_rejected():
    wire = encode_message(make_request())
    with pytest.raises(ProtocolError):
        decode_message(wire[:-4])


def test_unknown_message_type_rejected():
    wire = bytearray(encode_message(make_request()))
    wire[7] = 99
    with pytest.raises(ProtocolError):
        decode_header(bytes(wire))


def test_peek_request_id_on_request():
    assert peek_request_id(encode_message(make_request(request_id=350))) \
        == (350, True, "ping")


def test_peek_request_id_reads_oneway_flag_and_operation():
    wire = encode_message(make_request(request_id=4, operation="notify",
                                       response_expected=False))
    assert peek_request_id(wire) == (4, False, "notify")


def test_peek_request_id_on_reply():
    wire = encode_message(ReplyMessage(request_id=123, result=None))
    assert peek_request_id(wire) == (123, False, "")


def test_peek_request_id_skips_service_contexts():
    ctx = ServiceContext(0x1234, b"\x01\x02\x03")
    wire = encode_message(make_request(request_id=5, service_contexts=(ctx,)))
    assert peek_request_id(wire) == (5, True, "ping")


def test_peek_request_id_none_for_close():
    assert peek_request_id(encode_message(CloseConnectionMessage())) is None


@pytest.mark.parametrize("little", [False, True])
def test_peek_respects_endianness(little):
    wire = encode_message(make_request(request_id=0xABCD), little)
    assert peek_request_id(wire) == (0xABCD, True, "ping")
