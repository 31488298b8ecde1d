"""Property-based tests: GIOP messages and envelopes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import (
    IiopEnvelope,
    StateSet,
    TransferPurpose,
    decode_envelope,
    encode_envelope,
)
from repro.core.identifiers import ConnectionKey, OpKind
from repro.giop.messages import (
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_message,
    peek_request_id,
)

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           blacklist_characters=">-"),
    min_size=1, max_size=16,
)
args_values = st.lists(
    st.one_of(st.integers(-2**40, 2**40), st.text(max_size=20),
              st.binary(max_size=50), st.booleans(), st.none()),
    max_size=5,
)


@given(
    request_id=st.integers(0, 2**32 - 1),
    object_key=st.binary(min_size=1, max_size=40),
    operation=names,
    args=args_values,
    response_expected=st.booleans(),
    little=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_request_roundtrip(request_id, object_key, operation, args,
                           response_expected, little):
    original = RequestMessage(
        request_id=request_id, object_key=object_key, operation=operation,
        args=tuple(args), response_expected=response_expected,
    )
    wire = encode_message(original, little)
    decoded = decode_message(wire)
    assert decoded.request_id == request_id
    assert decoded.object_key == object_key
    assert decoded.operation == operation
    assert list(decoded.args) == args
    assert decoded.response_expected == response_expected
    assert peek_request_id(wire) == (request_id, response_expected,
                                     operation)


@given(
    request_id=st.integers(0, 2**32 - 1),
    status=st.sampled_from(list(ReplyStatus)[:3]),
    little=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_reply_roundtrip(request_id, status, little):
    if status is ReplyStatus.NO_EXCEPTION:
        original = ReplyMessage(request_id=request_id, result=[1, "x"])
    else:
        original = ReplyMessage(request_id=request_id, reply_status=status,
                                exception_id="IDL:E:1.0", result="detail")
    wire = encode_message(original, little)
    decoded = decode_message(wire)
    assert decoded.request_id == request_id
    assert decoded.reply_status is status
    assert peek_request_id(wire) == (request_id, False, "")


@given(
    client=names, server=names,
    kind=st.sampled_from(list(OpKind)),
    request_id=st.integers(0, 2**32 - 1),
    node=names,
    payload=st.binary(max_size=500),
)
@settings(max_examples=150, deadline=None)
def test_iiop_envelope_roundtrip(client, server, kind, request_id, node,
                                 payload):
    original = IiopEnvelope(ConnectionKey(client, server), kind, request_id,
                            node, payload)
    assert decode_envelope(encode_envelope(original)) == original


@given(
    app=st.binary(max_size=2000),
    orb=st.binary(max_size=200),
    infra=st.binary(max_size=200),
    purpose=st.sampled_from(list(TransferPurpose)),
)
@settings(max_examples=100, deadline=None)
def test_state_set_roundtrip(app, orb, infra, purpose):
    original = StateSet("g", "t", purpose, "src", "dst", app, orb, infra)
    assert decode_envelope(encode_envelope(original)) == original
