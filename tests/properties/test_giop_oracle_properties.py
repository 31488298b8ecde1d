"""Property tests: the straight-line GIOP, ``any`` and envelope codecs
against their CDR-stream reference (:mod:`tests.properties.giop_oracle`).

For every message, value and envelope drawn: the codec's bytes equal the
reference's (so the wire — and every simulated figure charged on it — is
unchanged), the codec decodes the reference's bytes, and the reference
decodes the codec's.  Decoding a ``memoryview`` gives the same result as
decoding ``bytes``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
    decode_envelope,
    encode_envelope,
)
from repro.core.identifiers import ConnectionKey, OpKind
from repro.giop.messages import (
    CloseConnectionMessage,
    MessageErrorMessage,
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_message,
    peek_request_id,
)
from repro.giop.service_context import (
    CodeSetContext,
    ServiceContext,
    VendorHandshakeContext,
)
from repro.giop.types import (
    TC_LONG,
    TC_OCTET,
    Any,
    TCKind,
    TypeCode,
    decode_any,
    encode_any,
    struct_any,
    to_any,
)
from tests.properties.giop_oracle import (
    oracle_decode_any,
    oracle_decode_envelope,
    oracle_decode_message,
    oracle_encode_any,
    oracle_encode_envelope,
    oracle_encode_message,
    oracle_peek,
)

names = st.text(min_size=1, max_size=12)
ulongs = st.integers(0, 2 ** 32 - 1)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 63, 2 ** 63 - 1),
    st.floats(allow_nan=False), st.text(max_size=20),
    st.binary(max_size=40))
plain_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=8),
                                  st.integers(-1000, 1000)),
                        inner, max_size=4)),
    max_leaves=12)
# Explicit TypeCodes the Python-type inference never produces.
typed_values = st.one_of(
    st.builds(lambda v: Any(TC_LONG, v), st.integers(-2 ** 31, 2 ** 31 - 1)),
    st.builds(lambda v: Any(TC_OCTET, v), st.integers(0, 255)),
    st.builds(lambda v: Any(TypeCode(TCKind.SEQUENCE, element=TC_LONG), v),
              st.lists(st.integers(-2 ** 31, 2 ** 31 - 1), max_size=5)),
    st.builds(lambda owner, balance, tags: struct_any(
        "Account", owner=owner, balance=balance, tags=tags,
        limit=Any(TC_LONG, 7)),
        st.text(max_size=8), st.integers(-2 ** 40, 2 ** 40),
        st.lists(st.text(max_size=4), max_size=3)),
    st.builds(lambda v: Any(TypeCode(TCKind.ANY), v), plain_values),
)
any_values = st.one_of(plain_values, typed_values)

contexts = st.lists(
    st.one_of(
        st.builds(ServiceContext, ulongs, st.binary(max_size=12)),
        st.just(CodeSetContext().to_service_context()),
        st.builds(lambda key: VendorHandshakeContext(
            propose=True, object_key=key).to_service_context(),
            st.binary(max_size=16))),
    max_size=3).map(tuple)

requests = st.builds(
    RequestMessage,
    request_id=ulongs, object_key=st.binary(max_size=24), operation=names,
    args=st.lists(any_values, max_size=4).map(tuple),
    response_expected=st.booleans(), service_contexts=contexts)


@st.composite
def replies(draw):
    status = draw(st.sampled_from(list(ReplyStatus)))
    return ReplyMessage(
        request_id=draw(ulongs), reply_status=status,
        result=draw(any_values),
        exception_id=("" if status is ReplyStatus.NO_EXCEPTION
                      else draw(names)),
        service_contexts=draw(contexts))


messages = st.one_of(requests, replies(),
                     st.just(CloseConnectionMessage()),
                     st.just(MessageErrorMessage()))

connections = st.builds(ConnectionKey, names, names)
purposes = st.sampled_from(list(TransferPurpose))
digests = st.text(alphabet="0123456789abcdef", max_size=16)
envelopes = st.one_of(
    st.builds(IiopEnvelope, connections, st.sampled_from(list(OpKind)),
              ulongs, names, st.binary(max_size=200)),
    st.builds(GroupUpdate, names, names, names, st.floats(allow_nan=False),
              ulongs, st.lists(st.tuples(names, names, st.booleans()),
                               max_size=4).map(tuple),
              names, st.text(max_size=8), st.floats(allow_nan=False),
              ulongs),
    st.builds(ReplicaJoin, names, names, names, digests, st.booleans(),
              st.integers(-1, 2 ** 40)),
    st.builds(StateGet, names, names, purposes, names, st.text(max_size=8),
              digests, st.booleans()),
    st.builds(StateSet, names, names, purposes, names, names,
              st.binary(max_size=300), st.binary(max_size=60),
              st.binary(max_size=60), app_delta=st.booleans()),
    st.builds(StateSet, names, names, purposes, names, names,
              st.binary(max_size=60), st.binary(max_size=20),
              st.binary(max_size=20), app_manifest=st.just(True)),
    st.builds(ReplicaFault, names, names, names),
    st.builds(NodeRestarted, names, ulongs),
    st.builds(ColdSeed, names, names, names, st.integers(0, 2 ** 40)),
)


@given(value=any_values, little=st.booleans())
@settings(max_examples=300, deadline=None)
def test_any_codec_matches_the_reference(value, little):
    wire = encode_any(to_any(value), little)
    assert wire == oracle_encode_any(to_any(value), little)
    assert decode_any(wire) == oracle_decode_any(wire)
    assert decode_any(memoryview(wire)).value == decode_any(wire).value


@given(message=messages, little=st.booleans())
@settings(max_examples=300, deadline=None)
def test_giop_codec_matches_the_reference(message, little):
    wire = encode_message(message, little)
    assert wire == oracle_encode_message(message, little)
    decoded = decode_message(wire)
    assert decoded == oracle_decode_message(wire)
    assert decode_message(memoryview(wire)) == decoded
    assert peek_request_id(wire) == oracle_peek(wire)


@given(envelope=envelopes)
@settings(max_examples=300, deadline=None)
def test_envelope_codec_matches_the_reference(envelope):
    wire = encode_envelope(envelope)
    assert wire == oracle_encode_envelope(envelope)
    assert decode_envelope(wire) == envelope
    assert oracle_decode_envelope(wire) == envelope
    assert decode_envelope(memoryview(wire)) == envelope
