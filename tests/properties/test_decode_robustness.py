"""Property-based robustness: decoders never crash on hostile bytes.

Every wire decoder must either return a valid object or raise an exception
from this library's hierarchy (:class:`repro.errors.ReproError`) — never
an uncontrolled ``struct.error`` / ``IndexError`` / ``MemoryError`` from
attacker-controlled lengths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bulk import build_manifest, decode_manifest, encode_manifest
from repro.core.envelope import decode_envelope, encode_envelope, IiopEnvelope
from repro.core.identifiers import ConnectionKey, OpKind
from repro.core.statedelta import compute_delta, decode_delta, encode_delta
from repro.errors import ReproError, StateTransferError, StoreCorruptError
from repro.giop.ior import IOR
from repro.giop.messages import (
    RequestMessage,
    decode_message,
    encode_message,
    peek_request_id,
)
from repro.giop.service_context import (CodeSetContext, ServiceContext,
                                        VendorHandshakeContext)
from repro.giop.types import decode_any
from repro.store import records


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_decode_message_contained(data):
    try:
        decode_message(data)
    except ReproError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_peek_request_id_contained(data):
    try:
        peek_request_id(data)
    except ReproError:
        pass


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_decode_envelope_contained(data):
    try:
        decode_envelope(data)
    except ReproError:
        pass


@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_decode_any_contained(data):
    try:
        decode_any(data)
    except ReproError:
        pass


@given(st.text(max_size=120))
@settings(max_examples=200, deadline=None)
def test_ior_from_string_contained(text):
    try:
        IOR.from_string(text)
    except ReproError:
        pass


_VALID_WIRE = encode_message(RequestMessage(
    request_id=7, object_key=b"\x00\x00\x01Pk", operation="op",
    args=(1, "two", b"3"),
))
_VALID_ENVELOPE = encode_envelope(IiopEnvelope(
    ConnectionKey("c", "s"), OpKind.REQUEST, 7, "n", _VALID_WIRE,
))


@given(st.integers(0, len(_VALID_WIRE) - 1), st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_mutated_giop_contained(position, value):
    """Single-byte corruption of a valid message: decode either still
    succeeds (the byte was slack) or raises a library error."""
    mutated = bytearray(_VALID_WIRE)
    mutated[position] = value
    try:
        decode_message(bytes(mutated))
    except ReproError:
        pass


@given(st.integers(0, len(_VALID_ENVELOPE) - 1), st.integers(0, 255))
@settings(max_examples=300, deadline=None)
def test_mutated_envelope_contained(position, value):
    mutated = bytearray(_VALID_ENVELOPE)
    mutated[position] = value
    try:
        decode_envelope(bytes(mutated))
    except ReproError:
        pass


@given(st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_truncated_giop_contained(cut):
    data = _VALID_WIRE[:max(0, len(_VALID_WIRE) - cut)]
    with pytest.raises(ReproError):
        decode_message(data)


# ---------------------------------------------------------------------------
# The formats no oracle checks: journal records, delta and manifest bodies,
# the IOR and the service contexts.  Each decoder raises only its own
# error, on hostile bytes and on every truncation of a valid encoding.
# ---------------------------------------------------------------------------

_BASE = bytes(range(256)) * 8
_NEW = _BASE[:700] + b"\xff" * 40 + _BASE[740:] + b"tail"


def _ior_from_bytes(data):
    return IOR.from_string("IOR:" + data.hex())


def _code_sets(data):
    return CodeSetContext.from_service_context(
        ServiceContext(CodeSetContext().to_service_context().context_id,
                       data))


def _vendor_handshake(data):
    return VendorHandshakeContext.from_service_context(
        ServiceContext(VendorHandshakeContext(True).to_service_context()
                       .context_id, data))


#: (decoder, the one error it may raise, valid encodings).
_RECORD_DECODERS = {
    "journal record": (records.decode_record, StoreCorruptError, [
        records.encode_checkpoint("t-1", 42, b"app" * 20, b"orb", b"infra",
                                  delta=False),
        records.encode_checkpoint("t-2", 43, b"\x01delta", b"", b"if",
                                  delta=True),
        records.encode_message(7, b"\x01envelope"),
    ]),
    "delta body": (decode_delta, StateTransferError, [
        encode_delta(compute_delta(_BASE, _NEW, page_size=256)),
    ]),
    "manifest body": (decode_manifest, StateTransferError, [
        encode_manifest(build_manifest(_NEW, page_size=256)),
    ]),
    "IOR": (_ior_from_bytes, ReproError, [
        bytes.fromhex(IOR("IDL:Store:1.0", "node-1", 2809, b"\x00key")
                      .stringify()[4:]),
    ]),
    "code-set context": (_code_sets, ReproError, [
        CodeSetContext().to_service_context().context_data,
    ]),
    "vendor handshake context": (_vendor_handshake, ReproError, [
        VendorHandshakeContext(True, b"\x00key", 9).to_service_context()
        .context_data,
    ]),
}


@pytest.mark.parametrize("name", sorted(_RECORD_DECODERS))
@given(data=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_record_decoders_raise_only_their_error_on_hostile_bytes(name, data):
    decode, error, _ = _RECORD_DECODERS[name]
    try:
        decode(data)
    except error:
        pass


@pytest.mark.parametrize("name", sorted(_RECORD_DECODERS))
def test_record_decoders_reject_every_truncation(name):
    decode, error, valid = _RECORD_DECODERS[name]
    for encoded in valid:
        decode(encoded)
        for cut in range(len(encoded)):
            with pytest.raises(error):
                decode(encoded[:cut])


@pytest.mark.parametrize("name", sorted(_RECORD_DECODERS))
@given(data=st.data(), value=st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_record_decoders_raise_only_their_error_on_mutation(name, data,
                                                            value):
    decode, error, valid = _RECORD_DECODERS[name]
    mutated = bytearray(data.draw(st.sampled_from(valid)))
    mutated[data.draw(st.integers(0, len(mutated) - 1))] = value
    try:
        decode(bytes(mutated))
    except error:
        pass
