"""Unit tests for ServiceContexts and the handshake payloads."""

import pytest

from repro.errors import UnmarshalError
from repro.giop.cdr import CdrOutputStream
from repro.giop.service_context import (
    CODE_SETS_ID,
    CODESET_UTF8,
    CODESET_UTF16,
    VENDOR_HANDSHAKE_ID,
    CodeSetContext,
    ServiceContext,
    VendorHandshakeContext,
    find_context,
    read_service_contexts,
    write_service_contexts,
)


def test_context_list_roundtrip():
    contexts = (ServiceContext(1, b"abc"), ServiceContext(0xFFFF, b""))
    buf = bytearray()
    write_service_contexts(buf, contexts)
    decoded, end = read_service_contexts(bytes(buf))
    assert decoded == contexts
    assert end == len(buf)


def test_empty_context_list_roundtrip():
    buf = bytearray()
    write_service_contexts(buf, ())
    assert read_service_contexts(bytes(buf)) == ((), 4)


def test_implausible_count_rejected():
    out = CdrOutputStream()
    out.write_ulong(2_000_000)
    with pytest.raises(UnmarshalError):
        read_service_contexts(out.getvalue())


def test_codeset_context_roundtrip():
    original = CodeSetContext()
    ctx = original.to_service_context()
    assert ctx.context_id == CODE_SETS_ID
    decoded = CodeSetContext.from_service_context(ctx)
    assert decoded.char_data == CODESET_UTF8
    assert decoded.wchar_data == CODESET_UTF16


def test_codeset_wrong_id_rejected():
    with pytest.raises(UnmarshalError):
        CodeSetContext.from_service_context(ServiceContext(99, b""))


def test_handshake_proposal_roundtrip():
    original = VendorHandshakeContext(propose=True, object_key=b"\x00full")
    decoded = VendorHandshakeContext.from_service_context(
        original.to_service_context()
    )
    assert decoded.propose is True
    assert decoded.object_key == b"\x00full"
    assert decoded.short_key_token == 0


def test_handshake_answer_roundtrip():
    original = VendorHandshakeContext(propose=False, object_key=b"k",
                                      short_key_token=0xCAFE)
    decoded = VendorHandshakeContext.from_service_context(
        original.to_service_context()
    )
    assert decoded.propose is False
    assert decoded.short_key_token == 0xCAFE


def test_handshake_wrong_id_rejected():
    with pytest.raises(UnmarshalError):
        VendorHandshakeContext.from_service_context(ServiceContext(1, b""))


def test_find_context_returns_first_match():
    contexts = [ServiceContext(1, b"a"), ServiceContext(2, b"b"),
                ServiceContext(1, b"c")]
    assert find_context(contexts, 1).context_data == b"a"
    assert find_context(contexts, 2).context_data == b"b"
    assert find_context(contexts, 3) is None


def test_vendor_id_spells_eter():
    assert VENDOR_HANDSHAKE_ID.to_bytes(4, "big") == b"ETER"
