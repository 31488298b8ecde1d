"""Unit tests for TypeCode-lite and the CORBA any."""

import pytest

from repro.errors import MarshalError, UnmarshalError
from repro.giop.cdr import CdrOutputStream
from repro.giop.types import (
    Any,
    TCKind,
    TypeCode,
    TC_LONGLONG,
    decode_any,
    encode_any,
    from_any,
    read_any,
    struct_any,
    to_any,
    write_any,
)


@pytest.mark.parametrize("value", [
    None, True, False, 0, -1, 2**40, 3.5, "", "text", b"", b"\x00\x01",
    [], [1, 2, 3], ["a", 2, 3.0], {}, {"k": 1}, {"nested": {"x": [1, "y"]}},
    [b"bytes", {"deep": [None, True]}],
])
def test_to_any_roundtrip(value):
    assert from_any(decode_any(encode_any(to_any(value)))) == value


def test_to_any_infers_kinds():
    assert to_any(None).typecode.kind is TCKind.NULL
    assert to_any(True).typecode.kind is TCKind.BOOLEAN
    assert to_any(1).typecode.kind is TCKind.LONGLONG
    assert to_any(1.0).typecode.kind is TCKind.DOUBLE
    assert to_any("s").typecode.kind is TCKind.STRING
    assert to_any(b"b").typecode.kind is TCKind.OCTETS
    assert to_any([1]).typecode.kind is TCKind.SEQUENCE
    assert to_any({"a": 1}).typecode.kind is TCKind.MAP


def test_bool_not_mistaken_for_int():
    # bool is a subclass of int; order of checks matters.
    assert to_any(True).typecode.kind is TCKind.BOOLEAN


def test_to_any_of_any_is_identity():
    wrapped = to_any(5)
    assert to_any(wrapped) is wrapped


def test_to_any_rejects_unknown_types():
    with pytest.raises(MarshalError):
        to_any(object())


def test_struct_any_roundtrip():
    original = struct_any("Account", owner="alice", balance=10,
                          tags=["a", "b"])
    decoded = decode_any(encode_any(original))
    assert decoded.typecode.kind is TCKind.STRUCT
    assert decoded.typecode.name == "Account"
    assert decoded.value == {"owner": "alice", "balance": 10,
                             "tags": ["a", "b"]}


def test_struct_missing_field_raises():
    tc = TypeCode(TCKind.STRUCT, name="S",
                  fields=(("a", TC_LONGLONG),))
    with pytest.raises(MarshalError):
        write_any(bytearray(), Any(tc, {}))


def test_sequence_typecode_requires_element():
    with pytest.raises(MarshalError):
        TypeCode(TCKind.SEQUENCE)


def test_unknown_tckind_rejected_on_decode():
    out = CdrOutputStream()
    out.write_boolean(False)
    out.write_ulong(250)     # no such kind
    with pytest.raises(UnmarshalError):
        decode_any(out.getvalue())


def test_write_read_any_inline():
    buf = bytearray(b"\x07")        # mid-body: alignment is buffer-relative
    write_any(buf, to_any({"k": [1, 2]}))
    decoded, end = read_any(bytes(buf), 1)
    assert from_any(decoded) == {"k": [1, 2]}
    assert end == len(buf)


def test_encode_any_little_endian():
    value = {"x": 9, "s": "é"}
    blob = encode_any(to_any(value), little_endian=True)
    assert from_any(decode_any(blob)) == value


def test_map_with_mixed_key_types():
    value = {1: "one", "two": 2}
    assert from_any(decode_any(encode_any(to_any(value)))) == value


def test_large_bulk_state_roundtrip():
    payload = bytes(range(256)) * 1000     # 256 kB
    value = {"payload": payload, "count": 3}
    assert from_any(decode_any(encode_any(to_any(value)))) == value


def test_tuple_becomes_list():
    assert from_any(decode_any(encode_any(to_any((1, 2))))) == [1, 2]


def test_any_repr_is_informative():
    assert "LONGLONG" in repr(to_any(3))
