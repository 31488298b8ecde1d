"""Unit tests for the reference CDR streams the property oracles are
written on (``tests/properties/cdr_oracle.py``)."""

import pytest

from repro.errors import MarshalError, UnmarshalError
from tests.properties.cdr_oracle import CdrInputStream, CdrOutputStream


def roundtrip(write, read, value, little_endian=False):
    out = CdrOutputStream(little_endian)
    getattr(out, write)(value)
    inp = CdrInputStream(out.getvalue(), little_endian)
    return getattr(inp, read)()


@pytest.mark.parametrize("little", [False, True])
@pytest.mark.parametrize("write,read,value", [
    ("write_octet", "read_octet", 0),
    ("write_octet", "read_octet", 255),
    ("write_boolean", "read_boolean", True),
    ("write_boolean", "read_boolean", False),
    ("write_short", "read_short", -32768),
    ("write_short", "read_short", 32767),
    ("write_ushort", "read_ushort", 65535),
    ("write_long", "read_long", -2**31),
    ("write_long", "read_long", 2**31 - 1),
    ("write_ulong", "read_ulong", 2**32 - 1),
    ("write_longlong", "read_longlong", -2**63),
    ("write_longlong", "read_longlong", 2**63 - 1),
    ("write_ulonglong", "read_ulonglong", 2**64 - 1),
    ("write_double", "read_double", 3.141592653589793),
    ("write_double", "read_double", -0.0),
    ("write_string", "read_string", ""),
    ("write_string", "read_string", "hello"),
    ("write_string", "read_string", "unicode: ünïcødé ✓"),
    ("write_octets", "read_octets", b""),
    ("write_octets", "read_octets", b"\x00\xff" * 100),
])
def test_primitive_roundtrips(write, read, value, little):
    assert roundtrip(write, read, value, little) == value


def test_float_roundtrip_within_precision():
    result = roundtrip("write_float", "read_float", 1.5)
    assert result == 1.5  # exactly representable


def test_alignment_pads_relative_to_stream_start():
    out = CdrOutputStream()
    out.write_octet(1)
    out.write_ulong(7)  # must pad 3 bytes to the 4-byte boundary
    data = out.getvalue()
    assert len(data) == 8
    assert data[1:4] == b"\x00\x00\x00"
    inp = CdrInputStream(data)
    assert inp.read_octet() == 1
    assert inp.read_ulong() == 7


def test_eight_byte_alignment_for_double():
    out = CdrOutputStream()
    out.write_octet(1)
    out.write_double(2.0)
    assert len(out.getvalue()) == 16


def test_mixed_sequence_roundtrip():
    out = CdrOutputStream()
    out.write_string("op")
    out.write_ulong(42)
    out.write_boolean(True)
    out.write_octets(b"key")
    out.write_double(1.25)
    inp = CdrInputStream(out.getvalue())
    assert inp.read_string() == "op"
    assert inp.read_ulong() == 42
    assert inp.read_boolean() is True
    assert inp.read_octets() == b"key"
    assert inp.read_double() == 1.25


def test_truncated_stream_raises():
    out = CdrOutputStream()
    out.write_ulong(5)
    data = out.getvalue()[:2]
    with pytest.raises(UnmarshalError):
        CdrInputStream(data).read_ulong()


def test_string_requires_nul_terminator():
    out = CdrOutputStream()
    out.write_ulong(3)
    out.write_raw(b"abc")      # missing NUL
    with pytest.raises(UnmarshalError):
        CdrInputStream(out.getvalue()).read_string()


def test_string_zero_length_invalid():
    out = CdrOutputStream()
    out.write_ulong(0)
    with pytest.raises(UnmarshalError):
        CdrInputStream(out.getvalue()).read_string()


def test_string_invalid_utf8_raises():
    out = CdrOutputStream()
    out.write_ulong(3)
    out.write_raw(b"\xff\xfe\x00")
    with pytest.raises(UnmarshalError):
        CdrInputStream(out.getvalue()).read_string()


def test_pack_out_of_range_raises():
    out = CdrOutputStream()
    with pytest.raises(MarshalError):
        out.write_octet(256)
    with pytest.raises(MarshalError):
        out.write_ulong(-1)


def test_encapsulation_preserves_inner_endianness():
    inner = CdrOutputStream(little_endian=True)
    inner.write_ulong(0xDEADBEEF)
    outer = CdrOutputStream(little_endian=False)
    outer.write_encapsulation(inner)
    read_outer = CdrInputStream(outer.getvalue(), little_endian=False)
    read_inner = read_outer.read_encapsulation()
    assert read_inner.little_endian is True
    assert read_inner.read_ulong() == 0xDEADBEEF


def test_empty_encapsulation_rejected():
    out = CdrOutputStream()
    out.write_octets(b"")
    with pytest.raises(UnmarshalError):
        CdrInputStream(out.getvalue()).read_encapsulation()


def test_remaining_tracks_position():
    inp = CdrInputStream(b"\x01\x02\x03\x04")
    assert inp.remaining == 4
    inp.read_octet()
    assert inp.remaining == 3


def test_endianness_actually_swaps_bytes():
    big = CdrOutputStream(little_endian=False)
    big.write_ulong(1)
    little = CdrOutputStream(little_endian=True)
    little.write_ulong(1)
    assert big.getvalue() == b"\x00\x00\x00\x01"
    assert little.getvalue() == b"\x01\x00\x00\x00"
