"""Unit tests for the CDR codec kit's record builder and tables
(:mod:`repro.giop.cdr`), against the reference streams of the oracle."""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.giop.cdr import (ASCII, BOOL, DOUBLE, LONGLONG, OCTET, OCTETS,
                            STRING, ULONG, ULONGLONG, USHORT, Codec,
                            EnumOctet, Row, Seq, SortedMap, SortedSet, Table,
                            Tup, build, decode_encapsulation,
                            encode_encapsulation, r_ulonglong, w_ulonglong)
from tests.properties.cdr_oracle import CdrInputStream, CdrOutputStream


class Colour(enum.Enum):
    RED = 1
    BLUE = 7


@dataclass(frozen=True)
class Sample:
    flag: bool
    small: int
    port: int
    count: int
    big: int
    signed: int
    ratio: float
    name: str
    blob: bytes
    digest: str
    colour: Colour
    pairs: Tuple[Tuple[int, int], ...]
    held: FrozenSet[int]
    owners: Dict[int, str]
    path: List[str]


SAMPLE_ROW = Row(
    Sample, ("flag", BOOL), ("small", OCTET), ("port", USHORT),
    ("count", ULONG), ("big", ULONGLONG), ("signed", LONGLONG),
    ("ratio", DOUBLE), ("name", STRING), ("blob", OCTETS),
    ("digest", ASCII), ("colour", EnumOctet(Colour, "colour")),
    ("pairs", Seq(Tup(OCTET, ULONGLONG))), ("held", SortedSet(ULONG)),
    ("owners", SortedMap(ULONGLONG, STRING)), ("path", Seq(STRING, list)))

SAMPLE = Sample(True, 200, 65535, 7, 2 ** 64 - 1, -5, 0.25, "ünï",
                b"\x00\x01", "abc", Colour.BLUE, ((1, 2), (3, 4)),
                frozenset({9, 3}), {5: "five", 2: "two"}, ["a", "bc"])


def reference(sample: Sample, start: int, little: bool = False) -> bytes:
    """``start`` filler octets, then ``sample`` written field by field."""
    out = CdrOutputStream(little)
    for _ in range(start):
        out.write_octet(0xEE)
    out.write_boolean(sample.flag)
    out.write_octet(sample.small)
    out.write_ushort(sample.port)
    out.write_ulong(sample.count)
    out.write_ulonglong(sample.big)
    out.write_longlong(sample.signed)
    out.write_double(sample.ratio)
    out.write_string(sample.name)
    out.write_octets(sample.blob)
    out.write_octets(sample.digest.encode("ascii"))
    out.write_octet(sample.colour.value)
    out.write_ulong(len(sample.pairs))
    for small, big in sample.pairs:
        out.write_octet(small)
        out.write_ulonglong(big)
    out.write_ulong(len(sample.held))
    for item in sorted(sample.held):
        out.write_ulong(item)
    out.write_ulong(len(sample.owners))
    for key in sorted(sample.owners):
        out.write_ulonglong(key)
        out.write_string(sample.owners[key])
    out.write_ulong(len(sample.path))
    for item in sample.path:
        out.write_string(item)
    return out.getvalue()


@pytest.mark.parametrize("start", range(9))
def test_a_row_writes_and_reads_the_streams_bytes_at_every_offset(start):
    # The start offset moves every static padding decision; items of the
    # (octet, ulonglong) sequence alternate their alignment per iteration.
    codec = build(SAMPLE_ROW, start)
    buf = bytearray(b"\xee" * start)
    codec.encode(buf, SAMPLE)
    assert bytes(buf) == reference(SAMPLE, start)
    decoded = codec.decode(bytes(buf))
    assert decoded == SAMPLE
    assert type(decoded.path) is list and type(decoded.pairs) is tuple
    assert codec.decode(memoryview(bytes(buf))) == SAMPLE


def test_either_order_decodes_little_endian_input():
    codec = build(SAMPLE_ROW, 1, either_order=True)
    little = reference(SAMPLE, 1, little=True)
    assert codec.decode_le(little) == SAMPLE
    assert decode_encapsulation(codec, b"\x01" + little[1:]) == SAMPLE
    assert decode_encapsulation(
        codec, encode_encapsulation(codec, SAMPLE)) == SAMPLE


def test_unknown_enum_octet_raises_protocol_error():
    codec = build(Row(Sample, *SAMPLE_ROW.fields[:11]), 0)
    data = bytearray(reference(SAMPLE, 0))
    index = data.index(b"abc") + 3
    assert data[index] == Colour.BLUE.value
    data[index] = 2
    with pytest.raises(ProtocolError, match="unknown colour 2"):
        codec.decode(bytes(data))


def test_malformed_encapsulations_raise_unmarshal_error():
    codec = build(SAMPLE_ROW, 1, either_order=True)
    encoded = encode_encapsulation(codec, SAMPLE)
    for cut in (0, 5, len(encoded) - 1):
        with pytest.raises(UnmarshalError):
            decode_encapsulation(codec, encoded[:cut])
    with pytest.raises(MarshalError):
        encode_encapsulation(codec, dataclasses.replace(SAMPLE, small=256))


def test_ulonglong_primitives_align_and_round_trip():
    buf = bytearray(b"\x01")
    w_ulonglong(buf, 2 ** 64 - 1)
    assert bytes(buf) == b"\x01" + b"\x00" * 7 + b"\xff" * 8
    assert r_ulonglong(bytes(buf), 1) == (2 ** 64 - 1, 16)
    little = bytearray()
    w_ulonglong(little, 1, 1)
    assert CdrInputStream(bytes(little), True).read_ulonglong() == 1


@dataclass(frozen=True)
class Ping:
    value: str


@dataclass(frozen=True)
class Pong:
    number: int


def table():
    return Table("test frame", 9, (
        (1, Row(Ping, ("value", STRING))),
        (2, Codec(Pong, lambda buf, obj: buf.append(obj.number),
                  lambda data: Pong(data[2]))),
    ))


def test_table_dispatches_rows_and_hand_written_codecs():
    frames = table()
    assert frames.encode(Ping("hi")) == b"\x09\x01\0\0\0\0\0\x03hi\0"
    assert frames.decode(frames.encode(Ping("hi"))) == Ping("hi")
    assert frames.decode(frames.encode(Pong(5))) == Pong(5)
    assert [tag for tag, _ in frames.rows] == [1, 2]


@pytest.mark.parametrize("data", [b"", b"\x09", b"\x08\x01",
                                  b"\x09\x63rest"])
def test_table_rejects_bad_heads_with_protocol_error(data):
    with pytest.raises(ProtocolError):
        table().decode(data)


def test_table_maps_encode_and_decode_failures():
    frames = table()
    with pytest.raises(ProtocolError):
        frames.encode(object())
    with pytest.raises(MarshalError):
        frames.encode(Pong(256))
    with pytest.raises(UnmarshalError):
        frames.decode(frames.encode(Ping("hi"))[:-2])
    with pytest.raises(ValueError):
        frames.add(1, Row(Pong, ("number", OCTET)))
    with pytest.raises(ValueError):
        frames.add(3, Row(Ping, ("value", STRING)))
