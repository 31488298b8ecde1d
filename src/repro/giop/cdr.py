"""CDR (Common Data Representation) marshalling.

CDR is CORBA's on-the-wire encoding: primitive types are aligned to their
natural boundaries *relative to the start of the stream* and may be encoded
in either byte order (the producer writes its native order and flags it in
the GIOP header; the consumer byte-swaps if needed).

The implementation covers the primitive types, strings, octet sequences, and
encapsulations (nested CDR streams prefixed with their own endianness octet),
which is everything GIOP headers and our TypeCode-lite values require.

It comes in two forms.  The offset-based primitives at the top (``r_*``
readers, ``w_*`` writers) are what the per-message codecs — GIOP messages,
the ``any`` codec, the multicast envelopes — are written on: straight-line
``struct`` calls with no stream object per message.  The
:class:`CdrOutputStream` / :class:`CdrInputStream` pair serves the cold,
field-by-field formats (IORs, service-context encapsulations, journal
records, delta and manifest bodies) and is the reference the property
tests hold the straight-line codecs to.
"""

from __future__ import annotations

import struct

from repro.errors import MarshalError, UnmarshalError

_PAD = b"\x00"

#: Padding strings by gap length, so alignment appends one precomputed
#: constant instead of multiplying a fresh bytes object per call.  CDR
#: boundaries are at most 8, so gaps are at most 7 bytes.
_PADDING = tuple(_PAD * n for n in range(8))

#: Precompiled per-primitive ``struct.Struct`` objects, both byte orders;
#: compiled once instead of re-parsing the format string on every write —
#: the marshalling hot path under state transfer and frame encoding.
_STRUCTS = {
    order + fmt: struct.Struct(order + fmt)
    for order in ("<", ">")
    for fmt in ("B", "h", "H", "i", "I", "q", "Q", "f", "d")
}


# ---------------------------------------------------------------------------
# Offset-based primitives
# ---------------------------------------------------------------------------
#
# A reader takes ``(data, pos, le)`` and returns ``(value, next_pos)``; a
# writer appends to a ``bytearray`` and aligns relative to its start, so a
# codec begins every CDR body in a fresh buffer.  ``le`` is 0 for
# big-endian and 1 for little-endian: it indexes the ``(big, little)``
# struct pairs below.  Readers accept ``bytes`` or a ``memoryview`` (then
# strings decode in place and octet sequences are zero-copy sub-views).
# A short buffer surfaces as ``struct.error`` or ``IndexError``; each
# codec's entry point turns those into :class:`UnmarshalError`, as it
# turns ``struct.error`` on encode into :class:`MarshalError`.

def _pair(fmt: str) -> tuple:
    return (struct.Struct(">" + fmt), struct.Struct("<" + fmt))


U8 = struct.Struct("B")
U32 = _pair("I")
I32 = _pair("i")
I64 = _pair("q")
F64 = _pair("d")


def r_ulong(data, pos: int, le: int = 0):
    """Unsigned 32-bit integer, 4-aligned."""
    pos = (pos + 3) & ~3
    return U32[le].unpack_from(data, pos)[0], pos + 4


def r_long(data, pos: int, le: int = 0):
    """Signed 32-bit integer, 4-aligned."""
    pos = (pos + 3) & ~3
    return I32[le].unpack_from(data, pos)[0], pos + 4


def r_longlong(data, pos: int, le: int = 0):
    """Signed 64-bit integer, 8-aligned."""
    pos = (pos + 7) & ~7
    return I64[le].unpack_from(data, pos)[0], pos + 8


def r_double(data, pos: int, le: int = 0):
    """IEEE 754 double, 8-aligned."""
    pos = (pos + 7) & ~7
    return F64[le].unpack_from(data, pos)[0], pos + 8


def r_string(data, pos: int, le: int = 0):
    """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
    pos = (pos + 3) & ~3
    length = U32[le].unpack_from(data, pos)[0]
    pos += 4
    end = pos + length
    if length == 0:
        raise UnmarshalError("CDR string length 0 (must include NUL)")
    if end > len(data):
        raise UnmarshalError(
            f"truncated CDR string: need {length} bytes at offset {pos}, "
            f"have {len(data) - pos}")
    if data[end - 1] != 0:
        raise UnmarshalError("CDR string missing NUL terminator")
    try:
        return str(data[pos:end - 1], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise UnmarshalError(f"invalid UTF-8 in CDR string: {exc}") from exc


def r_octets(data, pos: int, le: int = 0):
    """sequence<octet>: a slice of ``data`` (a sub-view of a memoryview)."""
    pos = (pos + 3) & ~3
    length = U32[le].unpack_from(data, pos)[0]
    pos += 4
    end = pos + length
    if end > len(data):
        raise UnmarshalError(
            f"truncated CDR octets: need {length} bytes at offset {pos}, "
            f"have {len(data) - pos}")
    return data[pos:end], end


def w_ulong(buf: bytearray, value: int, le: int = 0) -> None:
    """Unsigned 32-bit integer, 4-aligned."""
    r = len(buf) & 3
    if r:
        buf += _PADDING[4 - r]
    buf += U32[le].pack(value)


def w_long(buf: bytearray, value: int, le: int = 0) -> None:
    """Signed 32-bit integer, 4-aligned."""
    r = len(buf) & 3
    if r:
        buf += _PADDING[4 - r]
    buf += I32[le].pack(value)


def w_longlong(buf: bytearray, value: int, le: int = 0) -> None:
    """Signed 64-bit integer, 8-aligned."""
    r = len(buf) & 7
    if r:
        buf += _PADDING[8 - r]
    buf += I64[le].pack(value)


def w_double(buf: bytearray, value: float, le: int = 0) -> None:
    """IEEE 754 double, 8-aligned."""
    r = len(buf) & 7
    if r:
        buf += _PADDING[8 - r]
    buf += F64[le].pack(value)


def w_string(buf: bytearray, value: str, le: int = 0) -> None:
    """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
    encoded = value.encode("utf-8")
    w_ulong(buf, len(encoded) + 1, le)
    buf += encoded
    buf.append(0)


def w_octets(buf: bytearray, value, le: int = 0) -> None:
    """sequence<octet>: ulong length then the bytes."""
    w_ulong(buf, len(value), le)
    buf += value


class CdrOutputStream:
    """Appends CDR-encoded values to a growing byte buffer."""

    def __init__(self, little_endian: bool = False) -> None:
        self.little_endian = little_endian
        self._buf = bytearray()
        self._fmt = "<" if little_endian else ">"

    # -- low level ------------------------------------------------------

    def align(self, boundary: int) -> None:
        remainder = len(self._buf) % boundary
        if remainder:
            self._buf += _PADDING[boundary - remainder]

    def write_raw(self, data: bytes) -> None:
        self._buf += data

    def _pack(self, fmt: str, boundary: int, value) -> None:
        try:
            packed = _STRUCTS[self._fmt + fmt].pack(value)
        except struct.error as exc:
            raise MarshalError(f"cannot pack {value!r} as {fmt!r}: {exc}") from exc
        remainder = len(self._buf) % boundary
        if remainder:
            # Single append per primitive: pad and payload joined once.
            packed = _PADDING[boundary - remainder] + packed
        self._buf += packed

    # -- primitives -----------------------------------------------------

    def write_octet(self, value: int) -> None:
        self._pack("B", 1, value)

    def write_boolean(self, value: bool) -> None:
        self._pack("B", 1, 1 if value else 0)

    def write_short(self, value: int) -> None:
        self._pack("h", 2, value)

    def write_ushort(self, value: int) -> None:
        self._pack("H", 2, value)

    def write_long(self, value: int) -> None:
        self._pack("i", 4, value)

    def write_ulong(self, value: int) -> None:
        self._pack("I", 4, value)

    def write_longlong(self, value: int) -> None:
        self._pack("q", 8, value)

    def write_ulonglong(self, value: int) -> None:
        self._pack("Q", 8, value)

    def write_float(self, value: float) -> None:
        self._pack("f", 4, value)

    def write_double(self, value: float) -> None:
        self._pack("d", 8, value)

    # -- composites ------------------------------------------------------

    def write_string(self, value: str) -> None:
        """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
        encoded = value.encode("utf-8")
        self.write_ulong(len(encoded) + 1)
        self.write_raw(encoded + b"\x00")

    def write_octets(self, value: bytes) -> None:
        """sequence<octet>: ulong length then raw bytes."""
        self.write_ulong(len(value))
        self.write_raw(value)

    def write_encapsulation(self, inner: "CdrOutputStream") -> None:
        """An encapsulation: octet-sequence wrapping a nested CDR stream
        whose first octet records the nested stream's endianness."""
        payload = bytes([1 if inner.little_endian else 0]) + inner.getvalue()
        self.write_octets(payload)

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class CdrInputStream:
    """Reads CDR-encoded values from a byte buffer.

    Accepts ``bytes``, ``bytearray`` or ``memoryview``: the decode hot
    path hands in a ``memoryview`` of the received datagram, and
    :meth:`read_raw` / :meth:`read_octets` then return sub-views instead
    of copied slices — payload bytes are never duplicated on the way up
    the stack (the view pins the ~MTU-sized datagram buffer, which is
    immutable and bounded).

    ``offset_base`` supports encapsulations: alignment inside an
    encapsulation is relative to the encapsulation's own start.
    """

    def __init__(self, data, little_endian: bool = False) -> None:
        self._data = data
        self._pos = 0
        self.little_endian = little_endian
        self._fmt = "<" if little_endian else ">"

    # -- low level ------------------------------------------------------

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def align(self, boundary: int) -> None:
        remainder = self._pos % boundary
        if remainder:
            self._pos += boundary - remainder

    def read_raw(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise UnmarshalError(
                f"truncated CDR stream: need {count} bytes at offset "
                f"{self._pos}, have {len(self._data) - self._pos}"
            )
        value = self._data[self._pos:self._pos + count]
        self._pos += count
        return value

    def _unpack(self, fmt: str, boundary: int, size: int):
        # Unpack straight out of the backing buffer (no intermediate
        # slice object per primitive — this is the decode hot path).
        pos = self._pos
        remainder = pos % boundary
        if remainder:
            pos += boundary - remainder
        if pos + size > len(self._data):
            raise UnmarshalError(
                f"truncated CDR stream: need {size} bytes at offset "
                f"{pos}, have {len(self._data) - pos}"
            )
        self._pos = pos + size
        try:
            return _STRUCTS[self._fmt + fmt].unpack_from(self._data, pos)[0]
        except struct.error as exc:  # pragma: no cover - guarded above
            raise UnmarshalError(str(exc)) from exc

    # -- primitives -----------------------------------------------------

    def read_octet(self) -> int:
        return self._unpack("B", 1, 1)

    def read_boolean(self) -> bool:
        return bool(self._unpack("B", 1, 1))

    def read_short(self) -> int:
        return self._unpack("h", 2, 2)

    def read_ushort(self) -> int:
        return self._unpack("H", 2, 2)

    def read_long(self) -> int:
        return self._unpack("i", 4, 4)

    def read_ulong(self) -> int:
        return self._unpack("I", 4, 4)

    def read_longlong(self) -> int:
        return self._unpack("q", 8, 8)

    def read_ulonglong(self) -> int:
        return self._unpack("Q", 8, 8)

    def read_float(self) -> float:
        return self._unpack("f", 4, 4)

    def read_double(self) -> float:
        return self._unpack("d", 8, 8)

    # -- composites ------------------------------------------------------

    def read_string(self) -> str:
        length = self.read_ulong()
        if length == 0:
            raise UnmarshalError("CDR string length 0 (must include NUL)")
        raw = self.read_raw(length)
        if raw[-1] != 0:
            raise UnmarshalError("CDR string missing NUL terminator")
        try:
            # str(buffer, encoding) decodes bytes and memoryview alike.
            return str(raw[:-1], "utf-8")
        except UnicodeDecodeError as exc:
            raise UnmarshalError(f"invalid UTF-8 in CDR string: {exc}") from exc

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        return self.read_raw(length)

    def read_encapsulation(self) -> "CdrInputStream":
        payload = self.read_octets()
        if not payload:
            raise UnmarshalError("empty CDR encapsulation")
        return CdrInputStream(payload[1:], little_endian=bool(payload[0]))
