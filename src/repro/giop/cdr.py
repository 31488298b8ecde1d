"""CDR (Common Data Representation): the one codec kit every wire and disk
format is written on.

CDR is CORBA's on-the-wire encoding: primitive types are aligned to their
natural boundaries *relative to the start of the stream* and may be encoded
in either byte order (the producer writes its native order and flags it;
the consumer byte-swaps if needed).  Strings are a ulong length (counting
the NUL), UTF-8 bytes and a NUL; octet sequences a ulong length and the
bytes.  No other module defines a CDR primitive.

The kit has two layers:

* **Primitives** — offset-based readers ``r_*(data, pos, le)`` returning
  ``(value, next_pos)`` and writers ``w_*(buf, value, le)`` appending to a
  ``bytearray``.  The codecs a field list cannot state are written on them
  by hand: the GIOP Request/Reply bodies (byte order per message, a
  conditional ``exception_id``), the recursive ``any``, the header peeks,
  and ``StateSet``'s body-kind octet.
* **Records** — every fixed-layout format (Totem frames, multicast
  envelopes, journal records, delta and manifest bodies, the IOR and the
  service contexts) is declared once as a :class:`Row`: a class and its
  fields in wire order.  :func:`build` turns a row into straight-line
  encoder and decoder source, compiled at the codec's first use, the way
  :mod:`dataclasses` builds ``__init__``: padding the layout fixes becomes
  a constant, each run of fixed-width fields one ``struct`` call, and
  nothing is interpreted per message.  A :class:`Table` dispatches tagged
  rows and maps low-level failures onto :class:`MarshalError`,
  :class:`UnmarshalError` and :class:`ProtocolError`.

Readers accept ``bytes`` or a ``memoryview`` (then strings decode in place
and octet sequences are zero-copy sub-views).  The property suite holds
the records to independent references written on CDR streams
(``tests/properties/cdr_oracle.py``, ``giop_oracle.py``) and pins the
formats without one to golden bytes (``tests/unit/test_golden_bytes.py``).
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Callable, Optional

from repro.errors import MarshalError, ProtocolError, UnmarshalError

# ---------------------------------------------------------------------------
# Offset-based primitives
# ---------------------------------------------------------------------------
#
# ``le`` is 0 for big-endian and 1 for little-endian: it indexes the
# ``(big, little)`` struct pairs below.  A writer aligns relative to the
# start of its buffer, so a codec begins every CDR body in a fresh buffer
# (or one whose length is a multiple of 8).  A short buffer surfaces as
# ``struct.error`` or ``IndexError``; each codec's entry point turns those
# into :class:`UnmarshalError`, as it turns ``struct.error`` on encode into
# :class:`MarshalError`.

def _pair(fmt: str) -> tuple:
    return (struct.Struct(">" + fmt), struct.Struct("<" + fmt))


U8 = struct.Struct("B")
U16 = _pair("H")
U32 = _pair("I")
I32 = _pair("i")
U64 = _pair("Q")
I64 = _pair("q")
F64 = _pair("d")

#: Padding that aligns a length to ``n``, indexed by ``length & (n - 1)``.
_PAD2 = (b"", b"\x00")
_PAD4 = (b"", b"\x00" * 3, b"\x00" * 2, b"\x00")
_PAD8 = tuple(b"\x00" * (-r % 8) for r in range(8))


def _fixed(kind: str, pair: tuple, what: str):
    """``r_<kind>`` and ``w_<kind>``: a fixed-width ``what``, aligned to its
    own size."""
    size = pair[0].size
    mask, down, pads = size - 1, -size, {4: _PAD4, 8: _PAD8}[size]

    def read(data, pos: int, le: int = 0):
        pos = (pos + mask) & down
        return pair[le].unpack_from(data, pos)[0], pos + size

    def write(buf: bytearray, value, le: int = 0) -> None:
        buf += pads[len(buf) & mask]
        buf += pair[le].pack(value)

    for function, prefix in ((read, "r_"), (write, "w_")):
        function.__name__ = function.__qualname__ = prefix + kind
        function.__doc__ = f"{what}, {size}-aligned."
    return read, write


r_ulong, w_ulong = _fixed("ulong", U32, "Unsigned 32-bit integer")
r_long, w_long = _fixed("long", I32, "Signed 32-bit integer")
r_ulonglong, w_ulonglong = _fixed("ulonglong", U64, "Unsigned 64-bit integer")
r_longlong, w_longlong = _fixed("longlong", I64, "Signed 64-bit integer")
r_double, w_double = _fixed("double", F64, "IEEE 754 double")


def r_octet(data, pos: int, le: int = 0):
    """One octet."""
    return data[pos], pos + 1


def r_boolean(data, pos: int, le: int = 0):
    """One octet, nonzero for true."""
    return data[pos] != 0, pos + 1


def r_string(data, pos: int, le: int = 0):
    """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
    pos = (pos + 3) & ~3
    return _string_at(data, pos + 4, U32[le].unpack_from(data, pos)[0])


def r_octets(data, pos: int, le: int = 0):
    """sequence<octet>: a slice of ``data`` (a sub-view of a memoryview)."""
    pos = (pos + 3) & ~3
    return _octets_at(data, pos + 4, U32[le].unpack_from(data, pos)[0])


def _string_at(data, pos: int, length: int):
    """The bytes of a CDR string whose ``length`` was read just before
    ``pos``; returns ``(value, next_pos)``."""
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


def _octets_at(data, pos: int, length: int):
    """The bytes of an octet sequence whose ``length`` was read just before
    ``pos``; returns ``(slice, next_pos)``."""
    end = pos + length
    if end > len(data):
        raise UnmarshalError(
            f"truncated CDR octets: need {length} bytes at offset {pos}, "
            f"have {len(data) - pos}")
    return data[pos:end], end


def w_octet(buf: bytearray, value: int, le: int = 0) -> None:
    """One octet."""
    buf += U8.pack(value)


def w_boolean(buf: bytearray, value, le: int = 0) -> None:
    """One octet, 1 for true."""
    buf.append(1 if value else 0)


def w_string(buf: bytearray, value: str, le: int = 0) -> None:
    """CDR string: ulong length (including NUL), UTF-8 bytes, NUL."""
    encoded = value.encode()
    w_ulong(buf, len(encoded) + 1, le)
    buf += encoded
    buf.append(0)


def w_octets(buf: bytearray, value, le: int = 0) -> None:
    """sequence<octet>: ulong length then the bytes."""
    w_ulong(buf, len(value), le)
    buf += value


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------

class _Scalar:
    """A fixed-width primitive, aligned to its own size."""

    def __init__(self, code: str) -> None:
        self.code = code
        self.size = struct.calcsize(code)


OCTET, BOOL, USHORT = _Scalar("B"), _Scalar("?"), _Scalar("H")
ULONG, ULONGLONG = _Scalar("I"), _Scalar("Q")
LONGLONG, DOUBLE = _Scalar("q"), _Scalar("d")

#: Counted kinds: a ulong length, then that many bytes.
STRING = "string"       # UTF-8; the length counts a trailing NUL
OCTETS = "octets"       # decoded as a slice of the input
ASCII = "ascii"         # an ASCII ``str`` carried as octets


class EnumOctet(_Scalar):
    """One octet naming a value: ``values`` is an :class:`enum.Enum` whose
    values are octets, or a mapping octet -> value.  Decoding any other
    octet raises :class:`ProtocolError` naming ``what``."""

    def __init__(self, values, what: str) -> None:
        super().__init__("B")
        self.what = what
        if isinstance(values, type):
            self.by_code = {member.value: member for member in values}
            self.code_of = None          # encode as ``value.value``
        else:
            self.by_code = dict(values)
            self.code_of = {value: code for code, value in values.items()}


class Row:
    """A class and its fields in wire order, as ``(attribute, kind)``
    pairs.  A row is itself a field kind (a nested struct)."""

    def __init__(self, cls: type, *fields) -> None:
        self.cls = cls
        self.fields = fields


class Tup(Row):
    """A tuple of kinds, by position."""

    def __init__(self, *kinds) -> None:
        super().__init__(tuple, *enumerate(kinds))


class Seq:
    """A ulong count, then that many items of one kind, decoded ``into`` a
    ``tuple`` or ``list``."""

    def __init__(self, item, into: type = tuple) -> None:
        self.item = item
        self.into = into


class SortedSet(Seq):
    """A set, encoded as the sequence of its items in sorted order."""

    def __init__(self, item) -> None:
        super().__init__(item, frozenset)


class SortedMap(Seq):
    """A dict, encoded as the sequence of its (key, value) pairs in key
    order."""

    def __init__(self, key, value) -> None:
        super().__init__(Tup(key, value), dict)


# ---------------------------------------------------------------------------
# The builder: a row -> straight-line source -> compiled functions
# ---------------------------------------------------------------------------
#
# Each generator tracks what is statically known of the position as
# ``align = (m, r)``: position % m == r.  A fixed-width field whose padding
# that settles joins the pending run of fields, which becomes one
# ``struct`` call with the padding as ``x`` codes; any other field is first
# aligned at run time.  Counted data and loop bodies start from nothing
# known.

class _Source:
    """One generated function: its lines and the globals they name."""

    def __init__(self, ns: dict, order: str, start: int) -> None:
        self.ns, self.order = ns, order
        self.lines, self.indent = [], 1
        self.align = (8, start % 8)
        self.off = 0        # the decoder's position is ``pos + off``
        self.code, self.items, self.run_at = "", [], ""  # the pending run

    def out(self, *lines: str) -> None:
        self.lines += ["    " * self.indent + line for line in lines]

    def temp(self) -> str:
        self.ns["#temps"] += 1
        return f"v{self.ns['#temps']}"

    def name(self, obj) -> str:
        """A global name for ``obj`` in the generated code."""
        name = f"_g{len(self.ns)}"
        self.ns[name] = obj
        return name

    def struct(self, code: str) -> str:
        return self.name(struct.Struct(self.order + code))

    def at(self) -> str:
        return f"pos + {self.off}" if self.off else "pos"

    def field(self, kind, value: str) -> None:
        if isinstance(kind, _Scalar):
            self.scalar(kind, value)
        elif isinstance(kind, str):
            self.counted(kind, value)
        elif isinstance(kind, Seq):
            self.seq(kind, value)
        else:
            self.row(kind, value)

    def run(self, code: str, size: int, item: str) -> None:
        """Add one fixed-width field to the pending run."""
        if self.align[0] < size:
            self.end_run()
            self.realign(size)
            self.align = (size, 0)
        m, r = self.align
        pad = -r % size
        if not self.items:
            self.run_at = self.at()
        self.code += f"{pad}x{code}" if pad else code
        self.items.append(item)
        self.off += pad + size
        self.align = (m, (r + pad + size) % m)

    def loop(self, kind, item: str, *tail: str) -> list:
        """The body of a loop over ``kind`` items."""
        outer, self.lines = self.lines, []
        self.indent += 1
        self.align = (1, 0)
        self.field(kind, item)
        self.end_run()
        self.settle()
        self.out(*tail)
        self.indent -= 1
        self.align = (1, 0)
        body, self.lines = self.lines, outer
        return body


class _Encoder(_Source):
    """``encode(buf, obj)``: append ``obj``'s fields to ``buf``."""

    def realign(self, size: int) -> None:
        pads = self.name({2: _PAD2, 4: _PAD4, 8: _PAD8}[size])
        self.out(f"buf += {pads}[len(buf) & {size - 1}]")

    def settle(self) -> None:
        pass

    def end_run(self) -> None:
        code, items = self.code, self.items
        if code == "?":
            self.out(f"buf.append(1 if {items[0]} else 0)")
        elif code == "B":
            self.out(f"buf.append({items[0]})")
        elif items:
            self.out(f"buf += {self.struct(code)}.pack({', '.join(items)})")
        self.code, self.items = "", []

    def scalar(self, kind: _Scalar, value: str) -> None:
        if isinstance(kind, EnumOctet):
            value = (f"{value}.value" if kind.code_of is None
                     else f"{self.name(kind.code_of)}[{value}]")
        self.run(kind.code, kind.size, value)

    def counted(self, kind: str, value: str) -> None:
        v = self.temp()
        encode = {STRING: ".encode()", ASCII: ".encode('ascii')"}
        self.out(f"{v} = {value}{encode.get(kind, '')}")
        self.run("I", 4, f"len({v}) + 1" if kind == STRING else f"len({v})")
        self.end_run()
        self.out(f"buf += {v}", *["buf.append(0)"] * (kind == STRING))
        self.align = (1, 0)

    def seq(self, kind: Seq, value: str) -> None:
        items, item = self.temp(), self.temp()
        if kind.into is dict:
            value = f"sorted({value}.items())"
        elif kind.into is frozenset:
            value = f"sorted({value})"
        self.out(f"{items} = {value}")
        self.run("I", 4, f"len({items})")
        self.end_run()
        body = self.loop(kind.item, item)
        self.out(f"for {item} in {items}:")
        self.lines += body

    def row(self, kind: Row, value: str) -> None:
        if kind.cls is tuple:
            parts = [self.temp() for _ in kind.fields]
            self.out(f"{', '.join(parts)}, = {value}")
        else:
            parts = [f"{value}.{attr}" for attr, _ in kind.fields]
        for part, (_, field_kind) in zip(parts, kind.fields):
            self.field(field_kind, part)


class _Decoder(_Source):
    """``decode(data)``: the object whose fields start at offset ``start``
    of ``data``."""

    def __init__(self, ns: dict, order: str, start: int) -> None:
        super().__init__(ns, order, start)
        self.after = []         # lines that wait for the pending run
        self.out(f"pos = {start}")

    def realign(self, size: int) -> None:
        self.out(f"pos = ({self.at()} + {size - 1}) & {-size}")
        self.off = 0

    def settle(self) -> None:
        if self.off:
            self.out(f"pos += {self.off}")
            self.off = 0

    def end_run(self) -> None:
        items, at = self.items, self.run_at
        if self.code in ("B", "?"):
            test = " != 0" if self.code == "?" else ""
            self.out(f"{items[0]} = data[{at}]{test}")
        elif items:
            self.out(f"{', '.join(items)}, = "
                     f"{self.struct(self.code)}.unpack_from(data, {at})")
        self.out(*self.after)
        self.code, self.items, self.after = "", [], []

    def scalar(self, kind: _Scalar, target: str) -> None:
        if not isinstance(kind, EnumOctet):
            return self.run(kind.code, kind.size, target)
        raw = self.temp()
        self.run("B", 1, raw)
        self.after += [f"{target} = {self.name(kind.by_code)}.get({raw})",
                       f"if {target} is None:",
                       f"    _unknown({kind.what!r}, {raw})"]

    def counted(self, kind: str, target: str) -> None:
        length = self.temp()
        self.run("I", 4, length)
        self.end_run()
        body = "_string_at" if kind == STRING else "_octets_at"
        self.out(f"{target}, pos = {body}(data, {self.at()}, {length})")
        if kind == ASCII:
            self.out(f"{target} = str({target}, 'ascii')")
        self.off, self.align = 0, (1, 0)

    def seq(self, kind: Seq, target: str) -> None:
        count, item = self.temp(), self.temp()
        self.run("I", 4, count)
        self.end_run()
        self.settle()
        body = self.loop(kind.item, item, f"{target}.append({item})")
        self.out(f"{target} = []", f"for _ in range({count}):")
        self.lines += body
        if kind.into is not list:
            self.out(f"{target} = {self.name(kind.into)}({target})")

    def row(self, kind: Row, target: str) -> None:
        parts = [self.temp() for _ in kind.fields]
        for part, (_, field_kind) in zip(parts, kind.fields):
            self.field(field_kind, part)
        if kind.cls is tuple:
            value = f"({', '.join(parts)},)"
        else:
            value = f"{self.name(kind.cls)}({_arguments(kind, parts)})"
        self.after.append(f"{target} = {value}")


def _arguments(row: Row, parts) -> str:
    """Constructor arguments: positional when ``row`` names every init
    field of a dataclass, else by keyword."""
    by_attr = dict(zip((attr for attr, _ in row.fields), parts))
    if dataclasses.is_dataclass(row.cls):
        init = [f.name for f in dataclasses.fields(row.cls) if f.init]
        if set(init) == set(by_attr):
            return ", ".join(by_attr[attr] for attr in init)
    return ", ".join(f"{attr}={part}" for attr, part in by_attr.items())


def _unknown(what: str, raw: int):
    raise ProtocolError(f"unknown {what} {raw}")


class Codec:
    """A record's encoder and decoder: ``encode(buf, obj)`` appends ``obj``
    to ``buf``, ``decode(data)`` rebuilds it, and ``decode_le`` (rows built
    with ``either_order``) reads little-endian input.  Hand-written for a
    layout the kinds above cannot state, else made by :func:`build`."""

    def __init__(self, cls: type, encode: Callable, decode: Callable,
                 decode_le: Optional[Callable] = None) -> None:
        self.cls = cls
        self.encode = encode
        self.decode = decode
        self.decode_le = decode_le


def build(row: Row, start: int = 0, *, either_order: bool = False) -> Codec:
    """``row``'s codec.  Its fields begin at offset ``start`` of the encoded
    data, whose own start is the CDR alignment origin.  Encoding is
    big-endian; ``either_order`` adds ``decode_le``, for little-endian
    input.  The source is generated and compiled at the codec's first use
    (about half a millisecond a row), so a process pays for the records it
    handles, not for every record it imports."""
    codec = Codec(row.cls, None, None)

    def first_use(name: str) -> Callable:
        def compile_then_call(*args):
            _compile(codec, row, start, either_order)
            return getattr(codec, name)(*args)
        return compile_then_call

    codec.encode, codec.decode = first_use("encode"), first_use("decode")
    if either_order:
        codec.decode_le = first_use("decode_le")
    return codec


def _compile(codec: Codec, row: Row, start: int, either_order: bool) -> None:
    ns = {"#temps": 0, "_string_at": _string_at, "_octets_at": _octets_at,
          "_unknown": _unknown}
    encoder = _Encoder(ns, ">", start)
    encoder.row(row, "obj")
    encoder.end_run()
    source = ["def encode(buf, obj):", *encoder.lines]
    orders = (("decode", ">"), ("decode_le", "<"))[:1 + either_order]
    for name, order in orders:
        decoder = _Decoder(ns, order, start)
        decoder.row(row, "result")
        decoder.end_run()
        source += [f"def {name}(data):", *decoder.lines, "    return result"]
    exec(compile("\n".join(source), f"<cdr {row.cls.__name__}>", "exec"), ns)
    codec.encode, codec.decode = ns["encode"], ns["decode"]
    codec.decode_le = ns.get("decode_le")


#: What a record decoder raises on malformed input, for callers that map
#: all of it onto one error of their own.
MALFORMED = (struct.error, IndexError, ValueError, UnmarshalError,
             ProtocolError)


def encode_record(codec: Codec, obj, head: bytes = b"") -> bytes:
    """``head``, then ``obj``'s record.  A field out of its wire range
    raises :class:`MarshalError`."""
    buf = bytearray(head)
    try:
        codec.encode(buf, obj)
    except (struct.error, ValueError) as exc:
        raise MarshalError(
            f"unencodable {codec.cls.__name__} field: {exc}") from exc
    return bytes(buf)


def encode_encapsulation(codec: Codec, obj) -> bytes:
    """A CDR encapsulation of ``obj``: the byte-order octet (big-endian),
    then the record."""
    return encode_record(codec, obj, b"\x00")


def decode_encapsulation(codec: Codec, data):
    """Inverse of :func:`encode_encapsulation`, in either byte order (the
    codec must be built with ``either_order``)."""
    try:
        return (codec.decode_le if data[0] else codec.decode)(data)
    except MALFORMED as exc:
        raise UnmarshalError(
            f"malformed {codec.cls.__name__} encapsulation: {exc}") from exc


# ---------------------------------------------------------------------------
# Tables of tagged records
# ---------------------------------------------------------------------------

class Table:
    """Tagged records behind one tag octet, optionally preceded by a format
    version octet: the class picks the encoder, the tag the decoder.

    Encoding an unknown class raises :class:`ProtocolError` and a field out
    of its wire range :class:`MarshalError`; decoding a short head, a wrong
    version or an unknown tag raises :class:`ProtocolError`, a truncated
    body :class:`UnmarshalError`, and text that does not decode
    :class:`ProtocolError`."""

    def __init__(self, what: str, version: Optional[int], rows) -> None:
        self.what = what
        self.version = version
        self._head = b"" if version is None else bytes((version,))
        self._start = len(self._head) + 1
        #: ``(tag, codec)`` per record, in the order they were added.
        self.rows = []
        self._encoders = {}
        self._decoders = {}
        for tag, row in rows:
            self.add(tag, row)

    def add(self, tag: int, row) -> None:
        """Table ``row`` (a :class:`Row`, or a hand-written :class:`Codec`)
        under ``tag``.  Encoding matches the exact class, not subclasses:
        the receiver dispatches on the type it decodes."""
        codec = build(row, self._start) if isinstance(row, Row) else row
        if tag in self._decoders or codec.cls in self._encoders:
            raise ValueError(f"{self.what} tag {tag} or class "
                             f"{codec.cls.__name__} is already tabled")
        self.rows.append((tag, codec))
        self._encoders[codec.cls] = (self._head + bytes((tag,)), codec)
        self._decoders[tag] = codec

    def encode_into(self, buf: bytearray, obj) -> None:
        """Append ``obj``'s head and record to ``buf`` (whose length is a
        multiple of 8: alignment is relative to its start).  A field out
        of range raises :class:`MarshalError`, leaving ``buf`` partly
        written."""
        entry = self._encoders.get(type(obj))
        if entry is None:
            raise ProtocolError(
                f"cannot encode {self.what} {type(obj).__name__}")
        head, codec = entry
        buf += head
        try:
            codec.encode(buf, obj)
        except (struct.error, ValueError) as exc:
            raise MarshalError(
                f"unencodable {type(obj).__name__} field: {exc}") from exc

    def encode(self, obj) -> bytes:
        """``obj``'s head and record as bytes."""
        buf = bytearray()
        self.encode_into(buf, obj)
        return bytes(buf)

    def decode(self, data):
        """Inverse of :meth:`encode_into`.  Accepts ``bytes`` or a
        ``memoryview``; with a view, octet fields are zero-copy
        sub-views."""
        if len(data) < self._start:
            raise ProtocolError(f"short {self.what} ({len(data)} bytes)")
        if self.version is not None and data[0] != self.version:
            raise ProtocolError(f"unknown {self.what} version {data[0]}")
        tag = data[self._start - 1]
        codec = self._decoders.get(tag)
        if codec is None:
            raise ProtocolError(f"unknown {self.what} tag {tag}")
        try:
            return codec.decode(data)
        except (struct.error, IndexError) as exc:
            raise UnmarshalError(
                f"truncated {self.what} (tag {tag}): {exc}") from exc
        except ValueError as exc:
            raise ProtocolError(
                f"malformed {self.what} (tag {tag}): {exc}") from exc
