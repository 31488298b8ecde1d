"""TypeCode-lite and the CORBA ``any`` type.

The FT-CORBA ``Checkpointable`` interface defines application-level state as
``typedef any State`` — "a variable of type any can hold any primitive,
structured and user-defined CORBA type" (paper §4.1).  This module provides
a self-describing ``Any`` with enough of the CORBA TypeCode system to carry
realistic application state: primitives, strings, octet sequences, sequences,
maps, and named structs, all CDR-encodable.

The ``any`` has one CDR writer (:func:`write_any`) and one reader
(:func:`read_any`, :func:`read_any_value`), shared by GIOP arguments and
results and by the standalone :func:`encode_any` / :func:`decode_any`
blobs of the state path.  Each is a table keyed by :class:`TCKind`: the
primitives are one ``struct`` call each, and SEQUENCE, MAP, STRUCT and
ANY recurse through the same table.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any as PyAny
from typing import Dict, Optional, Tuple

from repro.errors import MarshalError, UnmarshalError
from repro.giop.cdr import (r_boolean, r_double, r_long, r_longlong,
                            r_octet, r_octets, r_string, r_ulong, w_boolean,
                            w_double, w_long, w_longlong, w_octet, w_octets,
                            w_string, w_ulong)


class TCKind(enum.IntEnum):
    """Kinds of TypeCode we support (a subset of CORBA's tk_* constants,
    with MAP added for convenience)."""

    NULL = 0
    BOOLEAN = 1
    OCTET = 2
    LONG = 3          # 32-bit signed
    LONGLONG = 4      # 64-bit signed
    DOUBLE = 5
    STRING = 6
    OCTETS = 7        # sequence<octet>, the workhorse for bulk state
    SEQUENCE = 8      # sequence<element_type>
    MAP = 9           # sequence<pair<key, value>> with any-typed entries
    STRUCT = 10       # named fields
    ANY = 11          # nested any


@dataclass(frozen=True)
class TypeCode:
    """A (possibly recursive) type description."""

    kind: TCKind
    element: Optional["TypeCode"] = None                 # SEQUENCE
    name: str = ""                                       # STRUCT
    fields: Tuple[Tuple[str, "TypeCode"], ...] = ()      # STRUCT

    def __post_init__(self) -> None:
        if self.kind is TCKind.SEQUENCE and self.element is None:
            raise MarshalError("SEQUENCE TypeCode requires an element type")


# Singleton simple TypeCodes
TC_NULL = TypeCode(TCKind.NULL)
TC_BOOLEAN = TypeCode(TCKind.BOOLEAN)
TC_OCTET = TypeCode(TCKind.OCTET)
TC_LONG = TypeCode(TCKind.LONG)
TC_LONGLONG = TypeCode(TCKind.LONGLONG)
TC_DOUBLE = TypeCode(TCKind.DOUBLE)
TC_STRING = TypeCode(TCKind.STRING)
TC_OCTETS = TypeCode(TCKind.OCTETS)
TC_MAP = TypeCode(TCKind.MAP)
TC_ANY = TypeCode(TCKind.ANY)
TC_SEQUENCE_ANY = TypeCode(TCKind.SEQUENCE, element=TC_ANY)


@dataclass(frozen=True)
class Any:
    """A self-describing value: (TypeCode, value).

    For STRUCT the value is a dict of field name → Python value; for
    SEQUENCE a list; for MAP a dict with Any-encodable keys and values.
    """

    typecode: TypeCode
    value: PyAny

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Any({self.typecode.kind.name}, {self.value!r})"


def to_any(value: PyAny) -> Any:
    """Wrap a plain Python value in an :class:`Any`, inferring its TypeCode.

    Mapping: None→NULL, bool→BOOLEAN, int→LONGLONG, float→DOUBLE,
    str→STRING, bytes→OCTETS, list/tuple→SEQUENCE<any>, dict→MAP,
    Any→itself.
    """
    if isinstance(value, Any):
        return value
    if value is None:
        return Any(TC_NULL, None)
    if isinstance(value, bool):
        return Any(TC_BOOLEAN, value)
    if isinstance(value, int):
        return Any(TC_LONGLONG, value)
    if isinstance(value, float):
        return Any(TC_DOUBLE, value)
    if isinstance(value, str):
        return Any(TC_STRING, value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        # memoryview: zero-copy decode hands out views into the recv
        # buffer; materialize on the (cold) re-marshal path.
        return Any(TC_OCTETS, bytes(value))
    if isinstance(value, (list, tuple)):
        return Any(TC_SEQUENCE_ANY, list(value))
    if isinstance(value, dict):
        return Any(TC_MAP, dict(value))
    raise MarshalError(f"cannot infer a TypeCode for {type(value).__name__}")


def from_any(any_value: Any) -> PyAny:
    """Unwrap an :class:`Any` back to a plain Python value (deeply)."""
    kind = any_value.typecode.kind
    value = any_value.value
    if kind is TCKind.SEQUENCE:
        return [from_any(v) if isinstance(v, Any) else v for v in value]
    if kind is TCKind.MAP:
        return {k: (from_any(v) if isinstance(v, Any) else v)
                for k, v in value.items()}
    if kind is TCKind.STRUCT:
        return {k: (from_any(v) if isinstance(v, Any) else v)
                for k, v in value.items()}
    return value


def struct_any(name: str, **fields: PyAny) -> Any:
    """Build a STRUCT-typed :class:`Any` from keyword fields."""
    tc_fields = tuple((k, to_any(v).typecode) for k, v in fields.items())
    return Any(TypeCode(TCKind.STRUCT, name=name, fields=tc_fields),
               dict(fields))


# ---------------------------------------------------------------------------
# CDR encoding of TypeCodes and Anys
# ---------------------------------------------------------------------------
#
# Writers append to a bytearray and readers return ``(value, next_pos)``
# (see the offset-based primitives in :mod:`repro.giop.cdr`); ``le`` is the
# byte order, 0 big-endian or 1 little-endian.

#: Exact Python type -> inferred TypeCode: :func:`to_any`'s mapping for the
#: types that need no conversion, so :func:`write_any` writes a plain
#: argument without wrapping it first.  Anything else goes through
#: :func:`to_any` (subclasses, ``bytearray``/``memoryview``, ``Any``).
_INFERRED = {
    type(None): TC_NULL,
    bool: TC_BOOLEAN,
    int: TC_LONGLONG,
    float: TC_DOUBLE,
    str: TC_STRING,
    bytes: TC_OCTETS,
    list: TC_SEQUENCE_ANY,
    tuple: TC_SEQUENCE_ANY,
    dict: TC_MAP,
}

#: Wire kind -> shared TypeCode for every kind with no parameters.
_SIMPLE_TYPECODES = {
    int(tc.kind): tc
    for tc in (TC_NULL, TC_BOOLEAN, TC_OCTET, TC_LONG, TC_LONGLONG,
               TC_DOUBLE, TC_STRING, TC_OCTETS, TC_MAP, TC_ANY)
}


def _write_typecode(buf: bytearray, tc: TypeCode, le: int) -> None:
    kind = tc.kind
    w_ulong(buf, kind, le)
    if kind is TCKind.SEQUENCE:
        _write_typecode(buf, tc.element, le)
    elif kind is TCKind.STRUCT:
        w_string(buf, tc.name, le)
        w_ulong(buf, len(tc.fields), le)
        for field_name, field_tc in tc.fields:
            w_string(buf, field_name, le)
            _write_typecode(buf, field_tc, le)


def _read_typecode(data, pos: int, le: int):
    code, pos = r_ulong(data, pos, le)
    tc = _SIMPLE_TYPECODES.get(code)
    if tc is not None:
        return tc, pos
    if code == TCKind.SEQUENCE:
        element, pos = _read_typecode(data, pos, le)
        if element is TC_ANY:
            return TC_SEQUENCE_ANY, pos
        return TypeCode(TCKind.SEQUENCE, element=element), pos
    if code == TCKind.STRUCT:
        name, pos = r_string(data, pos, le)
        count, pos = r_ulong(data, pos, le)
        fields = []
        for _ in range(count):
            field_name, pos = r_string(data, pos, le)
            field_tc, pos = _read_typecode(data, pos, le)
            fields.append((field_name, field_tc))
        return TypeCode(TCKind.STRUCT, name=name, fields=tuple(fields)), pos
    raise UnmarshalError(f"unknown TCKind {code}")


#: Kinds whose values can occupy no bytes at all (a NULL, a STRUCT
#: without fields); every other value takes at least one.
_ZERO_WIDTH = (TCKind.NULL, TCKind.STRUCT)


def _count(data, pos: int, le: int, element: Optional[TypeCode] = None):
    """A sequence or map length, refused when it exceeds the bytes left
    (unless the elements may be zero-width): a larger count can only come
    from corrupted or hostile input."""
    count, pos = r_ulong(data, pos, le)
    if count > len(data) - pos and (element is None
                                    or element.kind not in _ZERO_WIDTH):
        raise UnmarshalError(
            f"implausible element count {count} at offset {pos}")
    return count, pos


# -- values, one writer and one reader per kind ------------------------------

def _write_sequence(buf, tc, value, le) -> None:
    w_ulong(buf, len(value), le)
    element = tc.element
    if element.kind is TCKind.ANY:
        for item in value:
            write_any(buf, item, le)
    else:
        write = _WRITERS[element.kind]
        for item in value:
            write(buf, element, item, le)


def _write_map(buf, tc, value, le) -> None:
    w_ulong(buf, len(value), le)
    for key, item in value.items():
        write_any(buf, key, le)
        write_any(buf, item, le)


def _write_struct(buf, tc, value, le) -> None:
    for field_name, field_tc in tc.fields:
        try:
            field_value = value[field_name]
        except KeyError as exc:
            raise MarshalError(
                f"struct {tc.name!r} missing field {field_name!r}"
            ) from exc
        if isinstance(field_value, Any):
            field_tc = field_value.typecode
            field_value = field_value.value
        _WRITERS[field_tc.kind](buf, field_tc, field_value, le)


def _read_sequence(data, pos, tc, le):
    element = tc.element
    count, pos = _count(data, pos, le, element)
    items = []
    append = items.append
    if element.kind is TCKind.ANY:
        for _ in range(count):
            item, pos = read_any_value(data, pos, le)
            append(item)
    else:
        read = _READERS[element.kind]
        for _ in range(count):
            item, pos = read(data, pos, element, le)
            append(item)
    return items, pos


def _read_map(data, pos, tc, le):
    count, pos = _count(data, pos, le)
    result: Dict = {}
    for _ in range(count):
        key, pos = read_any_value(data, pos, le)
        item, pos = read_any_value(data, pos, le)
        try:
            result[key] = item
        except TypeError as exc:
            raise UnmarshalError(f"unhashable map key: {exc}") from exc
    return result, pos


def _read_struct(data, pos, tc, le):
    result = {}
    for field_name, field_tc in tc.fields:
        result[field_name], pos = _READERS[field_tc.kind](data, pos,
                                                          field_tc, le)
    return result, pos


def _plain(write, read, convert=None):
    """The value writer and reader of a kind without parameters: the CDR
    primitives, ``tc`` unused."""
    if convert is None:
        return (lambda buf, tc, value, le: write(buf, value, le),
                lambda data, pos, tc, le: read(data, pos, le))
    return (lambda buf, tc, value, le: write(buf, convert(value), le),
            lambda data, pos, tc, le: read(data, pos, le))


#: TCKind -> (value writer, value reader).
_ROWS = {
    TCKind.NULL: (lambda buf, tc, value, le: None,
                  lambda data, pos, tc, le: (None, pos)),
    TCKind.BOOLEAN: _plain(w_boolean, r_boolean),
    TCKind.OCTET: _plain(w_octet, r_octet, int),
    TCKind.LONG: _plain(w_long, r_long, int),
    TCKind.LONGLONG: _plain(w_longlong, r_longlong, int),
    TCKind.DOUBLE: _plain(w_double, r_double, float),
    TCKind.STRING: _plain(w_string, r_string),
    TCKind.OCTETS: _plain(w_octets, r_octets),
    TCKind.SEQUENCE: (_write_sequence, _read_sequence),
    TCKind.MAP: (_write_map, _read_map),
    TCKind.STRUCT: (_write_struct, _read_struct),
    TCKind.ANY: (lambda buf, tc, value, le: write_any(buf, value, le),
                 lambda data, pos, tc, le: read_any_value(data, pos, le)),
}
_WRITERS = {kind: row[0] for kind, row in _ROWS.items()}
_READERS = {kind: row[1] for kind, row in _ROWS.items()}


def write_any(buf: bytearray, value: PyAny, le: int = 0) -> None:
    """Append one ``any`` — its TypeCode, then its value — to ``buf``.

    ``value`` is an :class:`Any` or a plain Python value, whose TypeCode
    is inferred as :func:`to_any` would.  An out-of-range number surfaces
    as ``struct.error``; the codecs' entry points report it as
    :class:`MarshalError`."""
    tc = _INFERRED.get(type(value))
    if tc is None:
        if not isinstance(value, Any):
            value = to_any(value)
        tc = value.typecode
        value = value.value
    _write_typecode(buf, tc, le)
    _WRITERS[tc.kind](buf, tc, value, le)


def read_any_value(data, pos: int = 0, le: int = 0):
    """Read one ``any`` at ``pos``; returns ``(plain value, next_pos)`` —
    what ``from_any`` of :func:`read_any`'s result would be, without
    building the :class:`Any`."""
    tc, pos = _read_typecode(data, pos, le)
    return _READERS[tc.kind](data, pos, tc, le)


def read_any(data, pos: int = 0, le: int = 0):
    """Read one ``any`` at ``pos``; returns ``(Any, next_pos)``."""
    tc, pos = _read_typecode(data, pos, le)
    value, pos = _READERS[tc.kind](data, pos, tc, le)
    return Any(tc, value), pos


def encode_any(any_value: Any, little_endian: bool = False) -> bytes:
    """Standalone encoding of an Any (used for checkpoints in logs): one
    byte-order octet, then the any."""
    buf = bytearray(b"\x01" if little_endian else b"\x00")
    try:
        write_any(buf, any_value, 1 if little_endian else 0)
    except struct.error as exc:
        raise MarshalError(f"cannot encode any: {exc}") from exc
    return bytes(buf)


def decode_any(data: bytes) -> Any:
    """Inverse of :func:`encode_any`."""
    try:
        return read_any(data, 1, 1 if data[0] else 0)[0]
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(f"truncated any: {exc}") from exc
