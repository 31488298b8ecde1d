"""Interoperable Object References.

"A server's Interoperable Object Reference (IOR) is a stringified
representation of the server's host name, port number, object key, etc."
(paper §4.2.2, footnote 3).  The IOR also publishes the server's supported
code sets, which the client-side ORB reads to drive code-set negotiation.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

from repro.errors import UnmarshalError
from repro.giop.cdr import (OCTETS, STRING, ULONG, USHORT, Row, build,
                            decode_encapsulation, encode_encapsulation)
from repro.giop.service_context import CODESET_UTF8, CODESET_UTF16


@dataclass(frozen=True)
class IOR:
    """A (simplified, single-profile) object reference."""

    type_id: str
    host: str
    port: int
    object_key: bytes
    char_codeset: int = CODESET_UTF8
    wchar_codeset: int = CODESET_UTF16

    def stringify(self) -> str:
        """Encode to the classic ``IOR:<hex>`` form (a CDR encapsulation)."""
        raw = encode_encapsulation(_IOR, self)
        return "IOR:" + binascii.hexlify(raw).decode("ascii")

    @classmethod
    def from_string(cls, text: str) -> "IOR":
        """Parse the ``IOR:<hex>`` form back into an :class:`IOR`; either
        byte order."""
        if not text.startswith("IOR:"):
            raise UnmarshalError(f"not a stringified IOR: {text[:16]!r}")
        try:
            raw = binascii.unhexlify(text[4:])
        except (binascii.Error, ValueError) as exc:
            raise UnmarshalError(f"bad IOR hex: {exc}") from exc
        return decode_encapsulation(_IOR, raw)


_IOR = build(Row(IOR, ("type_id", STRING), ("host", STRING),
                 ("port", USHORT), ("object_key", OCTETS),
                 ("char_codeset", ULONG), ("wchar_codeset", ULONG)),
             1, either_order=True)
