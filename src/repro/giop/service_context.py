"""GIOP ServiceContexts, including the client-server handshake payloads.

"CORBA's GIOP allows vendor-specific information to propagate from the
client to the server through the ServiceContext field of IIOP request
messages" (paper §4.2.2).  Two uses matter for recovery:

* **Code set negotiation** (standard context id 1): the agreed character /
  wide-character transmission code sets, negotiated once per connection at
  the initial handshake.
* **Vendor-specific shortcuts** (our vendor context id): following
  VisiBroker 4.0's short-object-key negotiation, the client and server agree
  on a compact token that replaces the full object key in subsequent
  requests.  A server ORB that never saw the negotiation cannot interpret
  requests that use the token — the exact §4.2.2 failure mode Eternal fixes
  by replaying the stored handshake message to a new server replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import UnmarshalError
from repro.giop.cdr import (CdrInputStream, CdrOutputStream, r_octets,
                            r_ulong, w_octets, w_ulong)

CODE_SETS_ID = 1
"""OMG-standard ServiceContext id for code-set negotiation."""

VENDOR_HANDSHAKE_ID = 0x45544552
"""Our vendor-specific context id (``ETER`` in ASCII)."""

# Code set registry values (OSF charset registry)
CODESET_ISO8859_1 = 0x00010001
CODESET_UTF8 = 0x05010001
CODESET_UTF16 = 0x00010109


@dataclass(frozen=True)
class ServiceContext:
    """One (context_id, context_data) entry of a GIOP service context list."""

    context_id: int
    context_data: bytes


def write_service_contexts(buf: bytearray,
                           contexts: Sequence[ServiceContext],
                           le: int = 0) -> None:
    """Append a GIOP service-context list (ulong count then entries) to a
    message body in byte order ``le`` (0 big-endian, 1 little-endian)."""
    w_ulong(buf, len(contexts), le)
    for ctx in contexts:
        w_ulong(buf, ctx.context_id, le)
        w_octets(buf, ctx.context_data, le)


def read_service_contexts(data, pos: int = 0, le: int = 0
                          ) -> Tuple[Tuple[ServiceContext, ...], int]:
    """Read a GIOP service-context list at ``pos``; returns ``(contexts,
    next_pos)``.  Guards implausible counts."""
    count, pos = r_ulong(data, pos, le)
    if not count:
        return (), pos
    if count > 1_000_000:
        raise UnmarshalError(f"implausible service context count {count}")
    contexts = []
    for _ in range(count):
        context_id, pos = r_ulong(data, pos, le)
        context_data, pos = r_octets(data, pos, le)
        contexts.append(ServiceContext(context_id, context_data))
    return tuple(contexts), pos


@dataclass(frozen=True)
class CodeSetContext:
    """The negotiated char / wchar transmission code sets."""

    char_data: int = CODESET_UTF8
    wchar_data: int = CODESET_UTF16

    def to_service_context(self) -> ServiceContext:
        out = CdrOutputStream()
        out.write_boolean(out.little_endian)
        out.write_ulong(self.char_data)
        out.write_ulong(self.wchar_data)
        return ServiceContext(CODE_SETS_ID, out.getvalue())

    @classmethod
    def from_service_context(cls, ctx: ServiceContext) -> "CodeSetContext":
        if ctx.context_id != CODE_SETS_ID:
            raise UnmarshalError(
                f"not a code-set context (id={ctx.context_id:#x})"
            )
        probe = CdrInputStream(ctx.context_data)
        little = probe.read_boolean()
        inp = CdrInputStream(ctx.context_data, little_endian=little)
        inp.read_boolean()
        return cls(char_data=inp.read_ulong(), wchar_data=inp.read_ulong())


@dataclass(frozen=True)
class VendorHandshakeContext:
    """Vendor-specific negotiation payload.

    On the *first* request of a connection the client sends
    ``propose=True`` with the full object key it wants shortened; the server
    replies with a ``short_key_token`` it will accept in place of that key.
    Subsequent client requests carry ``propose=False`` plus the token.
    """

    propose: bool
    object_key: bytes = b""
    short_key_token: int = 0

    def to_service_context(self) -> ServiceContext:
        out = CdrOutputStream()
        out.write_boolean(out.little_endian)
        out.write_boolean(self.propose)
        out.write_octets(self.object_key)
        out.write_ulong(self.short_key_token)
        return ServiceContext(VENDOR_HANDSHAKE_ID, out.getvalue())

    @classmethod
    def from_service_context(cls, ctx: ServiceContext) -> "VendorHandshakeContext":
        if ctx.context_id != VENDOR_HANDSHAKE_ID:
            raise UnmarshalError(
                f"not a vendor handshake context (id={ctx.context_id:#x})"
            )
        probe = CdrInputStream(ctx.context_data)
        little = probe.read_boolean()
        inp = CdrInputStream(ctx.context_data, little_endian=little)
        inp.read_boolean()
        return cls(
            propose=inp.read_boolean(),
            object_key=inp.read_octets(),
            short_key_token=inp.read_ulong(),
        )


def find_context(contexts: List[ServiceContext],
                 context_id: int) -> Optional[ServiceContext]:
    """First context with the given id, or None."""
    for ctx in contexts:
        if ctx.context_id == context_id:
            return ctx
    return None
