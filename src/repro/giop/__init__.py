"""GIOP/IIOP protocol machinery: CDR marshalling, message formats, IORs.

CORBA's General Inter-ORB Protocol (GIOP) defines the messages client and
server ORBs exchange; IIOP is its TCP/IP mapping.  Eternal operates *below*
the ORB by intercepting and parsing these byte streams — most notably to
discover each connection's current GIOP ``request_id`` (paper §4.2.1) and to
capture the client-server handshake carried in ``ServiceContext``s (§4.2.2).
This package therefore produces and parses real GIOP bytes, not Python
object stand-ins.

Layers:

* :mod:`repro.giop.cdr` — Common Data Representation primitives (proper
  alignment, both byte orders) and the record builder every fixed-layout
  wire and disk format is declared on.
* :mod:`repro.giop.types` — TypeCode-lite and the CORBA ``any`` type used
  for application-level state (``typedef any State``).
* :mod:`repro.giop.messages` — GIOP Request/Reply/etc. headers and bodies.
* :mod:`repro.giop.service_context` — ServiceContext encoding, including
  code-set negotiation and the vendor-specific handshake.
* :mod:`repro.giop.ior` — Interoperable Object References.
"""

from repro.giop.ior import IOR
from repro.giop.messages import (
    GIOP_MAGIC,
    MsgType,
    ReplyStatus,
    GiopHeader,
    RequestMessage,
    ReplyMessage,
    CloseConnectionMessage,
    MessageErrorMessage,
    decode_message,
    encode_message,
    peek_request_id,
)
from repro.giop.service_context import (
    CODE_SETS_ID,
    VENDOR_HANDSHAKE_ID,
    CodeSetContext,
    ServiceContext,
    VendorHandshakeContext,
)
from repro.giop.types import Any as CorbaAny
from repro.giop.types import TCKind, TypeCode, from_any, to_any

__all__ = [
    "TCKind",
    "TypeCode",
    "CorbaAny",
    "to_any",
    "from_any",
    "GIOP_MAGIC",
    "MsgType",
    "ReplyStatus",
    "GiopHeader",
    "RequestMessage",
    "ReplyMessage",
    "CloseConnectionMessage",
    "MessageErrorMessage",
    "encode_message",
    "decode_message",
    "peek_request_id",
    "ServiceContext",
    "CodeSetContext",
    "VendorHandshakeContext",
    "CODE_SETS_ID",
    "VENDOR_HANDSHAKE_ID",
    "IOR",
]
