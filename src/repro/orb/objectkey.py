"""Object keys: the opaque bytes a POA embeds in IORs to find servants.

Full keys encode (POA name, object id).  *Short keys* are the
vendor-negotiated compact form (paper §4.2.2, VisiBroker 4.0's shortcut):
after the handshake, the client sends a 4-byte token instead of the full
key, and only a server ORB that witnessed (or was replayed) the negotiation
can map the token back.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ProtocolError
from repro.giop.cdr import U16, U32

FULL_KEY_TAG = 0x00
SHORT_KEY_TAG = 0x01


def make_key(poa_name: str, object_id: bytes) -> bytes:
    """Build a full object key for (POA, object id)."""
    poa_bytes = poa_name.encode("utf-8")
    return bytes([FULL_KEY_TAG]) + U16[0].pack(len(poa_bytes)) \
        + poa_bytes + object_id


def parse_key(key: bytes) -> Tuple[str, bytes]:
    """Split a full object key back into (POA name, object id)."""
    if not key or key[0] != FULL_KEY_TAG:
        raise ProtocolError(f"not a full object key: {key[:8]!r}")
    if len(key) < 3:
        raise ProtocolError("truncated object key")
    length = U16[0].unpack_from(key, 1)[0]
    if len(key) < 3 + length:
        raise ProtocolError("truncated object key POA name")
    poa_name = str(key[3:3 + length], "utf-8")
    return poa_name, key[3 + length:]


def make_short_key(token: int) -> bytes:
    """Build the negotiated compact key for ``token``."""
    return bytes([SHORT_KEY_TAG]) + U32[0].pack(token)


def parse_short_key(key: bytes) -> int:
    """Extract the token from a short key."""
    if len(key) != 5 or key[0] != SHORT_KEY_TAG:
        raise ProtocolError(f"not a short object key: {key[:8]!r}")
    return U32[0].unpack_from(key, 1)[0]


def is_short_key(key: bytes) -> bool:
    """True if ``key`` is a negotiated vendor short key."""
    return bool(key) and key[0] == SHORT_KEY_TAG


def is_full_key(key: bytes) -> bool:
    """True if ``key`` is a full (POA name + object id) key."""
    return bool(key) and key[0] == FULL_KEY_TAG
