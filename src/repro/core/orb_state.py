"""ORB/POA-level state: discovery, capture, and restoration (paper §4.2).

The ORB offers no hooks for its per-connection state, but that state is
visible *from outside*, in the IIOP byte streams:

* the client-side **request_id counter** is discovered by parsing every
  outgoing request (§4.2.1): the interceptor reads each request's header
  with :func:`repro.giop.messages.peek_request_id` — never its body — and
  reports the id through :meth:`OrbStateTracker.observe_outgoing_request`;
* the **client-server handshake** is discovered by watching delivered
  requests for negotiation ServiceContexts; the whole handshake request
  message is stored so it can later be replayed into a new server replica's
  ORB "ahead of any other IIOP request from the client" (§4.2.2).

:meth:`OrbStateTracker.capture` produces the blob piggybacked onto the
fabricated ``set_state()``; restoration happens in
:mod:`repro.core.recovery` (offset installation in the Interceptor plus
handshake injection).
"""

from __future__ import annotations

from typing import Dict

from repro.core.identifiers import ConnectionKey
from repro.giop.messages import RequestMessage, decode_message
from repro.giop.service_context import (
    CODE_SETS_ID,
    VENDOR_HANDSHAKE_ID,
    find_context,
)
from repro.giop.types import encode_any, decode_any, to_any


class OrbStateTracker:
    """Per-replica observer of the ORB/POA-level state visible on the wire."""

    def __init__(self) -> None:
        # client side: last request_id seen leaving this replica's ORB
        # (wire values, i.e. after any interceptor rewrite)
        self.client_request_ids: Dict[ConnectionKey, int] = {}
        # server side: the stored handshake request per connection
        self.handshakes: Dict[ConnectionKey, bytes] = {}

    # -- observation ------------------------------------------------------

    def observe_outgoing_request(self, connection: ConnectionKey,
                                 wire_request_id: int) -> None:
        """Record the request_id of an outgoing request (client side)."""
        current = self.client_request_ids.get(connection, -1)
        if wire_request_id > current:
            self.client_request_ids[connection] = wire_request_id

    def observe_delivered_request(self, connection: ConnectionKey,
                                  iiop_bytes: bytes) -> None:
        """Watch a request delivered to the local server replica; store it
        if it carries the client-server handshake for a new connection."""
        if connection in self.handshakes:
            return
        message = decode_message(iiop_bytes)
        if not isinstance(message, RequestMessage):
            return
        contexts = list(message.service_contexts)
        if (find_context(contexts, VENDOR_HANDSHAKE_ID) is not None
                or find_context(contexts, CODE_SETS_ID) is not None):
            self.handshakes[connection] = iiop_bytes

    # -- capture / restore -------------------------------------------------

    def capture(self) -> bytes:
        """Serialize for piggybacking onto a fabricated set_state()."""
        payload = {
            "request_ids": {
                conn.as_str(): rid
                for conn, rid in self.client_request_ids.items()
            },
            "handshakes": {
                conn.as_str(): data
                for conn, data in self.handshakes.items()
            },
        }
        return encode_any(to_any(payload))

    @classmethod
    def decode(cls, blob: bytes) -> "OrbStateTracker":
        """Rebuild a tracker from :meth:`capture` output."""
        tracker = cls()
        if not blob:
            return tracker
        payload = decode_any(blob).value
        for conn_text, rid in payload.get("request_ids", {}).items():
            tracker.client_request_ids[ConnectionKey.from_str(conn_text)] = rid
        for conn_text, data in payload.get("handshakes", {}).items():
            tracker.handshakes[ConnectionKey.from_str(conn_text)] = data
        return tracker
