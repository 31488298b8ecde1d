"""The ORB core: connection management and request/reply routing.

One :class:`Orb` instance serves one replica ("each replica has its own ORB
on a distinct processor", paper §4.2).  It is deliberately ignorant of
replication: it believes it talks IIOP over point-to-point connections.
Eternal's Interceptor supplies the transport underneath and is free to
divert, duplicate-filter, and rewrite the byte streams — the transparency
the paper is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ObjectNotFound, OrbError, ProtocolError
from repro.giop.ior import IOR
from repro.giop.messages import (
    ReplyMessage,
    RequestMessage,
    decode_message,
    encode_message,
)
from repro.orb.connection import ClientConnection, ServerConnectionState
from repro.orb.poa import POA
from repro.orb.proxy import ObjectProxy
from repro.orb.servant import Servant

# transport hook: send(host, port, giop_bytes)
ClientTransport = Callable[[str, int, bytes], None]
# default handler for replies whose request had no per-call callback:
# handler(connection_id, operation, reply)
DefaultReplyHandler = Callable[[str, str, ReplyMessage], None]

DEFAULT_PORT = 2809


@dataclass
class DecodedRequest:
    """A server-side request after connection-state processing, ready for
    dispatch (the hosting container schedules execution time)."""

    connection_id: str
    request: RequestMessage
    servant: Servant
    full_key: bytes
    duration: float
    reply_contexts: tuple


class Orb:
    """A miniature ORB hosting POAs and client connections."""

    def __init__(self, name: str, *, host: str = "localhost",
                 port: int = DEFAULT_PORT) -> None:
        self.name = name
        self.host = host
        self.port = port
        self._poas: Dict[str, POA] = {}
        self._client_conns: Dict[Tuple[str, int], ClientConnection] = {}
        self._server_conns: Dict[str, ServerConnectionState] = {}
        self._transport: Optional[ClientTransport] = None
        self._default_reply_handler: Optional[DefaultReplyHandler] = None
        self.requests_discarded = 0

    # ------------------------------------------------------------------
    # POA / servant side
    # ------------------------------------------------------------------

    def create_poa(self, name: str) -> POA:
        if name in self._poas:
            raise OrbError(f"POA {name!r} already exists")
        poa = POA(name)
        self._poas[name] = poa
        return poa

    def poa(self, name: str) -> POA:
        try:
            return self._poas[name]
        except KeyError:
            raise OrbError(f"no POA named {name!r}") from None

    def activate(self, servant: Servant, *, poa_name: str = "RootPOA",
                 object_id: Optional[bytes] = None) -> IOR:
        """Activate a servant (creating the POA on demand); returns its IOR."""
        poa = self._poas.get(poa_name)
        if poa is None:
            poa = self.create_poa(poa_name)
        key = poa.activate_object(servant, object_id)
        return IOR(type_id=servant.type_id, host=self.host, port=self.port,
                   object_key=key)

    def _servant_for_key(self, key: bytes) -> Servant:
        from repro.orb.objectkey import parse_key
        poa_name, _ = parse_key(key)
        poa = self._poas.get(poa_name)
        if poa is None:
            raise ObjectNotFound(f"no POA {poa_name!r} in ORB {self.name!r}")
        return poa.servant_for_key(key)

    # ------------------------------------------------------------------
    # Server-side request handling (two-phase: decode, then execute)
    # ------------------------------------------------------------------

    def server_connection(self, connection_id: str) -> ServerConnectionState:
        state = self._server_conns.get(connection_id)
        if state is None:
            state = ServerConnectionState(connection_id)
            self._server_conns[connection_id] = state
        return state

    def decode_request(self, connection_id: str,
                       data: bytes) -> Optional[DecodedRequest]:
        """Parse an incoming request and apply connection-state processing.

        Returns ``None`` when the ORB discards the request — notably when it
        carries a short object key this connection never negotiated (§4.2.2).
        """
        message = decode_message(data)
        if not isinstance(message, RequestMessage):
            raise ProtocolError(
                f"expected Request on server path, got {type(message).__name__}"
            )
        conn = self.server_connection(connection_id)
        reply_contexts = conn.process_request_contexts(message)
        full_key = conn.resolve_key(message.object_key)
        if full_key is None:
            self.requests_discarded += 1
            return None
        conn.last_seen_request_id = message.request_id
        servant = self._servant_for_key(full_key)
        duration = servant._operation_duration(message.operation)
        return DecodedRequest(
            connection_id=connection_id,
            request=message,
            servant=servant,
            full_key=full_key,
            duration=duration,
            reply_contexts=tuple(reply_contexts),
        )

    def execute_request(self, decoded: DecodedRequest) -> Optional[bytes]:
        """Dispatch a decoded request; returns encoded reply bytes (None for
        oneways)."""
        from repro.orb.objectkey import parse_key
        poa_name, _ = parse_key(decoded.full_key)
        poa = self._poas[poa_name]
        reply = poa.dispatch(decoded.request, decoded.servant,
                             decoded.reply_contexts)
        if reply is None:
            return None
        return encode_message(reply)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def set_client_transport(self, transport: ClientTransport) -> None:
        """Install the hook that carries outgoing request bytes (in Eternal,
        the Interceptor)."""
        self._transport = transport

    def set_default_reply_handler(self, handler: DefaultReplyHandler) -> None:
        """Replies without a per-call callback are routed here."""
        self._default_reply_handler = handler

    def connect(self, ior: IOR) -> ObjectProxy:
        """Resolve an IOR into an invocable proxy (opening — or reusing —
        the connection to the IOR's endpoint)."""
        endpoint = (ior.host, ior.port)
        conn = self._client_conns.get(endpoint)
        if conn is None:
            conn = ClientConnection(ior.host, ior.port)
            self._client_conns[endpoint] = conn
        return ObjectProxy(self, conn, ior)

    def client_connection(self, host: str,
                          port: int = DEFAULT_PORT) -> Optional[ClientConnection]:
        return self._client_conns.get((host, port))

    def send_request_bytes(self, conn: ClientConnection, data: bytes) -> None:
        if self._transport is None:
            raise OrbError(f"ORB {self.name!r} has no client transport")
        self._transport(conn.host, conn.port, data)

    def handle_reply(self, host: str, port: int, data: bytes) -> bool:
        """Process an incoming reply from (host, port).

        Returns True if it was delivered to the application, False if the
        ORB discarded it (unknown connection or request_id mismatch — the
        Figure 4 failure mode)."""
        reply = decode_message(data)
        if not isinstance(reply, ReplyMessage):
            raise ProtocolError(
                f"expected Reply on client path, got {type(reply).__name__}"
            )
        conn = self._client_conns.get((host, port))
        if conn is None:
            return False
        entry = conn.match_reply(reply)
        if entry is None:
            return False
        operation, callback = entry
        if callback is not None:
            callback(reply)
        elif self._default_reply_handler is not None:
            self._default_reply_handler(f"{host}:{port}", operation, reply)
        return True
