"""The Eternal Interceptor (paper §2, footnote 1).

"Eternal's Interceptor is an IIOP message interceptor that is not part of
the ORB stack and is located outside the ORB, at the ORB's socket-level
interface to the operating system."  It captures the IIOP messages intended
for TCP/IP and diverts them to the Replication Mechanisms for multicasting.
It reads what it captures the way the paper's interceptor does — the
header of each message (:func:`repro.giop.messages.peek_request_id`), not
the body its own ORB has just encoded.

Beyond diversion, the interceptor is where ORB/POA-level request_id
synchronization is *enforced* from outside the ORB (§4.2.1): a recovered
replica's ORB restarts its per-connection request_id counters at zero, so
the interceptor installs a per-connection **rewrite offset** — outgoing
requests have their GIOP request_id patched up to the group-consistent
value, and incoming replies are patched back down before the ORB sees them.
The ORB itself is never modified and never knows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.envelope import IiopEnvelope
from repro.core.identifiers import ConnectionKey, OpKind, invocation_trace_id
from repro.core.infra_state import InfraState
from repro.core.orb_state import OrbStateTracker
from repro.giop.messages import (
    ReplyMessage,
    decode_message,
    encode_message,
    peek_request_id,
)
from repro.obs.spans import SpanEmitter
from repro.runtime.trace import NULL_TRACER, Tracer

SendFn = Callable[[IiopEnvelope], None]


class Interceptor:
    """Per-replica IIOP capture point between one ORB and the mechanisms."""

    def __init__(
        self,
        node_id: str,
        group_id: str,
        send: SendFn,
        infra: InfraState,
        orb_state: OrbStateTracker,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.node_id = node_id
        self.group_id = group_id
        self._send = send
        self._infra = infra
        self._orb_state = orb_state
        self.tracer = tracer
        self._spans = SpanEmitter(tracer, node_id=node_id)
        self._offsets: Dict[ConnectionKey, int] = {}
        self.suppressed_reissues = 0
        #: Optional read fast-path hook (repro.core.readfast): called with
        #: (connection, wire_id, operation, envelope) for each captured
        #: two-way request; returning True claims the request for
        #: point-to-point service instead of the total-order multicast.
        self.fast_path: Optional[
            Callable[[ConnectionKey, int, str, IiopEnvelope], bool]] = None
        # Two-way invocations issued by this replica whose replies have
        # not come back yet (rendered by the health exposition), with the
        # captured envelope kept for retransmission: a request ordered
        # while its target group had no live members is dropped by
        # everyone, and only the issuing side can put it back on the wire.
        self._open_roundtrips: Dict[Tuple[ConnectionKey, int],
                                    IiopEnvelope] = {}

    def _rpc_span_id(self, connection: ConnectionKey,
                     request_id: int) -> str:
        return f"rpc:{self.node_id}:{connection.as_str()}:{request_id}"

    #: The invocation's end-to-end trace id (see
    #: :func:`repro.core.identifiers.invocation_trace_id`): the client-side
    #: request capture and the server-side reply capture compute the same
    #: id independently, so one trace spans the whole round trip.
    trace_id = staticmethod(invocation_trace_id)

    # ------------------------------------------------------------------
    # request_id rewrite offsets (installed during recovery, §4.2.1)
    # ------------------------------------------------------------------

    def set_request_id_offset(self, connection: ConnectionKey,
                              offset: int) -> None:
        self._offsets[connection] = offset

    def request_id_offset(self, connection: ConnectionKey) -> int:
        return self._offsets.get(connection, 0)

    # ------------------------------------------------------------------
    # Outgoing capture (the ORB believes this is TCP)
    # ------------------------------------------------------------------

    def capture_client_request(self, host: str, port: int,
                               data: bytes) -> None:
        """Transport hook installed on the replica ORB's client side."""
        connection = ConnectionKey(client_group=self.group_id,
                                   server_group=host)
        # The header is all the capture needs; the body is decoded only
        # to rewrite the request_id of a recovered replica's ORB.
        request_id, response_expected, operation = peek_request_id(data)
        offset = self._offsets.get(connection, 0)
        wire_id = request_id + offset
        if offset:
            message = decode_message(data)
            data = encode_message(replace(message, request_id=wire_id))
        self._orb_state.observe_outgoing_request(connection, wire_id)
        envelope = IiopEnvelope(connection, OpKind.REQUEST, wire_id,
                                self.node_id, data)
        if (response_expected and self.fast_path is not None
                and self.fast_path(connection, wire_id, operation,
                                   envelope)):
            # Claimed by the leader-lease read fast path: served
            # point-to-point, off the total order and off the infra
            # books (reads are idempotent; a recovery re-issue simply
            # reads again).  Still an open round trip — the fallback
            # machinery and the retransmission safety net both key on it.
            self._open_roundtrips[(connection, wire_id)] = envelope
            trace_id = self.trace_id(connection, wire_id)
            self.tracer.add("interceptor.request_fast", 1)
            self._spans.start(
                "rpc.roundtrip",
                span_id=self._rpc_span_id(connection, wire_id),
                node=self.node_id, group=self.group_id,
                conn=connection.as_str(), request_id=wire_id,
                operation=operation, trace=trace_id,
            )
            return
        if response_expected:
            # Track before the reissue check: a suppressed reissue is
            # still awaiting its reply, so it is still outstanding.
            self._open_roundtrips[(connection, wire_id)] = envelope
        is_new = self._infra.record_issued(
            connection, wire_id, operation, response_expected,
        )
        if not is_new:
            # A deterministic re-issue after recovery: already on the wire
            # before the replica failed.  Suppress the duplicate multicast
            # but keep awaiting the reply.
            self.suppressed_reissues += 1
            return
        trace_id = self.trace_id(connection, wire_id)
        if response_expected:
            # One round-trip span per two-way invocation: capture here,
            # closed when the matching reply is delivered back to this
            # replica (note_reply_delivered).  Its start is the send.
            self._spans.start(
                "rpc.roundtrip",
                span_id=self._rpc_span_id(connection, wire_id),
                node=self.node_id, group=self.group_id,
                conn=connection.as_str(), request_id=wire_id,
                operation=operation, trace=trace_id,
            )
        else:
            # A oneway send opens no span: this record is its send.
            self.tracer.emit("interceptor", "request", node=self.node_id,
                             conn=connection.as_str(), request_id=wire_id,
                             trace=trace_id)
        self._send(envelope)

    def capture_server_reply(self, connection: ConnectionKey,
                             data: bytes) -> None:
        """Capture a reply produced by the local server replica."""
        request_id = peek_request_id(data)[0]
        trace_id = self.trace_id(connection, request_id)
        self.tracer.emit("interceptor", "reply", node=self.node_id,
                         conn=connection.as_str(),
                         request_id=request_id, trace=trace_id)
        self._send(IiopEnvelope(connection, OpKind.REPLY,
                                request_id, self.node_id, data))

    # ------------------------------------------------------------------
    # Incoming rewrite (before the ORB sees a reply)
    # ------------------------------------------------------------------

    @property
    def outstanding_invocations(self) -> int:
        """Two-way invocations issued but not yet answered."""
        return len(self._open_roundtrips)

    def note_reply_delivered(self, connection: ConnectionKey,
                             request_id: int) -> None:
        """Close the round-trip span opened when the request was captured
        (``request_id`` is the wire id; no-op for unmatched replies)."""
        self._open_roundtrips.pop((connection, request_id), None)
        self._spans.end(self._rpc_span_id(connection, request_id))

    def open_requests(self) -> List[IiopEnvelope]:
        """The captured envelopes of every two-way invocation still
        awaiting its reply, in issue order — the retransmission
        candidates after the target group went through a window with no
        live members."""
        return [self._open_roundtrips[key]
                for key in sorted(self._open_roundtrips,
                                  key=lambda k: (k[0].as_str(), k[1]))]

    def rewrite_incoming_reply(self, connection: ConnectionKey,
                               data: bytes) -> bytes:
        """Patch a delivered reply's request_id back into the local ORB's
        numbering (inverse of the outgoing rewrite)."""
        offset = self._offsets.get(connection, 0)
        if not offset:
            return data
        message = decode_message(data)
        assert isinstance(message, ReplyMessage)
        return encode_message(
            replace(message, request_id=message.request_id - offset)
        )
