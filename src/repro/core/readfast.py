"""Leader-lease read fast path (LLFT-style application-aware relaxation).

The paper's mechanisms put *every* IIOP message through Totem's total
order — correct, but a full token rotation per read is a steep price for
operations that cannot change state.  Following the Low Latency Fault
Tolerance line of work (application-supplied ordering metadata), servants
may declare operations ``read_only`` (:func:`repro.orb.servant.operation`),
and this coordinator serves those point-to-point:

* the client-side interceptor diverts a read-only request to the target
  group's **leaseholder** — the lowest operational executing member in the
  current Totem ring — instead of multicasting it;
* the leaseholder executes it on its local replica (through the ordinary
  container FIFO, so the read is serialized against the ordered writes
  that replica is applying) and unicasts the reply straight back;
* everything else — writes, passive-style groups, replicated clients,
  connections whose handshake has not been ordered yet — stays on the
  total order, and any doubt (ring change, lease guard failure, timeout)
  falls back to it.

**Why the lease is safe.**  The lease *is* ring membership, bounded by
Totem's failure detectors.  A leaseholder partitioned from the survivors
stops receiving the token and declares token loss after
``token_timeout``; the survivors need a full gather + two-pass commit
token (> ``gather_timeout`` after the same silence) before a new ring can
order a write.  With ``token_timeout`` comparable to ``gather_timeout``
(the shipped configs keep a wide margin), the stale leaseholder has
stopped serving reads — every guard below re-checks ``totem.operational``
and the installed ``ring_id`` — before the new ring is operational, so no
fast read can return a value that a write ordered in a newer ring has
already overwritten.  Within one ring, the leaseholder serves reads
through the same replica FIFO that applies delivered writes, so every
read reflects a prefix of the total order that includes all writes whose
replies have been delivered: linearizable for the single-client groups
the fast path is gated to.

The auditor (:mod:`repro.obs.audit`) shadows the same rule: every
``lease.read_served`` event must fall inside the serving node's installed
ring window (strict mode flags violations).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.envelope import IiopEnvelope
from repro.core.identifiers import ConnectionKey
from repro.giop.messages import ReplyMessage, decode_message
from repro.orb.servant import read_only_operations
from repro.runtime.interfaces import TimerHandle
from repro.totem.wire import (
    ReadFastNack,
    ReadFastReply,
    ReadFastRequest,
)

#: Client-side fallback: a fast-path read unanswered for this long is
#: re-issued through the total order (idempotent — read_only operations
#: may execute twice).  Seconds.
READ_LEASE_TIMEOUT = 0.25

#: Client-side pending fast read: fallback timer + the captured envelope
#: (re-multicast through the total order if the fast path goes quiet).
_Fetch = Tuple[Optional[TimerHandle], IiopEnvelope]


class ReadFastCoordinator:
    """Per-node fast-read machinery, attached to the Replication
    Mechanisms (constructed only when ``EternalConfig.read_lease``)."""

    def __init__(self, mechanisms) -> None:
        self.mech = mechanisms
        self.totem = mechanisms.totem
        self.endpoint = mechanisms.endpoint
        self.process = mechanisms.process
        self.node_id = mechanisms.node_id
        self.tracer = mechanisms.tracer
        # (connection, wire request_id) -> (fallback timer, envelope)
        self._pending_fetch: Dict[Tuple[ConnectionKey, int], _Fetch] = {}
        # (group, conn string, wire request_id) -> (requester, ring served)
        self._pending_serve: Dict[Tuple[str, str, int], Tuple[str, int]] = {}
        self.endpoint.register(ReadFastRequest, self._on_request)
        self.endpoint.register(ReadFastReply, self._on_reply)
        self.endpoint.register(ReadFastNack, self._on_nack)
        mechanisms.on_view_event(self._on_view_event)
        self.process.on_crash(self._on_crash)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def try_fast_read(self, connection: ConnectionKey, wire_id: int,
                      operation: str, envelope: IiopEnvelope) -> bool:
        """Interceptor hook: divert this captured request to the fast path?

        Returns True when the request was taken (sent to the leaseholder,
        fallback armed); False routes it through the total order as usual.
        """
        leaseholder = self._leaseholder_for(connection, operation)
        if leaseholder is None:
            return False
        request = ReadFastRequest(
            group_id=connection.server_group,
            conn=connection.as_str(),
            request_id=wire_id,
            requester=self.node_id,
            ring_id=self.totem.ring_id,
            iiop_bytes=envelope.iiop_bytes,
        )
        if request.size_bytes > self.endpoint.mtu_payload:
            return False
        timer = self.process.call_after(
            READ_LEASE_TIMEOUT,
            self._fallback, connection, wire_id, "timeout",
        )
        self._pending_fetch[(connection, wire_id)] = (timer, envelope)
        self.tracer.emit("lease", "read_fast", node=self.node_id,
                         group=connection.server_group,
                         conn=connection.as_str(), request_id=wire_id,
                         leaseholder=leaseholder,
                         ring_id=self.totem.ring_id)
        self._send(leaseholder, request)
        return True

    def _leaseholder_for(self, connection: ConnectionKey,
                         operation: str) -> Optional[str]:
        """The node to ask, or None when any fast-path gate fails."""
        totem = self.totem
        if not totem.operational:
            return None
        info = self.mech.groups.get(connection.server_group)
        if info is None or info.style.is_passive:
            # Passive backups lag the primary by up to a checkpoint
            # interval; keep the whole group on the total order.
            return None
        if operation not in read_only_operations(info.type_id):
            return None
        client_info = self.mech.groups.get(connection.client_group)
        if client_info is None:
            return None
        client_executors = [n for n in client_info.operational_nodes()
                            if client_info.executes(n)]
        if client_executors != [self.node_id]:
            # A replicated client must see one reply stream through the
            # total order, or its replicas' last-result state diverges.
            return None
        candidates = [n for n in info.operational_nodes()
                      if info.executes(n) and n in totem.members]
        if not candidates:
            return None
        return min(candidates)

    def _fallback(self, connection: ConnectionKey, wire_id: int,
                  reason: str) -> None:
        """Give up on the fast path for one read: re-issue it through the
        total order (idempotent — the read may execute twice)."""
        entry = self._pending_fetch.pop((connection, wire_id), None)
        if entry is None:
            return
        timer, envelope = entry
        self.process.scheduler.cancel(timer)
        self.tracer.emit("lease", "fallback", node=self.node_id,
                         conn=connection.as_str(), request_id=wire_id,
                         reason=reason)
        self.mech.multicast(envelope)

    def _on_reply(self, src: str, msg: ReadFastReply) -> None:
        connection = ConnectionKey.from_str(msg.conn)
        entry = self._pending_fetch.pop((connection, msg.request_id), None)
        if entry is not None:
            self.process.scheduler.cancel(entry[0])
        binding = self.mech.bindings.get(connection.client_group)
        if binding is None:
            return
        # Deliver even when the fallback already fired: the ordered copy's
        # reply will be discarded by the ORB as already answered (reads
        # are idempotent), and answering now is strictly faster.
        self.tracer.emit("lease", "read_reply", node=self.node_id,
                         conn=msg.conn, request_id=msg.request_id,
                         served_by=src)
        binding.interceptor.note_reply_delivered(connection, msg.request_id)
        data = binding.interceptor.rewrite_incoming_reply(
            connection, bytes(msg.iiop_bytes))
        from repro.core.replication import IOR_PORT
        binding.container.submit_reply(connection.server_group, IOR_PORT,
                                       data)

    def _on_nack(self, src: str, msg: ReadFastNack) -> None:
        connection = ConnectionKey.from_str(msg.conn)
        self.tracer.emit("lease", "nack", node=self.node_id,
                         conn=msg.conn, request_id=msg.request_id,
                         reason=msg.reason)
        self._fallback(connection, msg.request_id, f"nack:{msg.reason}")

    # ------------------------------------------------------------------
    # Server (leaseholder) side
    # ------------------------------------------------------------------

    def _on_request(self, src: str, msg: ReadFastRequest) -> None:
        refusal = self._serve_refusal(msg)
        if refusal is not None:
            self.tracer.emit("lease", "refused", node=self.node_id,
                             group=msg.group_id, request_id=msg.request_id,
                             reason=refusal)
            self._send(msg.requester, ReadFastNack(
                group_id=msg.group_id, conn=msg.conn,
                request_id=msg.request_id, reason=refusal))
            return
        binding = self.mech.bindings[msg.group_id]
        connection = ConnectionKey.from_str(msg.conn)
        key = (msg.group_id, msg.conn, msg.request_id)
        self._pending_serve[key] = (msg.requester, self.totem.ring_id)
        self.tracer.emit("lease", "read_served", node=self.node_id,
                         group=msg.group_id, conn=msg.conn,
                         request_id=msg.request_id,
                         ring_id=self.totem.ring_id)
        # Through the ordinary container FIFO: the read executes after
        # every ordered write already submitted to this replica.
        binding.container.submit_request(connection, bytes(msg.iiop_bytes))

    def _serve_refusal(self, msg: ReadFastRequest) -> Optional[str]:
        """Why this node cannot serve the read, or None when it can."""
        totem = self.totem
        if not totem.operational or totem.ring_id != msg.ring_id:
            return "ring_changed"
        binding = self.mech.bindings.get(msg.group_id)
        info = self.mech.groups.get(msg.group_id)
        if binding is None or info is None or not binding.operational:
            return "not_operational"
        if info.style.is_passive or not info.executes(self.node_id):
            return "not_leaseholder"
        if any(seq > totem.delivered_aru for seq in totem._held):
            # Ordered traffic is in flight that this member has received
            # but not yet delivered — a read now might miss a write the
            # ring has already sequenced.
            return "delivery_gap"
        connection = ConnectionKey.from_str(msg.conn)
        if connection not in binding.orb_state.handshakes:
            # The connection's handshake must be ordered (and therefore
            # replayable to every replica) before any traffic bypasses
            # the total order (§4.2.2).
            return "no_handshake"
        return None

    def intercept_reply(self, binding, connection: ConnectionKey,
                        data: bytes) -> bool:
        """Called by the mechanisms for every locally produced reply,
        *before* it is captured for multicast.  Returns True when the
        reply answers a pending fast read and was routed point-to-point
        (the ordered capture must then be skipped)."""
        if not self._pending_serve:
            return False
        message = decode_message(data)
        if not isinstance(message, ReplyMessage):
            return False
        key = (binding.group_id, connection.as_str(), message.request_id)
        entry = self._pending_serve.pop(key, None)
        if entry is None:
            return False
        requester, served_ring = entry
        reply = ReadFastReply(
            group_id=binding.group_id, conn=connection.as_str(),
            request_id=message.request_id, ring_id=served_ring,
            iiop_bytes=data,
        )
        if (not self.totem.operational
                or self.totem.ring_id != served_ring
                or reply.size_bytes > self.endpoint.mtu_payload):
            # The ring moved while the read executed (lease revoked), or
            # the reply cannot travel in one frame: make the client fall
            # back to the total order instead of answering.
            self._send(requester, ReadFastNack(
                group_id=binding.group_id, conn=connection.as_str(),
                request_id=message.request_id, reason="stale_reply"))
            return True
        self._send(requester, reply)
        return True

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    def _send(self, dst: str, frame) -> None:
        """Point-to-point fast-path frame (loopback short-circuits)."""
        if dst == self.node_id:
            self.endpoint.deliver(self.node_id, frame)
            return
        self.endpoint.unicast(dst, frame, frame.size_bytes, oob=True)

    def _on_view_event(self, view, lost, joined) -> None:
        """Any ring transition revokes the lease: outstanding serves are
        dropped (their replies would be nacked as stale anyway) and
        outstanding fetches fall back to the total order immediately."""
        self._pending_serve.clear()
        for connection, wire_id in list(self._pending_fetch):
            self._fallback(connection, wire_id, "ring_change")

    def _on_crash(self) -> None:
        for timer, _envelope in self._pending_fetch.values():
            self.process.scheduler.cancel(timer)
        self._pending_fetch.clear()
        self._pending_serve.clear()
