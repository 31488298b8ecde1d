"""The Totem single-ring member state machine.

Each node runs one :class:`TotemMember`.  A token circulates the ring; only
the holder broadcasts, assigning consecutive sequence numbers, so every
member delivers the identical message sequence (total order).  Members
retain delivered messages until they are *safe* (received by all members,
as witnessed by the token's ``aru``), which lets them service retransmission
requests and flush messages to survivors during membership changes.

State machine::

    OPERATIONAL --token timeout / JOIN seen--> GATHER
    GATHER      --gather deadline, leader FORM--> RECOVERY
    RECOVERY    --flushed + commit rotation--> OPERATIONAL (view installed)

Installation is gated on a two-pass *commit token* rotation of the forming
ring (phase 1 confirms every member flushed; phase 2 installs), so a FORM
computed from an incomplete join set — the sender missed joins under
message loss — can never make a ring operational: its commit token dies at
the first member not pending that exact configuration.  Tokens carry a
``ring_key`` fingerprint because concurrent sibling rings formed from
divergent gather sets collide on the bare ``ring_id``.

A brand-new or re-launched member starts in GATHER with ``fresh=True``; on
installation it skips all pre-join traffic (its ``delivered_aru`` jumps to
the flush sequence).  Restoring the application replica hosted above such a
member is the job of Eternal's recovery mechanisms — Totem only guarantees
that whatever *is* delivered is delivered to all members in the same order.

Sender reliability: a member keeps its own broadcast fragments "in flight"
until it observes their self-delivery; fragments orphaned by a ring
reformation (sent but never sequenced into the surviving history) are
re-queued at the front of the send queue and rebroadcast in the new ring.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace
from zlib import crc32
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NotInRing, TotemError
from repro.obs.spans import SpanEmitter
from repro.runtime.interfaces import TimerHandle, Transport
from repro.runtime.trace import NULL_TRACER, Tracer
from repro.totem.config import TotemConfig
from repro.totem.fragmentation import Fragmenter, Reassembler
from repro.totem.messages import (DATA_HEADER, PACKED_SUBHEADER, DataMsg,
                                  FormMsg, HoldCancel, JoinMsg,
                                  PackedDataMsg, PackedPayload, ProbeMsg,
                                  Token)

DeliverFn = Callable[[str, bytes], None]
ViewFn = Callable[["View"], None]

#: Modelled CPU time to process a token visit: what a member waits before
#: forwarding while the ring is carrying traffic (see _on_token_frame,
#: step 6).  Equal to the simulator's default ``TotemConfig.token_hold``,
#: so simulated runs never see the difference.
TOKEN_PROCESSING_TIME = 20e-6

#: Every this many delivered frames, publish the rolling delivery-order
#: hash as an ``audit.order_digest`` trace record so the consistency
#: auditor can compare members of one configuration (the hash is
#: maintained on every delivery regardless).
ORDER_DIGEST_INTERVAL = 32


class MemberState(enum.Enum):
    """Ring-member protocol phase (see the module docstring)."""

    GATHER = "gather"
    RECOVERY = "recovery"
    OPERATIONAL = "operational"


@dataclass(frozen=True)
class View:
    """A membership view: the ring identifier and its sorted member list."""

    ring_id: int
    members: Tuple[str, ...]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.members


class TotemMember:
    """One ring member; see the module docstring for the protocol."""

    def __init__(
        self,
        endpoint: Transport,
        config: TotemConfig,
        *,
        on_deliver: DeliverFn,
        on_view_change: Optional[ViewFn] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.endpoint = endpoint
        self.config = config
        self.tracer = tracer
        self._spans = SpanEmitter(tracer, node_id=endpoint.node_id)
        self.on_deliver = on_deliver
        self.on_view_change = on_view_change
        self.node_id = endpoint.node_id
        self._scheduler = endpoint.process.scheduler

        # Ring state
        self.state = MemberState.GATHER
        self.ring_id = 0
        self.members: Tuple[str, ...] = ()
        self.fresh = True
        self.delivered_aru = 0          # highest contiguously delivered seq
        self._held: Dict[int, DataMsg] = {}
        self._held_low = 1              # no sequence below this is held
        # Rolling hash over the delivered frame sequence: members of one
        # ring configuration must agree at every publication point (the
        # total-order guarantee, verified online by the auditor).  Keyed
        # by ring id *and* member set — partitioned halves can compute
        # the same successor ring id independently.
        self._order_hash = 0
        self._order_base = 0
        self._order_ring_key = ""

        # Sending
        max_chunk = endpoint.mtu_payload - DATA_HEADER
        self._fragmenter = Fragmenter(self.node_id, max_chunk)
        self._reassembler = Reassembler(observer=self._on_reassembly)
        self._send_queue: Deque[tuple] = deque()
        self._inflight: Dict[Tuple[Tuple[str, int], int], tuple] = {}

        # Membership bookkeeping
        self.last_install_was_fresh = False
        self._joins: Dict[str, JoinMsg] = {}
        self._pending_form: Optional[FormMsg] = None
        self._ring_key = 0              # fingerprint of the installed ring
        self._base_seen = 0             # base_seq of the installed ring
        self._commit_started = False
        self._stashed_commit: Optional[Token] = None
        self._commit_retry: Optional[TimerHandle] = None
        self._commit_retries = 0
        self._ring_kicked = False
        self._sent_token: Optional[Tuple[Token, str]] = None
        self._token_retx: Optional[TimerHandle] = None
        self._last_token_rot = -1
        self._prev_token_seq = 0        # token.seq as received last visit
        # The hold in progress (step 6 of a token visit), and — while that
        # hold is a quiet ring's long one — the token it is sleeping on,
        # which a multicast here or a HoldCancel from a peer releases.
        self._hold_timer: Optional[TimerHandle] = None
        self._parked: Optional[Token] = None
        self._ring_quiet = False        # our last visit parked the token
        self._woken = False             # a peer's cancel: next visit is busy
        self._gather_deadline: Optional[TimerHandle] = None
        self._join_timer: Optional[TimerHandle] = None
        self._token_timer: Optional[TimerHandle] = None
        self._recovery_deadline: Optional[TimerHandle] = None
        self._active = True

        self._last_probe = 0.0
        endpoint.register(DataMsg, self._on_data)
        endpoint.register(PackedDataMsg, self._on_data)
        endpoint.register(Token, self._on_token_frame)
        endpoint.register(JoinMsg, self._on_join)
        endpoint.register(FormMsg, self._on_form)
        endpoint.register(ProbeMsg, self._on_probe)
        endpoint.register(HoldCancel, self._on_hold_cancel)
        endpoint.process.on_crash(self.shutdown)

        self._enter_gather()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def view(self) -> View:
        return View(self.ring_id, self.members)

    @property
    def operational(self) -> bool:
        return self.state is MemberState.OPERATIONAL

    @property
    def reassembly_pending(self) -> int:
        """Partially reassembled application messages currently buffered
        (exposed as the ``eternal_totem_partial_count`` health gauge)."""
        return self._reassembler.pending

    def multicast(self, payload: bytes, *, trace_id: str = "") -> None:
        """Queue ``payload`` for reliable totally-ordered delivery to all
        ring members (including this one).  Larger-than-MTU payloads are
        fragmented into multiple sequenced frames.  ``trace_id`` rides
        every fragment to the delivery emit on each member, tying the ring
        hop into the sender's end-to-end invocation trace."""
        if not self._active:
            raise NotInRing(f"{self.node_id}: member is shut down")
        if len(self._send_queue) >= self.config.max_queue:
            raise TotemError(f"{self.node_id}: send queue overflow")
        self._send_queue.extend(
            entry + (trace_id,) for entry in self._fragmenter.fragment(payload))
        # Nobody sleeps on a token somebody needs: end the quiet hold, ours
        # or (once per quiet episode) whoever's it is.  Both flags are set
        # only by a visit of an operational member that found this queue
        # empty, and the first payload clears them.
        if self._parked is not None:
            self._release_parked()
        elif self._ring_quiet:
            self._ring_quiet = False
            cancel = HoldCancel(self.ring_id, self.node_id)
            self.endpoint.broadcast(cancel, cancel.size_bytes)
            self.tracer.emit("totem", "hold_cancel", node=self.node_id,
                             role="sent")

    def shutdown(self) -> None:
        """Deactivate (process crash or stack teardown): cancel all timers
        and stop reacting to frames.  Volatile ring state is abandoned."""
        if not self._active:
            return
        self._active = False
        self._drop_hold()
        for event in (self._gather_deadline, self._join_timer,
                      self._token_timer, self._recovery_deadline,
                      self._commit_retry, self._token_retx):
            if event is not None:
                event.cancel()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def _on_data(self, src: str, msg: DataMsg) -> None:
        if not self._active:
            return
        if self.state is MemberState.OPERATIONAL \
                and msg.sender not in self.members:
            # Foreign traffic: another ring exists (a healed partition).
            # Disturb both rings into a merging gather.
            self.tracer.emit("totem", "foreign", node=self.node_id,
                             sender=msg.sender)
            self._enter_gather()
            return
        if msg.seq <= self.delivered_aru or msg.seq in self._held:
            return
        if self.state is MemberState.RECOVERY:
            form = self._pending_form
            if form is None or msg.seq > form.flush_seq:
                return
        elif msg.ring_id != self.ring_id:
            return  # stale traffic from a superseded ring
        self._ring_quiet = False    # its token is on the way, unparked
        self._retain(msg)
        self._try_deliver()
        if self.state is MemberState.RECOVERY:
            self._maybe_install()

    def _retain(self, msg) -> None:
        """Hold ``msg`` until it is safe, keeping ``_held_low`` a lower
        bound on the held sequence numbers (step 5 of a token visit
        collects forward from it)."""
        if not self._held or msg.seq < self._held_low:
            self._held_low = msg.seq
        self._held[msg.seq] = msg

    @staticmethod
    def _payload_entries(
            msg) -> List[Tuple[Tuple[str, int], int, int, bytes, str]]:
        """The application fragments a frame carries, in delivery order —
        one for a classic :class:`DataMsg`, several for a packed frame."""
        if isinstance(msg, PackedDataMsg):
            return [(p.msg_id, p.frag_index, p.frag_count, p.chunk,
                     p.trace_id)
                    for p in msg.payloads]
        return [(msg.msg_id, msg.frag_index, msg.frag_count, msg.chunk,
                 msg.trace_id)]

    def _try_deliver(self) -> None:
        while (self.delivered_aru + 1) in self._held:
            self.delivered_aru += 1
            msg = self._held[self.delivered_aru]
            for msg_id, frag_index, frag_count, chunk, trace \
                    in self._payload_entries(msg):
                self._order_hash = crc32(
                    f"{msg.seq}:{msg.sender}:{msg_id}:"
                    f"{frag_index}".encode(),
                    self._order_hash,
                )
                if msg.sender == self.node_id:
                    self._inflight.pop((msg_id, frag_index), None)
                payload = self._reassembler.add(
                    msg_id, frag_index, frag_count, chunk
                )
                if payload is not None:
                    self.tracer.emit("totem", "deliver", node=self.node_id,
                                     origin=msg_id[0], seq=msg.seq,
                                     size=len(payload), trace=trace)
                    self.on_deliver(msg_id[0], payload)
            if (self._order_ring_key
                    and (self.delivered_aru - self._order_base)
                    % ORDER_DIGEST_INTERVAL == 0):
                self.tracer.emit("audit", "order_digest", node=self.node_id,
                                 cfg=self._order_ring_key,
                                 base=self._order_base,
                                 seq=self.delivered_aru,
                                 digest=f"{self._order_hash:08x}")

    # ------------------------------------------------------------------
    # Token path
    # ------------------------------------------------------------------

    def _on_token_frame(self, src: str, token: Token) -> None:
        if not self._active:
            return
        if token.commit_phase:
            self._on_commit_token(token)
            return
        if self.state is not MemberState.OPERATIONAL:
            return
        if token.ring_key != self._ring_key:
            return  # stale token, or a same-id sibling ring's token
        if token.rotations <= self._last_token_rot:
            # Duplicate: an upstream holder retransmitted a token we have
            # already processed (see _on_token_retx).  The leader bumps
            # ``rotations`` once per pass, so every member sees a strictly
            # increasing value on genuine receipts.
            return
        self._last_token_rot = token.rotations
        if self._token_retx is not None:
            self._token_retx.cancel()
            self._token_retx = None
        self._reset_token_timer()
        self.tracer.emit("totem", "token", node=self.node_id, seq=token.seq,
                         aru=token.aru, src=src)
        # What the ring did since our previous visit decides how long we
        # keep the token (step 6) and how far we trust our gaps (step 3).
        prev_seq, self._prev_token_seq = self._prev_token_seq, token.seq
        busy = (token.seq != prev_seq or token.aru < token.seq
                or bool(token.rtr) or self._woken)
        self._woken = False

        # 1. Service retransmission requests we can satisfy.
        unresolved: List[int] = []
        for seq in token.rtr:
            held = self._held.get(seq)
            if held is not None:
                self._broadcast_frame(replace(held, retransmit=True))
                self.tracer.emit("totem", "retransmit", node=self.node_id,
                                 seq=seq)
            else:
                unresolved.append(seq)
        token.rtr = unresolved

        # 2. Broadcast queued fragments, up to the burst window.
        queued = len(self._send_queue)
        sent_frames = self._send_burst(token)
        popped = queued - len(self._send_queue)

        # 3. Request retransmission of our genuine gaps — those at or below
        # the sequence the token carried on our previous visit.  Anything
        # newer gets one rotation of grace: frames from different senders
        # are not ordered against one another on the wire (a member's
        # token can arrive before another member's retransmission or a
        # delayed datagram does), and asking at once would have every
        # such frame rebroadcast.
        budget = 64
        for seq in range(self.delivered_aru + 1, prev_seq + 1):
            if budget == 0:
                break
            if seq not in self._held and seq not in token.rtr:
                token.rtr.append(seq)
                budget -= 1

        # 4. Update the all-received-up-to watermark.
        self._stamp_aru(token)

        # 5. Garbage-collect messages that are safe at all members.
        threshold = token.aru - self.config.retain_safe_slack
        low = self._held_low
        while low <= threshold:
            self._held.pop(low, None)
            low += 1
        self._held_low = low

        if self.members and self.node_id == self.members[0]:
            # One span per full token rotation, bracketed by consecutive
            # leader visits (the previous rotation ends as the next begins).
            self._spans.end(self._rotation_span_id(token.rotations),
                            seq=token.seq, aru=token.aru)
            token.rotations += 1
            self._spans.start(
                "totem.rotation",
                span_id=self._rotation_span_id(token.rotations),
                node=self.node_id, ring_id=self.ring_id,
                rotation=token.rotations,
            )
            now = self._scheduler.now
            if now - self._last_probe >= self.config.probe_interval:
                self._last_probe = now
                probe = ProbeMsg(self.ring_id, self.node_id, self.members)
                self.endpoint.broadcast(probe, probe.size_bytes)

        # 6. Forward to the ring successor.  While the ring carries or
        # requests traffic the token moves on after the modelled processing
        # time; ``token_hold`` paces a ring whose last rotation was quiet,
        # and a member draining a backlog (several payloads popped, or more
        # still queued), for whom the hold is the batching window.  A visit
        # that sent nothing here sends what was queued during the hold
        # when it forwards (see _forward_token).  The long hold of a quiet
        # ring *parks* the token: the first payload queued anywhere ends
        # it (multicast, _on_hold_cancel); a backlog hold is never cut
        # short.  With ``token_hold`` at the processing time (every
        # simulated default) no hold is long and nothing ever parks.
        hold = self.config.token_hold
        backlog = popped > 1 or bool(self._send_queue)
        if (busy or sent_frames) and not backlog:
            hold = min(hold, TOKEN_PROCESSING_TIME)
        self._ring_quiet = hold > TOKEN_PROCESSING_TIME and not backlog
        self._parked = token if self._ring_quiet else None
        self._hold_timer = self.endpoint.process.call_after(
            hold, self._forward_token, token, self._successor(),
            not sent_frames,
        )

    def _release_parked(self) -> None:
        """End the quiet hold now: the parked token goes through the one
        forward path on the next scheduler pass (never synchronously —
        ``multicast`` is called from delivery callbacks), so what is
        queued here leaves by the forward-time send."""
        token = self._parked
        self._drop_hold()
        self._hold_timer = self.endpoint.process.call_after(
            0, self._forward_token, token, self._successor(), True)
        self.tracer.emit("totem", "hold_cancel", node=self.node_id,
                         role="released")

    def _drop_hold(self) -> None:
        """Cancel the hold in progress, if any, and forget the quiet-ring
        state that goes with it."""
        if self._hold_timer is not None:
            self._hold_timer.cancel()
            self._hold_timer = None
        self._parked = None
        self._ring_quiet = False
        self._woken = False

    def _on_hold_cancel(self, src: str, cancel: HoldCancel) -> None:
        """A peer queued a payload on a quiet ring.  The member sleeping
        on the token forwards it; everyone else treats its next visit as
        busy, so the token does not park again one hop short of the
        sender."""
        if not self._active or self.state is not MemberState.OPERATIONAL:
            return
        if (cancel.ring_id != self.ring_id or cancel.sender == self.node_id
                or cancel.sender not in self.members):
            return
        if self._parked is not None:
            self._release_parked()
        else:
            self._ring_quiet = False
            self._woken = True
            self.tracer.emit("totem", "hold_cancel", node=self.node_id,
                             role="noted")

    def _send_burst(self, token: Token) -> int:
        """The send step of a token visit: broadcast queued fragments
        under consecutive sequence numbers, up to the burst window (counted
        in frames; a packed frame coalesces several sub-MTU fragments), and
        return how many frames went out.  The sender retains its own frame
        directly (real-Totem semantics): a lost loopback copy must not
        stall delivery or leave nobody able to service a retransmission
        request for the sequence number."""
        sent_frames = 0
        while sent_frames < self.config.max_burst and self._send_queue:
            token.seq += 1
            msg = self._next_frame(token.seq)
            self._retain(msg)
            self._broadcast_frame(msg)
            sent_frames += 1
        if sent_frames:
            self._try_deliver()
        return sent_frames

    def _stamp_aru(self, token: Token) -> None:
        """The Totem aru rule for the all-received-up-to watermark: any
        member lagging lowers it and stamps its id; the stamping member (or
        an unclaimed token) raises it to the member's own aru, and a full
        quiet rotation converges it to the ring-wide minimum."""
        if self.delivered_aru < token.aru:
            token.aru = self.delivered_aru
            token.aru_id = self.node_id
        elif token.aru_id in ("", self.node_id):
            token.aru = self.delivered_aru
            token.aru_id = self.node_id if token.aru < token.seq else ""

    def _forward_token(self, token: Token, successor: str,
                       may_send: bool) -> None:
        self._hold_timer = self._parked = None
        if not self._active or self.state is not MemberState.OPERATIONAL:
            return
        if token.ring_key != self._ring_key:
            return
        if may_send and self._send_queue:
            # The visit broadcast nothing at receipt, and a payload was
            # queued while the token was held (a reply to what this very
            # rotation delivered, typically): it rides this visit rather
            # than waiting a whole rotation for the next one.  A visit that
            # did send keeps the hold as its batching window instead.
            self._send_burst(token)
            self._stamp_aru(token)
        self.endpoint.unicast(successor, token, token.size_bytes)
        # Retain a private copy for loss repair: the in-flight object is
        # mutated by the receiver's processing, so the retransmission must
        # snapshot the state as sent.
        self._sent_token = (Token(token.ring_id, token.seq, token.aru,
                                  token.aru_id, list(token.rtr),
                                  token.rotations, token.ring_key),
                            successor)
        self._arm_token_retx()

    def _arm_token_retx(self) -> None:
        if self._token_retx is not None:
            self._token_retx.cancel()
        self._token_retx = self.endpoint.process.call_after(
            self.config.token_timeout / 4, self._on_token_retx
        )

    def _on_token_retx(self) -> None:
        """The ring has been silent since we forwarded the token: assume
        the token frame was lost somewhere downstream and re-unicast our
        copy.  Every holder upstream of the loss point does the same; all
        but the one bridging the lost hop are dropped as duplicates by the
        rotation-count check in _on_token_frame."""
        self._token_retx = None
        if not self._active or self.state is not MemberState.OPERATIONAL:
            return
        if self._sent_token is None:
            return
        token, successor = self._sent_token
        if token.ring_key != self._ring_key:
            return
        self.tracer.emit("totem", "token_retx", node=self.node_id,
                         seq=token.seq, rotation=token.rotations)
        # Clone per retransmission: a delivered copy is mutated by its
        # receiver, and the snapshot must stay pristine for further tries.
        resend = Token(token.ring_id, token.seq, token.aru, token.aru_id,
                       list(token.rtr), token.rotations, token.ring_key)
        self.endpoint.unicast(successor, resend, resend.size_bytes)
        self._arm_token_retx()

    def _successor(self) -> str:
        index = self.members.index(self.node_id)
        return self.members[(index + 1) % len(self.members)]

    def _rotation_span_id(self, rotation: int) -> str:
        if self.config.ring_name:
            return f"rot:{self.config.ring_name}:{self.ring_id}:{rotation}"
        return f"rot:{self.ring_id}:{rotation}"

    def _on_reassembly(self, event: str, msg_id, frag_count: int) -> None:
        """Trace multi-fragment reassembly as spans (first fragment
        delivered -> payload rebuilt); mid-message joins count skips."""
        span_id = f"frag:{msg_id[0]}:{msg_id[1]}@{self.node_id}"
        if event == "begin":
            self._spans.start("totem.reassembly", span_id=span_id,
                              node=self.node_id, origin=msg_id[0],
                              fragments=frag_count)
        elif event == "complete":
            self._spans.end(span_id)
        else:
            self.tracer.emit("totem", "reassembly_skipped",
                             node=self.node_id, origin=msg_id[0])

    def _next_frame(self, seq: int):
        """Pop queued fragment(s) into the frame for one broadcast slot.

        With packing enabled, greedily coalesce consecutive queued sub-MTU
        fragments while the frame stays within the transport MTU.  A
        full-MTU fragment (or a lone fragment) travels as a classic
        :class:`DataMsg` — the sub-header would only add overhead.
        """
        first = self._send_queue.popleft()
        self._inflight[(first[0], first[1])] = first
        entries = [first]
        if self.config.frame_packing:
            size = DATA_HEADER + PACKED_SUBHEADER + len(first[3])
            while self._send_queue:
                nxt = self._send_queue[0]
                added = PACKED_SUBHEADER + len(nxt[3])
                if size + added > self.endpoint.mtu_payload:
                    break
                self._send_queue.popleft()
                self._inflight[(nxt[0], nxt[1])] = nxt
                entries.append(nxt)
                size += added
        if len(entries) == 1:
            msg_id, index, count, chunk, trace = first
            return DataMsg(self.ring_id, seq, self.node_id,
                           msg_id, index, count, chunk, trace_id=trace)
        return PackedDataMsg(
            self.ring_id, seq, self.node_id,
            tuple(PackedPayload(*entry) for entry in entries),
        )

    def _broadcast_frame(self, msg) -> None:
        self.tracer.emit("totem", "frame", node=self.node_id, seq=msg.seq,
                         size=msg.size_bytes, retransmit=msg.retransmit)
        if isinstance(msg, PackedDataMsg) and not msg.retransmit:
            self.tracer.emit("totem", "packed_frame", node=self.node_id,
                             seq=msg.seq, payloads=len(msg.payloads),
                             size=msg.size_bytes)
        self.endpoint.broadcast(msg, msg.size_bytes)

    def _reset_token_timer(self) -> None:
        if self._token_timer is not None:
            self._token_timer.cancel()
        self._token_timer = self.endpoint.process.call_after(
            self.config.token_timeout, self._on_token_timeout
        )

    def _on_token_timeout(self) -> None:
        if not self._active or self.state is not MemberState.OPERATIONAL:
            return
        self.tracer.emit("totem", "token_timeout", node=self.node_id)
        self._enter_gather()

    def _on_probe(self, src: str, probe: ProbeMsg) -> None:
        """A probe from a ring we are not part of means a healed partition:
        disturb both rings into a merging gather."""
        if not self._active or self.state is not MemberState.OPERATIONAL:
            return
        if probe.sender in self.members:
            return
        self.tracer.emit("totem", "foreign", node=self.node_id,
                         sender=probe.sender)
        self._enter_gather()

    # ------------------------------------------------------------------
    # Membership: gather
    # ------------------------------------------------------------------

    def _enter_gather(self) -> None:
        self.state = MemberState.GATHER
        self._pending_form = None
        self._commit_started = False
        self._stashed_commit = None
        self._commit_retries = 0
        self._ring_kicked = False
        self._joins = {}
        self._drop_hold()
        for event in (self._token_timer, self._recovery_deadline,
                      self._commit_retry, self._token_retx):
            if event is not None:
                event.cancel()
        self.tracer.emit("totem", "gather", node=self.node_id)
        self._record_own_join()
        self._broadcast_join()
        self._arm_join_timer()
        self._extend_gather_deadline()

    def _record_own_join(self) -> None:
        self._joins[self.node_id] = self._make_join()

    def _make_join(self) -> JoinMsg:
        return JoinMsg(
            sender=self.node_id,
            ring_id_seen=self.ring_id,
            delivered_aru=self.delivered_aru,
            held=frozenset(self._held),
            fresh=self.fresh,
            view_members=self.members,
            base_seen=self._base_seen,
        )

    def _broadcast_join(self) -> None:
        join = self._make_join()
        self._joins[self.node_id] = join
        self.endpoint.broadcast(join, join.size_bytes)

    def _arm_join_timer(self) -> None:
        if self._join_timer is not None:
            self._join_timer.cancel()
        self._join_timer = self.endpoint.process.call_after(
            self.config.join_interval, self._join_tick
        )

    def _join_tick(self) -> None:
        if not self._active or self.state is not MemberState.GATHER:
            return
        self._broadcast_join()
        self._arm_join_timer()

    def _extend_gather_deadline(self) -> None:
        if self._gather_deadline is not None:
            self._gather_deadline.cancel()
        self._gather_deadline = self.endpoint.process.call_after(
            self.config.gather_timeout, self._on_gather_deadline
        )

    def _on_join(self, src: str, join: JoinMsg) -> None:
        if not self._active:
            return
        if src == self.node_id:
            # Our own loopback copy: already recorded locally, and it must
            # not "interrupt" a recovery we started after broadcasting it.
            return
        if self.state is MemberState.OPERATIONAL:
            # A member (re)joining disturbs the ring: reform it.
            self._enter_gather()
        elif self.state is MemberState.RECOVERY:
            # Recovery interrupted by a new gather round.
            self._enter_gather()
        is_new = src not in self._joins
        self._joins[src] = join
        if is_new:
            self._extend_gather_deadline()

    def _on_gather_deadline(self) -> None:
        if not self._active or self.state is not MemberState.GATHER:
            return
        candidates = sorted(self._joins)
        leader = candidates[0]
        if leader != self.node_id:
            # Await the leader's FORM; restart gather if it never comes.
            self._arm_recovery_deadline()
            return
        form = self._compute_form(candidates)
        self.tracer.emit("totem", "form", node=self.node_id,
                         ring_id=form.ring_id, members=form.members,
                         flush_seq=form.flush_seq)
        self.endpoint.broadcast(form, form.size_bytes)

    def _compute_form(self, candidates: List[str]) -> FormMsg:
        joins = [self._joins[c] for c in candidates]
        ring_id = max(j.ring_id_seen for j in joins) + 1
        # Healed-partition merge: group the non-fresh joins into connected
        # components by *view overlap*.  Members that merely lag a ring
        # generation still share view members with the rest (same history,
        # just a shorter prefix); members out of a healed partition arrive
        # with disjoint views (their rings reformed without each other) and
        # carry histories that cannot both be kept.  The canonical side is
        # the largest component (ties break on the smallest node id);
        # everyone else rejoins fresh (primary-component semantics).
        fresh_members: List[str] = [j.sender for j in joins if j.fresh]
        components = self._view_components(
            [j for j in joins if not j.fresh]
        )
        if len(components) > 1:
            components.sort(key=lambda c: (-len(c),
                                           min(j.sender for j in c)))
            for component in components[1:]:
                fresh_members.extend(j.sender for j in component)
        surviving = [j for j in joins
                     if not j.fresh and j.sender not in fresh_members]
        if surviving:
            # Lineage-conflict guard: a member stuck on an older ring
            # generation whose delivered_aru extends past the newest
            # generation's base delivered into sequence numbers the newer
            # lineage reassigned after truncating its flush — the two
            # histories conflict, so the laggard rejoins fresh.
            newest_ring = max(j.ring_id_seen for j in surviving)
            newest_base = max(j.base_seen for j in surviving
                              if j.ring_id_seen == newest_ring)
            conflicted = {j.sender for j in surviving
                          if j.ring_id_seen < newest_ring
                          and j.delivered_aru > newest_base}
            if conflicted:
                fresh_members.extend(sorted(conflicted))
                surviving = [j for j in surviving
                             if j.sender not in conflicted]
        if surviving:
            lo = min(j.delivered_aru for j in surviving)
            hi = max(max(j.held, default=j.delivered_aru) for j in surviving)
        else:
            lo = hi = 0
        holders: Dict[int, str] = {}
        flush_seq = lo
        for seq in range(lo + 1, hi + 1):
            holder = next(
                (j.sender for j in surviving if seq in j.held), None
            )
            if holder is None:
                # No survivor retains seq ⇒ no survivor delivered it or
                # anything after it; truncate the flush consistently.
                break
            holders[seq] = holder
            flush_seq = seq
        return FormMsg(
            ring_id=ring_id,
            leader=self.node_id,
            members=tuple(candidates),
            flush_seq=flush_seq,
            base_seq=flush_seq,
            holders=holders,
            fresh_members=tuple(sorted(set(fresh_members))),
        )

    @staticmethod
    def _view_components(joins: List[JoinMsg]) -> List[List[JoinMsg]]:
        """Connected components of joins under view-membership overlap.

        A join with no recorded view (never installed a ring) connects to
        everything — it cannot have diverged.
        """
        components: List[List[JoinMsg]] = []
        component_nodes: List[set] = []
        for join in joins:
            nodes = set(join.view_members) | {join.sender}
            matches = [i for i, existing in enumerate(component_nodes)
                       if existing & nodes or not join.view_members]
            if not matches:
                components.append([join])
                component_nodes.append(nodes)
                continue
            # merge all matching components with this join
            target = matches[0]
            components[target].append(join)
            component_nodes[target] |= nodes
            for index in reversed(matches[1:]):
                components[target].extend(components.pop(index))
                component_nodes[target] |= component_nodes.pop(index)
        return components

    # ------------------------------------------------------------------
    # Membership: recovery (flush) and installation
    # ------------------------------------------------------------------

    def _on_form(self, src: str, form: FormMsg) -> None:
        if not self._active:
            return
        if (self.state is MemberState.RECOVERY
                and self._pending_form is not None
                and self._form_ring_key(form)
                == self._form_ring_key(self._pending_form)):
            # Leader retransmission of the FORM we are already flushing:
            # some flush frame was probably lost.  Repair by re-running our
            # holder rebroadcasts and keep waiting.
            self._arm_recovery_deadline()
            self._rebroadcast_holders(form)
            self._maybe_install()
            return
        if self.state is not MemberState.GATHER:
            return
        if self.node_id not in form.members:
            # Too late for this round; keep gathering, which will disturb
            # the new ring into admitting us.
            return
        if self._join_timer is not None:
            self._join_timer.cancel()
        if self._gather_deadline is not None:
            self._gather_deadline.cancel()
        if self.node_id in form.fresh_members:
            # Our pre-merge history lost the primary-component vote: rejoin
            # as a history-less member (the Eternal layer re-synchronizes
            # replica state above us).
            self.fresh = True
            self.delivered_aru = 0
            self._held.clear()
            self._reassembler = Reassembler(observer=self._on_reassembly)
        self.state = MemberState.RECOVERY
        self._pending_form = form
        self._arm_recovery_deadline()
        self._rebroadcast_holders(form)
        self._maybe_install()

    def _rebroadcast_holders(self, form: FormMsg) -> None:
        """Rebroadcast the flush messages assigned to us."""
        for seq, holder in sorted(form.holders.items()):
            if holder == self.node_id:
                held = self._held.get(seq)
                if held is not None:
                    self._broadcast_frame(replace(held, retransmit=True))

    def _arm_recovery_deadline(self) -> None:
        if self._recovery_deadline is not None:
            self._recovery_deadline.cancel()
        self._recovery_deadline = self.endpoint.process.call_after(
            self.config.gather_timeout * 5, self._on_recovery_timeout
        )

    def _on_recovery_timeout(self) -> None:
        if not self._active:
            return
        if self.state in (MemberState.RECOVERY, MemberState.GATHER):
            self.tracer.emit("totem", "recovery_timeout", node=self.node_id)
            self._enter_gather()

    def _maybe_install(self) -> None:
        form = self._pending_form
        if form is None:
            return
        if self.fresh:
            # Skip pre-join traffic; Eternal recovers replica state above us.
            self.delivered_aru = max(self.delivered_aru, form.base_seq)
            self._held = {s: m for s, m in self._held.items()
                          if s > self.delivered_aru}
            self._held_low = self.delivered_aru + 1
        if self.delivered_aru < form.flush_seq:
            return
        # Flushed.  Installation additionally requires the commit rotation:
        # the ring goes operational only once its commit token has visited
        # every member, so a FORM computed from an incomplete join set (its
        # sender missed joins under loss) can never install and deliver a
        # history that diverges from the ring the excluded members form.
        if form.leader == self.node_id:
            if not self._commit_started:
                self._commit_started = True
                token = Token(form.ring_id, form.flush_seq, form.flush_seq,
                              ring_key=self._form_ring_key(form),
                              commit_phase=1)
                self._send_commit(token, self._form_successor(form),
                                  retry=True)
        elif self._stashed_commit is not None:
            token, self._stashed_commit = self._stashed_commit, None
            self._on_commit_token(token)

    @staticmethod
    def _form_ring_key(form: FormMsg) -> int:
        return crc32(f"{form.ring_id}:{form.leader}:"
                     f"{','.join(form.members)}".encode())

    def _form_successor(self, form: FormMsg) -> str:
        index = form.members.index(self.node_id)
        return form.members[(index + 1) % len(form.members)]

    def _send_commit(self, token: Token, successor: str,
                     retry: bool = False) -> None:
        if not self._active:
            return
        self.endpoint.unicast(successor, token, token.size_bytes)
        if retry:
            self._arm_commit_retry(token, successor)

    def _arm_commit_retry(self, token: Token, successor: str) -> None:
        """Leader-side loss repair: a commit token is a unicast chain, so a
        single drop would otherwise stall the rotation until the recovery
        deadline forces a full (and expensive) re-gather.  The leader
        re-injects the current pass a few times; every other member
        re-forwards duplicates, and the kick guard keeps the completed ring
        from starting twice."""
        if self._commit_retry is not None:
            self._commit_retry.cancel()
        if self._commit_retries >= 4:
            return
        self._commit_retries += 1
        self._commit_retry = self.endpoint.process.call_after(
            self.config.gather_timeout, self._retry_commit, token, successor,
        )

    def _retry_commit(self, token: Token, successor: str) -> None:
        if not self._active:
            return
        form = self._pending_form
        if (form is not None and self.state is MemberState.RECOVERY
                and token.ring_key == self._form_ring_key(form)):
            # Phase 1 may be stalled on a member that lost its flush
            # rebroadcasts rather than the token: re-send the FORM so every
            # holder repairs its frames (see _on_form).
            self.endpoint.broadcast(form, form.size_bytes)
        self._send_commit(token, successor, retry=True)

    def _on_commit_token(self, token: Token) -> None:
        form = self._pending_form
        if self.state is MemberState.RECOVERY and form is not None:
            if token.ring_key != self._form_ring_key(form):
                return  # a sibling ring's commit token; not our form
            if self.delivered_aru < form.flush_seq:
                # Not flushed yet: hold the token until the flush
                # rebroadcasts catch us up (see _maybe_install).
                self._stashed_commit = token
                return
            self._arm_recovery_deadline()
            successor = self._form_successor(form)
            if token.commit_phase == 1:
                if form.leader == self.node_id:
                    # Confirm pass complete: every member flushed.  Install
                    # and start the install pass.
                    self._install(form)
                    token.commit_phase = 2
                    self._send_commit(token, successor, retry=True)
                else:
                    self._send_commit(token, successor)
            elif token.commit_phase == 2:
                # Install pass (the leader installed at phase-1 return).
                self._install(form)
                self._send_commit(token, successor)
            return
        if (self.state is MemberState.OPERATIONAL
                and token.commit_phase == 2
                and token.ring_key == self._ring_key
                and self.members):
            if self.node_id == self.members[0]:
                # Leader receiving the completed install pass back: every
                # member is operational in the new ring — begin normal token
                # circulation (exactly once; retransmitted passes may return
                # several copies).
                if self._ring_kicked:
                    return
                self._ring_kicked = True
                if self._commit_retry is not None:
                    self._commit_retry.cancel()
                    self._commit_retry = None
                first = Token(self.ring_id, self.delivered_aru,
                              self.delivered_aru, ring_key=self._ring_key)
                self._hold_timer = self.endpoint.process.call_after(
                    self.config.token_hold, self._on_token_frame,
                    self.node_id, first,
                )
            else:
                # Already installed: keep re-forwarding the install pass so
                # a leader retransmission still reaches members past us.
                index = self.members.index(self.node_id)
                self._send_commit(
                    token, self.members[(index + 1) % len(self.members)])

    def _install(self, form: FormMsg) -> None:
        self._pending_form = None
        self._commit_retries = 0
        self._ring_kicked = False
        self._sent_token = None
        self._last_token_rot = -1
        self._prev_token_seq = self.delivered_aru
        self._drop_hold()
        if self._recovery_deadline is not None:
            self._recovery_deadline.cancel()
        self.ring_id = form.ring_id
        self.members = form.members
        self.state = MemberState.OPERATIONAL
        self._ring_key = self._form_ring_key(form)
        self._base_seen = form.base_seq
        # New configuration: restart the delivery-order hash from a seed
        # every member derives identically, based at the flush boundary
        # (all installing members agree on delivered_aru here).
        members_key = crc32(",".join(form.members).encode())
        self._order_ring_key = f"{form.ring_id}:{members_key:08x}"
        if self.config.ring_name:
            self._order_ring_key = (f"{self.config.ring_name}|"
                                    f"{self._order_ring_key}")
        self._order_hash = crc32(self._order_ring_key.encode())
        self._order_base = self.delivered_aru
        # Record whether this install discarded our history (brand-new
        # member, or we lost the primary-component vote in a merge): the
        # layer above reads this to re-synchronize replica state.
        self.last_install_was_fresh = self.fresh
        self.fresh = False
        # Re-queue our orphaned fragments: broadcast but never sequenced
        # into the surviving history, so no member delivered them.
        if self._inflight:
            self._send_queue.extendleft(
                self._inflight[k] for k in sorted(self._inflight,
                                                  reverse=True))
            self._inflight.clear()
        # Partial reassemblies from members that left the ring can never
        # complete; evict them instead of leaking them forever.
        evicted = self._reassembler.evict_absent_origins(form.members)
        if evicted:
            self.tracer.emit("totem", "reassembly_evicted",
                             node=self.node_id, count=evicted)
        self.tracer.emit("totem", "install", node=self.node_id,
                         ring_id=self.ring_id, members=self.members)
        if self.on_view_change is not None:
            self.on_view_change(self.view)
        self._reset_token_timer()
