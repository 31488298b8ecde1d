"""The Eternal Recovery Mechanisms (paper §3.3, §4, §5).

Implements, per node:

* the **state-transfer protocol** of §5.1 — a fabricated ``get_state()``
  marker multicast into the total order defines the synchronization point;
  every operational responder executes it at quiescence and multicasts a
  fabricated ``set_state()`` carrying the application-level state with the
  ORB/POA-level and infrastructure-level state piggybacked; duplicate
  set_states are suppressed; at the new replica the three kinds of state
  are assigned in order (application, ORB/POA, infrastructure) before any
  enqueued normal message is delivered;
* **enqueueing** of normal invocations/responses delivered to a replica
  that is being recovered, and their replay once it is operational;
* **logging of checkpoints and messages** for the passive styles, with the
  checkpoint overwriting its predecessor and pruning the log (§3.3);
* **failover** — promotion of a backup, cold launch if necessary, state
  restoration from the logged checkpoint, and replay of the logged
  messages, all concurrent with normal operation of other objects.

Whatever its source — network transfer, promoted backup's log, cold seed's
journal, periodic checkpoint — state reaches a replica one way: committed as
the binding's ``CheckpointRecord``, then :meth:`RecoveryMechanisms._install`.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Set, Tuple

from repro.core.bulk import BulkLane, build_manifest, decode_manifest, \
    encode_manifest
from repro.core.envelope import (
    ColdSeed,
    IiopEnvelope,
    ReplicaJoin,
    StateGet,
    StateSet,
    TransferPurpose,
    decode_envelope,
)
from repro.core.groupinfo import GroupInfo, ROLE_BACKUP, ROLE_PRIMARY
from repro.core.identifiers import OpKind
from repro.core.infra_state import InfraState
from repro.core.msglog import CheckpointRecord
from repro.core.orb_state import OrbStateTracker
from repro.core.replication import Phase
from repro.core.statedelta import (
    PAGE_SIZE,
    DeltaMismatch,
    apply_delta,
    compute_delta,
    decode_delta,
    encode_delta,
)
from repro.errors import ProtocolError, StateTransferError, StoreCorruptError
from repro.ftcorba.object_group import elect_cold_seed
from repro.ftcorba.properties import ReplicationStyle
from repro.obs.audit import state_digest
from repro.obs.spans import SpanEmitter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replication import ReplicaBinding, ReplicationMechanisms

#: Simulated process-launch time for a cold-passive backup (seconds).
COLD_START_DELAY = 0.020

#: A joining replica re-announces itself if not synchronized within this
#: long (seconds).
RECOVERY_RETRY_TIMEOUT = 1.0

#: How long a restarting replica with a durable store waits for a live
#: responder (or a better-covered peer) before claiming the cold-boot seed
#: role for its group (see :class:`repro.core.envelope.ColdSeed`).  Trades
#: restart latency against the chance of seeding from a journal that
#: misses a peer's longer tail.  Seconds.
COLD_BOOT_WINDOW = 0.5

#: Smallest full-snapshot recovery transfer that engages the bulk lane;
#: smaller states (and page deltas) stay in the total order, where one
#: small message is cheaper than a fetch round-trip.
BULK_MIN_BYTES = 64 * 1024


class _Source(NamedTuple):
    """Where an install's ``CheckpointRecord`` came from.  The source
    decides which spans and events time the install — nothing else."""

    root_span: str
    begin_event: Optional[str]      # "recovery" event opening a log install
    restore_span: str               # set_state; ends where the next begins
    assign_span: Optional[str]      # ORB/POA + infrastructure, on its own
    replay_span: Optional[str]
    replay_event: Optional[str]     # "recovery" event opening the replay


_NETWORK = _Source("recovery.total", None, "recovery.apply",
                   "recovery.assign", None, None)
_FAILOVER = _Source("failover.total", "failover_begin", "failover.restore",
                    None, "failover.replay", "failover_replay")
_COLD_SEED = _Source("recovery.coldboot", "cold_seed_restore",
                     "recovery.store.restore", None, "recovery.store.replay",
                     None)


class BoundedIdSet:
    """A seen-ids set with FIFO eviction.

    Handled-transfer-id sets must not grow for the life of a node.
    Duplicate protocol messages for one transfer arrive close together in
    the total order (they come from responders answering the same GET), so
    evicting ids thousands of transfers old cannot re-admit a duplicate.
    """

    def __init__(self, capacity: int = 10_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._seen: set = set()
        self._order: deque = deque()

    def add(self, item: str) -> bool:
        """Record ``item``; returns True if it was new."""
        if item in self._seen:
            return False
        self._seen.add(item)
        self._order.append(item)
        if len(self._order) > self._capacity:
            self._seen.discard(self._order.popleft())
        return True

    def __contains__(self, item: str) -> bool:
        return item in self._seen

    def __len__(self) -> int:
        return len(self._seen)


class RecoveryMechanisms:
    """Per-node recovery machinery, colocated with the Replication
    Mechanisms (they share group views and replica bindings)."""

    def __init__(self, mechanisms: "ReplicationMechanisms") -> None:
        self.mechanisms = mechanisms
        self.node_id = mechanisms.node_id
        self.tracer = mechanisms.tracer
        self.spans = SpanEmitter(mechanisms.tracer, node_id=self.node_id)
        self.config = mechanisms.config
        self._handled_gets = BoundedIdSet()
        self._handled_sets = BoundedIdSet()
        # Out-of-band bulk lane: responder-side snapshot stash plus the
        # target-side striped fetch sessions (see repro.core.bulk).
        self.bulk = BulkLane(mechanisms.process, mechanisms.endpoint,
                             mechanisms.tracer, mechanisms.node_id)
        self._transfer_counter = itertools.count(1)
        # Checkpoint this node initiated and whose capture has not yet
        # completed, per group (at most one in flight): group -> transfer.
        self._pending_checkpoints: Dict[str, str] = {}
        # Groups for which this node has asked for a full re-checkpoint
        # after failing to apply a delta-encoded one (cleared on commit).
        self._resync_requested: Set[str] = set()
        # Duplicate-filter snapshots taken at each GET's delivery position
        # (the synchronization point), keyed by transfer id.
        self._filter_snapshots: dict = {}
        # Cold-boot election state (whole-dead groups, repro.store):
        # per group, the durable coverage each peer advertised in its join
        # announcement, with the local time it was last seen — stale bids
        # from candidates that died mid-election must not win forever.
        self._cold_bids: Dict[str, Dict[str, Tuple[int, float]]] = {}
        self._cold_windows: Set[str] = set()

    # ------------------------------------------------------------------
    # Durable store (the disk rung of the restart ladder)
    # ------------------------------------------------------------------

    def prepare_from_store(self, binding: "ReplicaBinding") -> None:
        """Adopt the node's durable checkpoint and journaled message tail
        into the volatile log *before* announcing the join.

        This is what makes restart cost proportional to missed work: the
        subsequent :meth:`announce_join` advertises the restored
        checkpoint's digest, so a responder sharing the base ships only
        the changed pages — and if the whole group is dead, the restored
        log makes this node a cold-boot candidate.

        A journal that fails its integrity checks is quarantined (wiped)
        and the replica falls back to a full network recovery, exactly as
        if it had no store."""
        if binding.store is None:
            return
        span_id = self._new_transfer_id("store", binding.group_id)
        self.spans.start("recovery.store.load", span_id=span_id,
                         node=self.node_id, group=binding.group_id)
        try:
            stored = binding.store.load()
            messages = []
            for position, raw in stored.messages:
                decoded = decode_envelope(raw)
                if not isinstance(decoded, IiopEnvelope):
                    raise StoreCorruptError(
                        f"journaled message at position {position} decodes "
                        f"to {type(decoded).__name__}"
                    )
                messages.append((position, decoded))
        except (StoreCorruptError, ProtocolError) as exc:
            self.tracer.emit("store", "corrupt", node=self.node_id,
                             group=binding.group_id,
                             reason=type(exc).__name__, detail=str(exc))
            binding.store.reset()
            binding.store_position = 0
            self.spans.end(span_id, outcome="corrupt")
            return
        binding.log.restore(stored.checkpoint, messages)
        binding.store_position = max(0, stored.last_position)
        # Keep local log positions monotonic across incarnations: new
        # deliveries must sort after everything the journal already holds,
        # or the position-keyed prune/dedup rules would conflate eras.
        binding.delivery_position = max(binding.delivery_position,
                                        stored.last_position)
        self.spans.end(span_id, messages=len(messages),
                       has_checkpoint=stored.checkpoint is not None)

    # ------------------------------------------------------------------
    # Join announcement (the recovering side starts here)
    # ------------------------------------------------------------------

    def _new_transfer_id(self, kind: str, group_id: str) -> str:
        """Globally unique transfer id.

        The node's announce epoch is baked in: a rebuilt or reset stack
        restarts its counter, and without the epoch its ids would collide
        with ids the *previous* incarnation already used — which sit in
        every survivor's handled-sets and would silently swallow the new
        protocol messages.
        """
        epoch = getattr(self.mechanisms, "announce_epoch", 0)
        return (f"{kind}:{group_id}:{self.node_id}:e{epoch}:"
                f"{next(self._transfer_counter)}")

    def announce_join(self, binding: "ReplicaBinding",
                      *, with_base: bool = True,
                      with_bulk: bool = True) -> None:
        """Multicast this node's new replica into the total order; the
        delivery position of the ReplicaJoin starts the §5.1 protocol.

        When this node already holds a committed checkpoint for the group,
        its app-state digest is announced so responders sharing that base
        may answer with a page-level delta; ``with_base=False`` forces a
        full-snapshot transfer (used when a delta could not be applied).
        ``with_bulk=False`` suppresses the out-of-band bulk lane, forcing
        the bytes through the total order (the last-resort fallback after
        a failed bulk session)."""
        self._supersede(binding, "superseded")
        transfer_id = self._new_transfer_id("rec", binding.group_id)
        binding.pending_transfer = transfer_id
        if binding.phase is Phase.SYNCING:
            # The superseded attempt's sync point is void: drop again until
            # the new GET.
            binding.set_phase(Phase.JOINING)
        binding.active_span = transfer_id
        self.spans.start(_NETWORK.root_span, span_id=transfer_id,
                         node=self.node_id, group=binding.group_id)
        self._open(binding, "recovery.announce")
        self.tracer.emit("recovery", "join_announced", node=self.node_id,
                         group=binding.group_id, transfer=transfer_id)
        base_digest = ""
        if (with_base and self.config.delta_state_transfer
                and binding.log.checkpoint is not None):
            base_digest = binding.log.checkpoint.app_digest
        self.mechanisms.multicast(
            ReplicaJoin(binding.group_id, self.node_id, transfer_id,
                        base_digest=base_digest,
                        bulk_ok=with_bulk and self.config.bulk_lane,
                        store_position=binding.store_position)
        )
        self._arm_retry(binding, transfer_id)

    def _arm_retry(self, binding: "ReplicaBinding", transfer_id: str) -> None:
        def retry() -> None:
            if self._still_recovering(binding, transfer_id):
                self._supersede(binding, "retry")
                self.announce_join(binding)
        self.mechanisms.process.call_after(RECOVERY_RETRY_TIMEOUT, retry)

    def _still_recovering(self, binding: "ReplicaBinding",
                          transfer_id: Optional[str] = None) -> bool:
        """Is ``binding`` still this node's current replica of its group,
        still being recovered — and, given a transfer id, still by that
        attempt?  Every deferred recovery step asks before acting."""
        return (not binding.operational
                and self.mechanisms.bindings.get(binding.group_id) is binding
                and (transfer_id is None
                     or binding.pending_transfer == transfer_id))

    def _supersede(self, binding: "ReplicaBinding", outcome: str) -> None:
        """Close whatever the in-flight attempt still holds open (its spans,
        an out-of-band session) before another one replaces it."""
        transfer_id = binding.pending_transfer
        if transfer_id is not None:
            self.bulk.abort_session(transfer_id)
            self.spans.end(f"{transfer_id}/announce", outcome=outcome)
            self.spans.end(transfer_id, outcome=outcome)

    def _reannounce(self, binding: "ReplicaBinding", outcome: str,
                    **without: bool) -> None:
        """The transfer's body could not be used (delta base diverged, bulk
        fetch failed): restart the protocol one rung further down."""
        self._supersede(binding, outcome)
        self.announce_join(binding, **without)

    def handle_replica_join(self, envelope: ReplicaJoin) -> None:
        """All nodes see the join; operational responders fabricate the
        get_state() invocation (duplicates collapse at GET delivery)."""
        info = self.mechanisms.groups.get(envelope.group_id)
        binding = self.mechanisms.bindings.get(envelope.group_id)
        if info is None or binding is None:
            return
        self._note_cold_bid(envelope)
        if envelope.node_id == self.node_id:
            # Our own announcement came back: if nobody can answer it and
            # we hold a journal, start bidding for the cold-seed role.
            self._maybe_arm_cold_window(info, binding)
            return
        if binding.operational and info.responds_to_recovery(self.node_id):
            self.mechanisms.multicast(StateGet(
                group_id=envelope.group_id,
                transfer_id=envelope.transfer_id,
                purpose=TransferPurpose.RECOVERY,
                initiator=self.node_id,
                target_node=envelope.node_id,
                base_digest=envelope.base_digest,
                bulk_ok=envelope.bulk_ok,
            ))

    # ------------------------------------------------------------------
    # Cold-boot election (whole-dead groups, repro.store)
    # ------------------------------------------------------------------

    def _has_responder(self, info: GroupInfo) -> bool:
        return any(info.responds_to_recovery(node)
                   for node in info.member_nodes)

    def _note_cold_bid(self, envelope: ReplicaJoin) -> None:
        """Every join announcement doubles as a cold-boot bid: it carries
        how far the announcer's durable store covers the group
        (``store_position``; -1 = no store, never a candidate)."""
        if envelope.store_position < 0:
            return
        bids = self._cold_bids.setdefault(envelope.group_id, {})
        bids[envelope.node_id] = (envelope.store_position,
                                  self.mechanisms.process.scheduler.now)

    def _maybe_arm_cold_window(self, info: GroupInfo,
                               binding: "ReplicaBinding") -> None:
        if (binding.store is None
                or binding.operational
                or self._has_responder(info)
                or binding.group_id in self._cold_windows):
            return
        self._cold_windows.add(binding.group_id)
        self.mechanisms.process.call_after(
            COLD_BOOT_WINDOW, self._cold_window_expired, binding,
        )

    def _cold_window_expired(self, binding: "ReplicaBinding") -> None:
        group_id = binding.group_id
        self._cold_windows.discard(group_id)
        info = self.mechanisms.groups.get(group_id)
        if (info is None or binding.store is None
                or not self._still_recovering(binding)):
            return
        if self._has_responder(info):
            return  # a live responder appeared; the normal ladder proceeds
        # Elect among the *fresh* bids: a better-covered candidate that
        # died mid-election must not block the group forever.  The horizon
        # covers two full announce-retry rounds, so any live candidate has
        # re-announced (and re-bid) within it.
        now = self.mechanisms.process.scheduler.now
        horizon = 2 * (COLD_BOOT_WINDOW + RECOVERY_RETRY_TIMEOUT)
        fresh = {node: position
                 for node, (position, seen)
                 in self._cold_bids.get(group_id, {}).items()
                 if now - seen <= horizon}
        fresh[self.node_id] = binding.store_position
        winner = elect_cold_seed(fresh)
        if winner != self.node_id:
            # The better candidate claims the seat; our announce retry will
            # recover from it once it is operational.  (If it is dead, its
            # bid ages out and the retry re-arms the window.)
            return
        seed_id = self._new_transfer_id("seed", group_id)
        self.tracer.add("store.cold_seed_claimed", 1)
        self.mechanisms.multicast(ColdSeed(
            group_id, self.node_id, seed_id, binding.store_position,
        ))

    def handle_cold_seed(self, envelope: ColdSeed) -> None:
        """A candidate claimed the seed role; its delivery in the total
        order is the group's rebirth point (first claim wins — a live
        responder appearing first makes the claim stale)."""
        info = self.mechanisms.groups.get(envelope.group_id)
        if info is None:
            return
        binding = self.mechanisms.bindings.get(envelope.group_id)
        if self._has_responder(info):
            return
        self._cold_bids.pop(envelope.group_id, None)
        self._cold_windows.discard(envelope.group_id)
        if info.style.is_passive:
            info.promote(envelope.node_id)
        info.mark_operational(envelope.node_id)
        self.mechanisms.notify_cold_seed(envelope.group_id,
                                         envelope.node_id)
        if (envelope.node_id == self.node_id and binding is not None
                and not binding.operational):
            self._begin_seed_restore(info, binding, envelope)
        else:
            self.mechanisms.notify_member_operational(envelope.group_id,
                                                      envelope.node_id)
            self.mechanisms._sync_checkpoint_timer(info)

    def _begin_seed_restore(self, info: GroupInfo,
                            binding: "ReplicaBinding",
                            envelope: ColdSeed) -> None:
        """The seed restores itself from its own journal: newest durable
        checkpoint, then local log replay — no network rung at all."""
        # The network transfer in flight, if any, can never be answered.
        self._supersede(binding, "cold_seed")
        binding.pending_transfer = envelope.transfer_id
        # Once operational the group is alive again, and every other
        # replica recovers from this one over the ordinary network ladder.
        self._install_from_log(info, binding, envelope.transfer_id,
                               _COLD_SEED)

    # ------------------------------------------------------------------
    # get_state (§5.1 steps i-iii)
    # ------------------------------------------------------------------

    def handle_state_get(self, envelope: StateGet) -> None:
        if envelope.transfer_id in self._handled_gets:
            return
        self._handled_gets.add(envelope.transfer_id)
        info = self.mechanisms.groups.get(envelope.group_id)
        binding = self.mechanisms.bindings.get(envelope.group_id)
        if info is None or binding is None:
            return
        # The GET's position bounds what the matching checkpoint covers.
        binding.log.mark_get_position(envelope.transfer_id,
                                      binding.delivery_position)
        if (envelope.purpose is TransferPurpose.RECOVERY
                and envelope.target_node == self.node_id
                and not binding.operational):
            # Step (i) at the new replica: the logged get_state() marks the
            # synchronization point; normal messages enqueue from here on.
            binding.set_phase(Phase.SYNCING)
            binding.pending_transfer = envelope.transfer_id
            self.spans.end(f"{envelope.transfer_id}/announce")
            self.tracer.emit("recovery", "sync_point", node=self.node_id,
                             group=envelope.group_id,
                             transfer=envelope.transfer_id)
            return
        if binding.operational and info.responds_to_recovery(self.node_id):
            # Steps (i)-(iii) at an existing replica: deliver get_state()
            # through the replica's queue (so it waits for quiescence) and
            # fabricate the set_state() from its return value.  The
            # duplicate filter is snapshotted *now*, at the GET's position
            # in the total order: messages ordered after the GET must not
            # appear as already-seen in the transferred state.
            self._filter_snapshots[envelope.transfer_id] = \
                binding.infra.duplicates.capture()
            if (envelope.purpose is TransferPurpose.RECOVERY
                    and envelope.bulk_ok and self.config.bulk_lane):
                # A bulk fetch may race the (quiescence-gated) capture:
                # mark the transfer pending so early fetches are NACKed
                # "pending" (retry) instead of "unknown" (drop sponsor).
                self.bulk.store.note_pending(envelope.transfer_id)
            self.spans.start(
                "recovery.capture",
                span_id=f"{envelope.transfer_id}/capture@{self.node_id}",
                parent=envelope.transfer_id, node=self.node_id,
                group=envelope.group_id,
            )
            binding.container.submit_get_state(
                envelope.transfer_id,
                lambda transfer_id, app_state, app_digest, e=envelope:
                    self._complete_get(e, app_state, app_digest),
            )
        else:
            # No capture will complete here: if this GET was the node's own
            # checkpoint, it is out of flight.
            self.forget_pending_checkpoint(envelope.group_id,
                                           envelope.transfer_id)

    def _complete_get(self, envelope: StateGet, app_state: bytes,
                      app_digest: str) -> None:
        # Captured or abandoned, this node's checkpoint is out of flight.
        self.forget_pending_checkpoint(envelope.group_id,
                                       envelope.transfer_id)
        binding = self.mechanisms.bindings.get(envelope.group_id)
        if binding is None or not binding.operational:
            return
        orb_blob = binding.orb_state.capture()
        infra_blob = binding.infra.capture(
            duplicates_override=self._filter_snapshots.pop(
                envelope.transfer_id, None
            )
        )
        self.spans.end(f"{envelope.transfer_id}/capture@{self.node_id}",
                       app_bytes=len(app_state))
        # Every responder captured its state independently at the same
        # total-order position; the digests must agree (audited online).
        self.tracer.emit("audit", "state_digest", node=self.node_id,
                         group=envelope.group_id,
                         transfer=envelope.transfer_id, role="responder",
                         digest=app_digest)
        wire_state, app_delta = self._encode_app_state(binding, envelope,
                                                       app_state)
        app_manifest = False
        if (envelope.purpose is TransferPurpose.RECOVERY
                and envelope.bulk_ok and self.config.bulk_lane
                and not app_delta
                and len(wire_state) >= BULK_MIN_BYTES):
            # Large full snapshot for a bulk-capable joiner: keep only the
            # page manifest in the total order, stash the bytes for
            # out-of-band serving.  (Deltas and small snapshots stay
            # in-order — one small message beats a fetch round-trip.)
            self.bulk.store.stash(envelope.transfer_id, envelope.group_id,
                                  wire_state, PAGE_SIZE)
            manifest = build_manifest(wire_state, PAGE_SIZE)
            wire_state = encode_manifest(manifest)
            app_manifest = True
        else:
            self.tracer.add("bulk.inorder.bytes", len(wire_state))
        self.spans.start(
            "recovery.xfer",
            span_id=f"{envelope.transfer_id}/xfer@{self.node_id}",
            parent=envelope.transfer_id, node=self.node_id,
            group=envelope.group_id, app_bytes=len(wire_state),
            piggyback_bytes=len(orb_blob) + len(infra_blob),
        )
        self.tracer.emit("recovery", "set_state_multicast",
                         node=self.node_id, group=envelope.group_id,
                         app_bytes=len(wire_state),
                         piggyback_bytes=len(orb_blob) + len(infra_blob))
        self.mechanisms.multicast(StateSet(
            group_id=envelope.group_id,
            transfer_id=envelope.transfer_id,
            purpose=envelope.purpose,
            source_node=self.node_id,
            target_node=envelope.target_node,
            app_state=wire_state,
            orb_state=orb_blob,
            infra_state=infra_blob,
            app_delta=app_delta,
            app_manifest=app_manifest,
        ))

    def _encode_app_state(self, binding: "ReplicaBinding",
                          envelope: StateGet,
                          app_state: bytes) -> "tuple":
        """Choose the ``StateSet`` body: a page-level delta against the
        base named by the GET (iff this responder holds that exact base and
        the delta actually saves bytes), else the full snapshot."""
        if not (self.config.delta_state_transfer and envelope.base_digest):
            return app_state, False
        checkpoint = binding.log.checkpoint
        if (checkpoint is None
                or checkpoint.app_digest != envelope.base_digest):
            return app_state, False
        delta = compute_delta(checkpoint.app_state, app_state)
        encoded = encode_delta(delta)
        if len(encoded) >= len(app_state):
            return app_state, False
        self.tracer.emit("delta", "delta_sent", node=self.node_id,
                         group=envelope.group_id,
                         transfer=envelope.transfer_id,
                         pages_sent=delta.pages_sent,
                         pages_skipped=delta.pages_skipped,
                         wire_bytes=len(encoded),
                         full_bytes=len(app_state))
        return encoded, True

    # ------------------------------------------------------------------
    # set_state (§5.1 steps iv-vi)
    # ------------------------------------------------------------------

    def handle_state_set(self, envelope: StateSet) -> None:
        if envelope.transfer_id in self._handled_sets:
            return  # duplicate fabricated set_state (other responders)
        self._handled_sets.add(envelope.transfer_id)
        # The winning set_state has arrived: the wire-transfer span ends at
        # its first delivery (the shared open-span set dedups later nodes).
        self.spans.end(
            f"{envelope.transfer_id}/xfer@{envelope.source_node}",
            app_bytes=len(envelope.app_state),
        )
        info = self.mechanisms.groups.get(envelope.group_id)
        if info is None:
            return
        binding = self.mechanisms.bindings.get(envelope.group_id)
        is_checkpoint = envelope.purpose is TransferPurpose.CHECKPOINT
        if envelope.app_manifest and is_checkpoint:
            # The bulk lane never engages for checkpoints; a manifest
            # checkpoint is a protocol error from a newer/foreign sender.
            return
        # A manifest's bytes travel out-of-band, so only the target — which
        # fetches and verifies them — ever holds the full snapshot.
        full_app = (None if envelope.app_manifest
                    else self._reconstruct_app_state(binding, envelope))
        if is_checkpoint:
            self._handle_checkpoint_set(info, binding, envelope, full_app)
            return
        # RECOVERY: the SET's delivery position is the logical point at
        # which the group regards the target as synchronized.
        info.mark_operational(envelope.target_node)
        if envelope.target_node == self.node_id and binding is not None \
                and not binding.operational:
            if envelope.app_manifest:
                self._begin_bulk_fetch(info, binding, envelope)
            elif full_app is None:
                # The delta's base no longer matches this node's checkpoint
                # (e.g. a checkpoint landed between announce and SET):
                # restart the protocol asking for a full snapshot.
                self._reannounce(binding, "delta_fallback", with_base=False)
            else:
                self._apply_recovery_set(binding, envelope, full_app)
            return
        if binding is not None and full_app is not None:
            # Every node holding the binding logs the same record, so all
            # delta bases in the group stay aligned after a recovery — and
            # the next failover restores from this fresher checkpoint.
            self._commit_checkpoint(binding, envelope, full_app)
        self.mechanisms.notify_member_operational(
            envelope.group_id, envelope.target_node
        )

    def _begin_bulk_fetch(self, info, binding: "ReplicaBinding",
                          envelope: StateSet) -> None:
        """Target side: decode the in-order manifest and stripe the page
        fetches across the up-to-date sponsors."""
        try:
            manifest = decode_manifest(envelope.app_state)
        except StateTransferError as exc:
            self.tracer.emit("bulk", "manifest_bad", node=self.node_id,
                             group=envelope.group_id,
                             transfer=envelope.transfer_id,
                             reason=type(exc).__name__)
            self._reannounce(binding, "bulk_fallback", with_bulk=False)
            return
        sponsors = [node for node in info.member_nodes
                    if node != self.node_id
                    and info.responds_to_recovery(node)]
        self._open(binding, "recovery.bulk", pages=manifest.page_count,
                   app_bytes=manifest.total_length, sponsors=len(sponsors))
        self.bulk.start_session(
            envelope.transfer_id, envelope.group_id, manifest, sponsors,
            lambda blob, b=binding, e=envelope:
                self._bulk_fetch_done(b, e, blob),
        )

    def _bulk_fetch_done(self, binding: "ReplicaBinding",
                         envelope: StateSet, full_app) -> None:
        """The out-of-band session finished (every page verified) or
        failed (sponsors exhausted / digest mismatch)."""
        if not self._still_recovering(binding, envelope.transfer_id):
            return      # superseded by a retry or re-announce
        if full_app is None:
            self._close(binding, "recovery.bulk", outcome="failed")
            self._reannounce(binding, "bulk_fallback", with_bulk=False)
            return
        self._close(binding, "recovery.bulk", app_bytes=len(full_app))
        self._apply_recovery_set(binding, envelope, full_app)

    def _reconstruct_app_state(self, binding, envelope: StateSet):
        """Recover the full app-state snapshot from the ``StateSet`` body.

        Returns the snapshot bytes, or ``None`` when the body is a delta
        this node cannot apply (no base checkpoint, or the base diverged) —
        callers fall back to requesting a full transfer."""
        if not envelope.app_delta:
            return envelope.app_state
        checkpoint = binding.log.checkpoint if binding is not None else None
        if checkpoint is None:
            return None
        try:
            return apply_delta(checkpoint.app_state,
                               decode_delta(envelope.app_state))
        except StateTransferError:
            return None

    def _commit_checkpoint(self, binding: "ReplicaBinding",
                           envelope: StateSet, full_app: bytes) -> None:
        """Commit a transfer's three kinds of state as this node's
        ``CheckpointRecord``, journal it, and publish its digest — under
        the same ``<transfer>/commit`` key at every committing node (the
        records are identical by construction), apart from the responders'
        app-state-only capture digests."""
        committed = binding.log.commit_checkpoint(
            envelope.transfer_id, full_app,
            envelope.orb_state, envelope.infra_state,
        )
        if binding.store is not None:
            # Let the store reclaim the messages the checkpoint covers.
            binding.store.commit_checkpoint(committed)
            binding.store_position = max(binding.store_position,
                                         committed.position, 0)
        self.tracer.emit("audit", "state_digest", node=self.node_id,
                         group=envelope.group_id,
                         transfer=f"{envelope.transfer_id}/commit",
                         role="checkpoint", digest=committed.digest)

    def _handle_checkpoint_set(self, info, binding, envelope: StateSet,
                               full_app) -> None:
        if binding is None:
            return
        if full_app is None:
            # Cannot reconstruct this checkpoint from the delta: ask the
            # group for a fresh full checkpoint so this node regains a base.
            self._request_checkpoint_resync(envelope.group_id)
            return
        self.tracer.emit("recovery", "checkpoint_logged", node=self.node_id,
                         group=envelope.group_id, app_bytes=len(full_app))
        self._commit_checkpoint(binding, envelope, full_app)
        self._resync_requested.discard(envelope.group_id)
        # Warm backups synchronize to every checkpoint (§3): the same
        # install, with nothing to replay and no phase to change.
        if (info.style is ReplicationStyle.WARM_PASSIVE
                and info.role_of(self.node_id) == ROLE_BACKUP
                and binding.operational
                and binding.container.instantiated):
            self._install(binding, None)

    def _request_checkpoint_resync(self, group_id: str) -> None:
        """Multicast a full-snapshot checkpoint GET for the whole group
        (at most one outstanding per group per node)."""
        if group_id in self._resync_requested:
            return
        self._resync_requested.add(group_id)
        transfer_id = self._new_transfer_id("ckpt", group_id)
        self.mechanisms.multicast(StateGet(
            group_id=group_id,
            transfer_id=transfer_id,
            purpose=TransferPurpose.CHECKPOINT,
            initiator=self.node_id,
        ))

    def _apply_recovery_set(self, binding: "ReplicaBinding",
                            envelope: StateSet, full_app: bytes) -> None:
        self.tracer.emit("recovery", "recovery_set_received",
                         node=self.node_id, group=binding.group_id,
                         app_bytes=len(full_app))
        # What the target received must match what the responders captured
        # — the digest is taken over the *reconstructed* snapshot, so a
        # delta-encoded transfer is audited end to end.
        self.tracer.emit("audit", "state_digest", node=self.node_id,
                         group=binding.group_id,
                         transfer=envelope.transfer_id, role="target",
                         digest=state_digest(full_app))
        self._open(binding, _NETWORK.restore_span, app_bytes=len(full_app))
        if not binding.container.instantiated:
            # A new cold-passive backup: its "state" is the logged
            # checkpoint; it will be launched only at failover.
            binding.log.mark_get_position(envelope.transfer_id, 0)
        # A recovering replica logged nothing, and a journal tail restored
        # from disk sits at or before the GET: past this commit the log is
        # empty, so a network recovery is a failover with nothing to replay.
        self._commit_checkpoint(binding, envelope, full_app)
        if binding.container.instantiated:
            self._install(binding, _NETWORK)
        else:
            self._close(binding, _NETWORK.restore_span, checkpoint_only=True)
            self._go_operational(binding)

    # ------------------------------------------------------------------
    # Install: the one path from a CheckpointRecord to an operational replica
    # ------------------------------------------------------------------

    def _install_from_log(self, info: GroupInfo, binding: "ReplicaBinding",
                          root_id: str, source: _Source) -> None:
        """A promoted backup and a cold seed alike install from their own
        log, with no network transfer: enqueue everything from now on."""
        binding.set_phase(Phase.SYNCING)
        binding.active_span = root_id
        has_checkpoint = binding.log.checkpoint is not None
        self.spans.start(source.root_span, span_id=root_id,
                         node=self.node_id, group=binding.group_id,
                         style=info.style.value,
                         has_checkpoint=has_checkpoint)
        self._open(binding, source.restore_span,
                   has_checkpoint=has_checkpoint,
                   messages=binding.log.log_length)
        # Opens the auditor's quiesced window: the restore applies
        # set_state (and replays executions) outside any network transfer.
        self.tracer.emit("recovery", source.begin_event, node=self.node_id,
                         group=binding.group_id, transfer=root_id,
                         style=info.style.value,
                         log_length=binding.log.log_length,
                         has_checkpoint=has_checkpoint)
        if info.style.is_passive:
            binding.infra.role = ROLE_PRIMARY
        self._install(binding, source)

    def _install(self, binding: "ReplicaBinding",
                 source: Optional[_Source]) -> None:
        """Install ``binding.log.checkpoint`` (``None`` = the deterministic
        initial state) into the replica, wherever it came from; then, for
        every ``source`` but a warm backup's checkpoint sync (``None``),
        replay the log past it and go operational."""
        if not binding.container.instantiated:
            # Cold passive: launch the backup process first (§3.3).
            info = self.mechanisms.groups[binding.group_id]
            servant = self.mechanisms.factory.create_object(
                info.type_id, info.app_version
            )

            def launched() -> None:
                binding.container.install_servant(servant)
                self._install(binding, source)
            self.mechanisms.process.call_after(COLD_START_DELAY, launched)
        elif binding.log.checkpoint is None:
            # The group failed before any checkpoint was logged: the fresh
            # servant is at the deterministic initial state; re-run the
            # application from the start and replay the whole log over it.
            binding.container.start_application()
            self._replay(binding, source)
        else:
            checkpoint = binding.log.checkpoint
            binding.container.submit_set_state(
                checkpoint.app_state,
                lambda: self._assign_piggyback(binding, checkpoint, source),
            )

    def _assign_piggyback(self, binding: "ReplicaBinding",
                          checkpoint: CheckpointRecord,
                          source: Optional[_Source]) -> None:
        # Assignment order per §4.3: application state is already in (the
        # set_state just completed); now ORB/POA-level, then infrastructure.
        self._note_install(binding, "app")
        timed = source is not None and source.assign_span is not None
        if timed:
            self._close(binding, source.restore_span)
            self._open(binding, source.assign_span)
        infra = InfraState.decode(checkpoint.infra_state)
        self._apply_orb_state(binding, checkpoint.orb_state, infra)
        self._note_install(binding, "orb")
        binding.infra.adopt(infra, keep_role=True)
        self._note_install(binding, "infra")
        if timed:
            self._close(binding, source.assign_span)
        if source is not None:
            binding.container.resume_application()
            self._replay(binding, source)

    def _replay(self, binding: "ReplicaBinding", source: _Source) -> None:
        """Deliver the logged messages past the checkpoint to the replica
        before allowing it to become operational (§3.3)."""
        replayed = binding.log.messages_since_checkpoint()
        if source.replay_span is not None:
            self._close(binding, source.restore_span)
            self._open(binding, source.replay_span, messages=len(replayed))
        if source.replay_event is not None:
            self.tracer.emit("recovery", source.replay_event,
                             node=self.node_id, group=binding.group_id,
                             messages=len(replayed))
        for envelope in replayed:
            if envelope.kind is OpKind.REQUEST:
                binding.container.submit_request(envelope.connection,
                                                 envelope.iiop_bytes)
            else:
                self.mechanisms._deliver_reply(binding, envelope)
        self._note_install(binding, "replay", messages=len(replayed))
        if source.replay_span is not None:
            self._close(binding, source.replay_span)
        self._go_operational(binding)

    def _note_install(self, binding: "ReplicaBinding", step: str,
                      **fields) -> None:
        """One trace record per completed install step, so the §4.3 order
        can be read off the trace whatever the state's source."""
        self.tracer.emit("recovery", "install", node=self.node_id,
                         group=binding.group_id, step=step, **fields)

    def _open(self, binding: "ReplicaBinding", name: str, **attrs) -> None:
        """Start a child span of the binding's in-flight recovery; its id
        is the root's plus the span name's last word."""
        root = binding.active_span
        self.spans.start(name, span_id=f"{root}/{name.rsplit('.', 1)[1]}",
                         parent=root, node=self.node_id,
                         group=binding.group_id, **attrs)

    def _close(self, binding: "ReplicaBinding", name: str, **attrs) -> None:
        self.spans.end(f"{binding.active_span}/{name.rsplit('.', 1)[1]}",
                       **attrs)

    def _apply_orb_state(self, binding: "ReplicaBinding", orb_blob: bytes,
                         infra: InfraState) -> None:
        """Restore ORB/POA-level state from outside the ORB (§4.2)."""
        captured = OrbStateTracker.decode(orb_blob)
        if self.config.sync_orb_request_ids:
            for conn, last_id in captured.client_request_ids.items():
                awaiting = infra.awaiting.get(conn)
                # The replica will re-issue its in-flight invocations first
                # (in order), so the rewrite offset aligns the recovered
                # ORB's fresh counter with the oldest awaited id; with
                # nothing in flight, with the next unused id.
                offset = min(awaiting) if awaiting else last_id + 1
                binding.interceptor.set_request_id_offset(conn, offset)
                binding.orb_state.client_request_ids[conn] = last_id
        if self.config.sync_handshake:
            for conn, handshake in captured.handshakes.items():
                # Artificially inject the stored client handshake into the
                # new server replica's ORB ahead of any client request; the
                # "response" stays inside Eternal and is discarded (§4.2.2).
                binding.container.orb.decode_request(conn.as_str(), handshake)
                binding.orb_state.handshakes.setdefault(conn, handshake)
                self.tracer.emit("recovery", "handshake_replayed",
                                 node=self.node_id, group=binding.group_id,
                                 conn=conn.as_str())

    def _go_operational(self, binding: "ReplicaBinding") -> None:
        binding.set_phase(Phase.OPERATIONAL)
        binding.pending_transfer = None
        self._note_install(binding, "operational")
        self._open(binding, "recovery.drain", drained=len(binding.enqueued))
        # Step (vi): deliver the enqueued messages, in order.
        while binding.enqueued:
            position, envelope = binding.enqueued.popleft()
            self.mechanisms.route_iiop(binding, envelope, position)
        self._note_install(binding, "drain")
        self._close(binding, "recovery.drain")
        self.spans.end(binding.active_span, outcome="operational")
        binding.active_span = None
        self.tracer.emit("recovery", "recovered", node=self.node_id,
                         group=binding.group_id)
        info = self.mechanisms.groups.get(binding.group_id)
        if info is not None:
            info.mark_operational(self.node_id)
            self.mechanisms._sync_checkpoint_timer(info)
        self.mechanisms.notify_member_operational(binding.group_id,
                                                  self.node_id)

    # ------------------------------------------------------------------
    # Periodic checkpointing (§3.3)
    # ------------------------------------------------------------------

    def checkpoint_initiator(self, info: GroupInfo) -> Optional[str]:
        """Which node fabricates this group's periodic checkpoints.

        The primary for the passive styles (§3.3).  Active replication
        needs no checkpoints in the paper — but a durable store must be
        fed, so with a store configured the lowest operational executor
        initiates; without one, nobody does (``None``), preserving the
        paper's behaviour."""
        if info.style.is_passive:
            return info.primary_node
        if self.mechanisms.store is None:
            return None
        candidates = sorted(node for node in info.operational
                            if info.executes(node))
        return candidates[0] if candidates else None

    def initiate_checkpoint(self, group_id: str) -> None:
        """Timer tick on the initiator's node: fabricate a checkpoint
        get_state() unless one is still in flight."""
        info = self.mechanisms.groups.get(group_id)
        binding = self.mechanisms.bindings.get(group_id)
        if info is None or binding is None or not binding.operational:
            return
        if self.checkpoint_initiator(info) != self.node_id:
            return
        if group_id in self._pending_checkpoints:
            return
        transfer_id = self._new_transfer_id("ckpt", group_id)
        self._pending_checkpoints[group_id] = transfer_id
        # Name the previous checkpoint as the delta base: every node holding
        # the binding committed an identical record, so the responder can
        # ship only the pages that changed since the last checkpoint.
        base_digest = ""
        if self.config.delta_state_transfer and binding.log.checkpoint:
            base_digest = binding.log.checkpoint.app_digest
        self.tracer.emit("recovery", "checkpoint_initiated",
                         node=self.node_id, group=group_id)
        self.mechanisms.multicast(StateGet(
            group_id=group_id,
            transfer_id=transfer_id,
            purpose=TransferPurpose.CHECKPOINT,
            initiator=self.node_id,
            base_digest=base_digest,
        ))

    def forget_pending_checkpoint(self, group_id: str,
                                  transfer_id: Optional[str] = None) -> None:
        """This node's in-flight checkpoint of the group (``transfer_id``, or
        whichever it is) was captured, or can no longer be captured here."""
        if transfer_id in (None, self._pending_checkpoints.get(group_id)):
            self._pending_checkpoints.pop(group_id, None)

    # ------------------------------------------------------------------
    # Failover (§3.2, §3.3)
    # ------------------------------------------------------------------

    def begin_failover(self, group_id: str) -> None:
        """This node's backup was promoted: restore state from the logged
        checkpoint, replay the logged messages, then go operational."""
        info = self.mechanisms.groups.get(group_id)
        binding = self.mechanisms.bindings.get(group_id)
        if info is None or binding is None:
            return
        self._install_from_log(info, binding,
                               self._new_transfer_id("fo", group_id),
                               _FAILOVER)
