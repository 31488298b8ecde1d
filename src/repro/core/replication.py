"""The Eternal Replication Mechanisms (one instance per node).

The mechanisms sit between the Totem ring member below and the local
replica containers above.  They

* multicast every captured IIOP message (wrapped in an envelope carrying
  its Eternal operation identifier);
* on delivery, suppress duplicates with the per-replica
  :class:`~repro.core.identifiers.DuplicateFilter`;
* route surviving messages according to each local replica's replication
  style and role (active and primary replicas execute; backups log;
  recovering replicas enqueue);
* maintain the node's :class:`~repro.core.groupinfo.GroupInfo` views from
  totally-ordered administration events and Totem view changes, and hand
  recovery-protocol envelopes to the Recovery Mechanisms.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.config import EternalConfig
from repro.core.container import ReplicaContainer
from repro.core.envelope import (
    ColdSeed,
    Envelope,
    GroupUpdate,
    IiopEnvelope,
    NodeRestarted,
    ReplicaFault,
    ReplicaJoin,
    StateGet,
    StateSet,
    decode_envelope,
    encode_envelope,
)
from repro.core.groupinfo import (
    GroupInfo,
    ROLE_ACTIVE,
    ROLE_BACKUP,
    ROLE_PRIMARY,
)
from repro.core.identifiers import ConnectionKey, OpKind
from repro.core.infra_state import InfraState
from repro.core.interceptor import Interceptor
from repro.core.msglog import MessageLog
from repro.core.orb_state import OrbStateTracker
from repro.errors import ReplicationError
from repro.ftcorba.generic_factory import GenericFactory
from repro.ftcorba.properties import ReplicationStyle
from repro.giop.ior import IOR
from repro.runtime.timers import PeriodicTimer
from repro.runtime.trace import NULL_TRACER, Tracer
from repro.store.base import DurableStore, GroupStore
from repro.totem.member import TotemMember, View

#: How often a client-side replica re-multicasts a two-way request that is
#: still awaiting its reply (seconds).  A request ordered while its target
#: group had no live members (the window a cold boot recovers from) is
#: dropped by everyone and would otherwise hang a reply-clocked client
#: forever; the retransmission is idempotent because delivered duplicates
#: are suppressed by every replica's duplicate filter.  A request is only
#: re-sent once it has been outstanding for two consecutive ticks.
REQUEST_RETRANSMIT_INTERVAL = 0.5


class Phase(enum.Enum):
    """Where a local replica stands in the §5.1 protocol — which is to say,
    what happens to a normal message delivered to it."""

    JOINING = "joining"          # dropped: the state to come covers it
    SYNCING = "syncing"          # enqueued: ordered after the sync point
    OPERATIONAL = "operational"  # routed to the replica


# Bound once for the per-delivery checks (_handle_iiop, ``operational``):
# looking a member up on the enum class costs several times the comparison.
_OPERATIONAL = Phase.OPERATIONAL

# Every allowed phase change and who makes it.  PROTOCOL.md §3.2 renders
# this table; tests/unit/core/test_phase_table.py keeps the two identical.
PHASE_TRANSITIONS = frozenset({
    (Phase.JOINING, Phase.OPERATIONAL),   # group create: a founding member
    (Phase.JOINING, Phase.SYNCING),       # the recovery GET (sync point),
                                          # a cold-seed claim, a promotion
    (Phase.SYNCING, Phase.JOINING),       # re-announce: old sync point void
    (Phase.SYNCING, Phase.OPERATIONAL),   # state installed, tail replayed
    (Phase.OPERATIONAL, Phase.SYNCING),   # failover of a promoted backup
})


@dataclass
class ReplicaBinding:
    """Everything one node keeps for one locally hosted replica."""

    group_id: str
    container: ReplicaContainer
    interceptor: Interceptor
    infra: InfraState
    orb_state: OrbStateTracker
    log: MessageLog
    phase: Phase = Phase.JOINING
    delivery_position: int = 0
    enqueued: Deque[Tuple[int, IiopEnvelope]] = field(default_factory=deque)
    pending_transfer: Optional[str] = None
    active_span: Optional[str] = None  # root span of the in-flight recovery
    store: Optional[GroupStore] = None  # durable journal (repro.store)
    store_position: int = -1           # -1 no store, else last durable pos

    @property
    def operational(self) -> bool:
        return self.phase is _OPERATIONAL

    def set_phase(self, phase: Phase) -> None:
        """The only writer of ``phase``; re-entering the current phase is
        not a change."""
        if phase is self.phase:
            return
        if (self.phase, phase) not in PHASE_TRANSITIONS:
            raise ReplicationError(
                f"replica of {self.group_id}: illegal phase change "
                f"{self.phase.value} -> {phase.value}")
        self.phase = phase


class ReplicationMechanisms:
    """Per-node replication machinery (paper §2's Replication Mechanisms,
    working together with the Recovery Mechanisms of
    :mod:`repro.core.recovery`)."""

    def __init__(
        self,
        totem: TotemMember,
        factory: GenericFactory,
        config: EternalConfig,
        *,
        announce_epoch: int = 0,
        tracer: Tracer = NULL_TRACER,
        store: Optional[DurableStore] = None,
    ) -> None:
        from repro.core.recovery import RecoveryMechanisms

        self.totem = totem
        self.endpoint = totem.endpoint
        self.process = totem.endpoint.process
        self.node_id = totem.node_id
        self.factory = factory
        self.config = config
        self.tracer = tracer
        self.store = store
        self.groups: Dict[str, GroupInfo] = {}
        self.bindings: Dict[str, ReplicaBinding] = {}
        self.recovery = RecoveryMechanisms(self)
        self.readfast = None
        self.fault_detector = None    # created when the first group arrives
        # Sharded deployments install a RingGatewayPort here so ordered
        # IIOP deliveries with no local binding can bridge to the ring
        # that owns the target group (see repro.core.gateway).
        self.gateway = None
        self._checkpoint_timers: Dict[str, PeriodicTimer] = {}
        self._retransmit_timer: Optional[PeriodicTimer] = None
        self._retransmit_seen: Set[Tuple[str, ConnectionKey, int]] = set()
        self._view_listeners: List[Callable[[View, Set[str], Set[str]], None]] = []
        self._operational_listeners: List[Callable[[str, str], None]] = []
        self._replica_fault_listeners: List[Callable[[ReplicaFault], None]] = []
        self._node_restart_listeners: List[Callable[[NodeRestarted], None]] = []
        self._cold_seed_listeners: List[Callable[[str, str], None]] = []
        self._node_incarnations: Dict[str, int] = {}
        self._known_view_members: Set[str] = set()
        totem.on_deliver = self._on_deliver
        totem.on_view_change = self._on_view_change
        self.process.on_crash(self._on_crash)
        if config.read_lease:
            from repro.core.readfast import ReadFastCoordinator
            self.readfast = ReadFastCoordinator(self)
        # Announce this (fresh, empty) stack in the total order.  A fast
        # restart may never leave the ring view, so membership alone cannot
        # reveal that our previous incarnation's replicas are gone; and the
        # announcement is the Replication Manager's single, race-free
        # trigger for (re)placing replicas on this node.  Epoch 0 marks the
        # very first boot (nothing to drop); rebuilds announce ever-larger
        # epochs.
        self.announce_epoch = announce_epoch
        self.multicast(NodeRestarted(self.node_id, announce_epoch))

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def multicast(self, envelope: Envelope) -> None:
        """Encode and reliably totally-order-multicast an envelope."""
        self.totem.multicast(encode_envelope(envelope),
                             trace_id=getattr(envelope, "trace_id", ""))

    # ------------------------------------------------------------------
    # Observers (managers subscribe here)
    # ------------------------------------------------------------------

    def on_view_event(self, fn: Callable[[View, Set[str], Set[str]], None]) -> None:
        """Subscribe to (view, lost_nodes, joined_nodes) events."""
        self._view_listeners.append(fn)

    def on_member_operational(self, fn: Callable[[str, str], None]) -> None:
        """Subscribe to (group_id, node_id) becoming operational."""
        self._operational_listeners.append(fn)

    def on_replica_fault(self, fn: Callable[[ReplicaFault], None]) -> None:
        """Subscribe to delivered replica-fault reports."""
        self._replica_fault_listeners.append(fn)

    def notify_member_operational(self, group_id: str, node_id: str) -> None:
        for fn in list(self._operational_listeners):
            fn(group_id, node_id)

    def on_cold_seed(self, fn: Callable[[str, str], None]) -> None:
        """Subscribe to (group_id, node_id) winning a cold-boot election."""
        self._cold_seed_listeners.append(fn)

    def notify_cold_seed(self, group_id: str, node_id: str) -> None:
        for fn in list(self._cold_seed_listeners):
            fn(group_id, node_id)

    # ------------------------------------------------------------------
    # Delivery from Totem
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        for timer in self._checkpoint_timers.values():
            timer.stop()
        self._checkpoint_timers.clear()
        self._stop_retransmit_timer()
        if self.store is not None:
            # Drop file handles without flushing, as SIGKILL would; the
            # journal on disk is what the next incarnation finds.
            self.store.handle_crash()

    def _on_deliver(self, origin: str, payload: bytes) -> None:
        envelope = decode_envelope(payload)
        if isinstance(envelope, IiopEnvelope):
            self._handle_iiop(envelope)
        elif isinstance(envelope, GroupUpdate):
            self._handle_group_update(envelope)
        elif isinstance(envelope, ReplicaJoin):
            self.recovery.handle_replica_join(envelope)
        elif isinstance(envelope, StateGet):
            self.recovery.handle_state_get(envelope)
        elif isinstance(envelope, StateSet):
            self.recovery.handle_state_set(envelope)
        elif isinstance(envelope, ReplicaFault):
            self._handle_replica_fault(envelope)
        elif isinstance(envelope, NodeRestarted):
            self._handle_node_restarted(envelope)
        elif isinstance(envelope, ColdSeed):
            self.recovery.handle_cold_seed(envelope)
        else:  # pragma: no cover - decode_envelope is exhaustive
            raise ReplicationError(f"unroutable envelope {envelope!r}")

    # ------------------------------------------------------------------
    # IIOP routing
    # ------------------------------------------------------------------

    def _handle_iiop(self, envelope: IiopEnvelope) -> None:
        binding = self.bindings.get(envelope.target_group)
        if binding is None:
            if self.gateway is not None:
                self.gateway.on_unplaced_iiop(envelope, self)
            return
        binding.delivery_position += 1
        if binding.phase is not _OPERATIONAL:
            # §5.1: before the sync point the new replica's state transfer
            # will already include these messages' effects — drop them; from
            # the get_state() marker onwards, enqueue for delivery after
            # set_state() completes.
            if binding.phase is Phase.SYNCING:
                # The delivery position rides along so the post-recovery
                # drain journals each message at its true position.
                binding.enqueued.append((binding.delivery_position,
                                         envelope))
                self.tracer.emit("replication", "enqueued",
                                 node=self.node_id,
                                 group=envelope.target_group)
            return
        self.route_iiop(binding, envelope)

    def route_iiop(self, binding: ReplicaBinding,
                   envelope: IiopEnvelope,
                   position: Optional[int] = None) -> None:
        """Duplicate-filter and dispatch one IIOP envelope to a local
        replica.  ``position`` is the envelope's delivery position when
        draining the recovery queue (whose entries were assigned theirs at
        enqueue time); fresh deliveries default to the binding's current
        one."""
        if position is None:
            position = binding.delivery_position
        if binding.infra.duplicates.seen_before(envelope.operation_id):
            self.tracer.emit("replication", "duplicate", node=self.node_id,
                             group=binding.group_id,
                             request_id=envelope.request_id,
                             kind=envelope.kind.name)
            return
        group = self.groups[binding.group_id]
        executes = group.executes(self.node_id)
        if binding.store is not None:
            # Journal write-ahead of execution: the message is durable
            # before its effects exist, so a crash replays it rather than
            # losing it.
            binding.store.append_message(position,
                                         encode_envelope(envelope))
            binding.store_position = max(binding.store_position, position)
        if group.style.is_passive:
            binding.log.append(position, envelope)
        # Bounded log: the checkpoint initiator forces an early checkpoint
        # when the volatile log (passive) or the durable journal's
        # unreclaimed tail (any style with a store) outgrows the limit (the
        # in-flight guard in initiate_checkpoint prevents a storm while one
        # completes).  A group's own FTProperties bound wins; otherwise the
        # deployment-wide EternalConfig.max_log_length applies (0 in either
        # position means unbounded at that level).
        log_bound = group.max_log_messages or self.config.max_log_length
        if log_bound:
            volatile_over = (group.style.is_passive
                             and binding.log.log_length >= log_bound)
            durable_over = (binding.store is not None
                            and binding.store.pending_messages >= log_bound)
            if ((volatile_over or durable_over)
                    and self.recovery.checkpoint_initiator(group)
                    == self.node_id):
                self.recovery.initiate_checkpoint(binding.group_id)
        if envelope.kind is OpKind.REQUEST:
            # Watch for the client-server handshake: Eternal stores it so
            # it can be replayed into a future new replica's ORB (§4.2.2).
            binding.orb_state.observe_delivered_request(
                envelope.connection, envelope.iiop_bytes
            )
            if executes:
                self._note_delivered(binding, envelope)
                binding.container.submit_request(envelope.connection,
                                                 envelope.iiop_bytes)
        else:
            if executes:
                self._note_delivered(binding, envelope)
                self._deliver_reply(binding, envelope)
            else:
                # Non-executing members (backups) only track bookkeeping.
                binding.infra.record_reply_delivered(envelope.connection,
                                                     envelope.request_id)

    def _note_delivered(self, binding: ReplicaBinding,
                        envelope: IiopEnvelope) -> None:
        """An operation survived duplicate suppression and is being handed
        to the servant — the event the auditor shadows for at-most-once."""
        self.tracer.emit("replication", "delivered", node=self.node_id,
                         group=binding.group_id,
                         conn=envelope.connection.as_str(),
                         request_id=envelope.request_id,
                         kind=envelope.kind.name,
                         trace=envelope.trace_id)

    def _deliver_reply(self, binding: ReplicaBinding,
                       envelope: IiopEnvelope) -> None:
        binding.interceptor.note_reply_delivered(envelope.connection,
                                                 envelope.request_id)
        data = binding.interceptor.rewrite_incoming_reply(
            envelope.connection, envelope.iiop_bytes
        )
        connection = envelope.connection
        request_id = envelope.request_id
        binding.container.submit_reply(
            connection.server_group, IOR_PORT, data,
            on_executed=lambda: binding.infra.record_reply_delivered(
                connection, request_id
            ),
        )

    # ------------------------------------------------------------------
    # Group administration
    # ------------------------------------------------------------------

    def _handle_group_update(self, envelope: GroupUpdate) -> None:
        style = ReplicationStyle(envelope.style)
        info = self.groups.get(envelope.group_id)
        previously_operational = set(info.operational) if info else set()
        previous_role = info.role_of(self.node_id) if info else None
        new_info = GroupInfo(
            group_id=envelope.group_id,
            type_id=envelope.type_id,
            style=style,
            checkpoint_interval=envelope.checkpoint_interval,
            app_version=envelope.app_version,
            fault_monitoring_interval=envelope.fault_monitoring_interval,
            max_log_messages=envelope.max_log_messages,
        )
        for node_id, role, operational in envelope.members:
            # Union-merge operational marks: a recovery set_state may have
            # been ordered between the manager composing this update and
            # its delivery here.
            already = node_id in previously_operational
            new_info.add_member(node_id, role,
                                operational=operational or already)
        self.groups[envelope.group_id] = new_info
        info = new_info

        if envelope.action == "create":
            local_role = info.role_of(self.node_id)
            if local_role is not None:
                if self.store is not None:
                    # A create is a fresh deployment: whatever journal a
                    # previous deployment of this group id left behind is
                    # superseded, never replayed into the new incarnation.
                    self.store.reset_group(envelope.group_id)
                binding = self._create_binding(info, local_role,
                                               envelope.app_version)
                binding.set_phase(Phase.OPERATIONAL)
                if info.executes(self.node_id):
                    self.process.call_after(
                        0.0, binding.container.start_application
                    )
        elif envelope.action == "add":
            if envelope.subject_node == self.node_id:
                binding = self._create_binding(
                    info, info.role_of(self.node_id) or ROLE_BACKUP,
                    envelope.app_version,
                )
                # Disk rung of the recovery ladder: adopt the durable
                # checkpoint + message tail before asking the network.
                self.recovery.prepare_from_store(binding)
                self.recovery.announce_join(binding)
        elif envelope.action == "remove":
            if envelope.subject_node == self.node_id:
                self._destroy_binding(envelope.group_id)
        # An administrative promotion (e.g. the Evolution Manager removing
        # the primary) must put the promoted backup through failover just
        # like a crash-driven promotion.
        binding = self.bindings.get(envelope.group_id)
        if (binding is not None and binding.operational
                and previous_role == ROLE_BACKUP
                and info.role_of(self.node_id) == ROLE_PRIMARY):
            self.recovery.begin_failover(envelope.group_id)
        self._sync_checkpoint_timer(info)

    def _create_binding(self, info: GroupInfo, role: str,
                        app_version: int) -> ReplicaBinding:
        if info.group_id in self.bindings:
            self._destroy_binding(info.group_id)
        servant = None
        cold_backup = (info.style is ReplicationStyle.COLD_PASSIVE
                       and role == ROLE_BACKUP)
        if not cold_backup:
            servant = self.factory.create_object(info.type_id, app_version)
        infra = InfraState(style=info.style.value, role=role)
        orb_state = OrbStateTracker()
        binding = ReplicaBinding(
            group_id=info.group_id,
            container=None,           # set just below
            interceptor=None,
            infra=infra,
            orb_state=orb_state,
            log=MessageLog(info.group_id),
        )
        if self.store is not None:
            binding.store = self.store.group(info.group_id)
            binding.store_position = 0
        interceptor = Interceptor(
            self.node_id, info.group_id,
            self.multicast_iiop, infra, orb_state, tracer=self.tracer,
        )
        container = ReplicaContainer(
            self.process, info.group_id, servant, self.config,
            on_reply_produced=lambda conn, data, b=binding:
                self._on_reply_produced(b, conn, data),
            tracer=self.tracer,
        )
        container.orb.set_client_transport(interceptor.capture_client_request)
        if self.readfast is not None:
            interceptor.fast_path = self.readfast.try_fast_read
        binding.container = container
        binding.interceptor = interceptor
        self.bindings[info.group_id] = binding
        self._ensure_retransmit_timer()
        self.tracer.emit("replication", "binding_created",
                         node=self.node_id, group=info.group_id, role=role)
        self._sync_fault_detector()
        return binding

    def multicast_iiop(self, envelope: IiopEnvelope) -> None:
        self.multicast(envelope)

    # ------------------------------------------------------------------
    # Unanswered-request retransmission
    # ------------------------------------------------------------------

    def _ensure_retransmit_timer(self) -> None:
        if self._retransmit_timer is not None:
            return
        self._retransmit_timer = PeriodicTimer(
            self.process.scheduler, REQUEST_RETRANSMIT_INTERVAL,
            self._retransmit_tick,
        )

    def _retransmit_tick(self) -> None:
        """Re-multicast two-way requests that have gone unanswered for two
        consecutive ticks.

        A request ordered while its target group had no live members (the
        window a cold boot recovers from) was dropped by everyone; only
        the issuing replica can put it back on the wire.  Re-sent copies
        that *were* delivered are suppressed by every replica's duplicate
        filter, so retransmission is idempotent."""
        stale = {}
        for binding in self.bindings.values():
            for envelope in binding.interceptor.open_requests():
                stale[(binding.group_id, envelope.connection,
                       envelope.request_id)] = envelope
        for key, envelope in stale.items():
            if key in self._retransmit_seen:
                self.tracer.emit("interceptor", "retransmit",
                                 node=self.node_id, group=key[0],
                                 conn=envelope.connection.as_str(),
                                 request_id=envelope.request_id)
                self.multicast(envelope)
        self._retransmit_seen = set(stale)

    def _stop_retransmit_timer(self) -> None:
        if self._retransmit_timer is not None:
            self._retransmit_timer.stop()
            self._retransmit_timer = None
        self._retransmit_seen = set()

    def _on_reply_produced(self, binding: ReplicaBinding,
                           connection: ConnectionKey, data: bytes) -> None:
        group = self.groups.get(binding.group_id)
        if group is None or not group.executes(self.node_id):
            return
        if (self.readfast is not None
                and self.readfast.intercept_reply(binding, connection, data)):
            # The reply answers a lease-served read: it went back
            # point-to-point and must not enter the total order.
            return
        binding.interceptor.capture_server_reply(connection, data)

    def _destroy_binding(self, group_id: str) -> None:
        binding = self.bindings.pop(group_id, None)
        self.recovery.forget_pending_checkpoint(group_id)
        if binding is not None:
            self.tracer.emit("replication", "binding_destroyed",
                             node=self.node_id, group=group_id)

    # ------------------------------------------------------------------
    # Replica faults (pull monitoring, FT-CORBA fault detection)
    # ------------------------------------------------------------------

    def _handle_replica_fault(self, envelope: ReplicaFault) -> None:
        info = self.groups.get(envelope.group_id)
        if info is None or envelope.node_id not in info.roles:
            return
        self.tracer.emit("replication", "replica_fault", node=self.node_id,
                         group=envelope.group_id, faulty=envelope.node_id)
        promoted = info.handle_node_loss({envelope.node_id})
        if envelope.node_id == self.node_id:
            self._destroy_binding(envelope.group_id)
            if self.fault_detector is not None:
                self.fault_detector.forget(envelope.group_id)
        if promoted == self.node_id:
            self.recovery.begin_failover(envelope.group_id)
        self._sync_checkpoint_timer(info)
        for fn in list(self._replica_fault_listeners):
            fn(envelope)

    def _handle_node_restarted(self, envelope: NodeRestarted) -> None:
        stale_members = (
            envelope.node_id != self.node_id
            # Incarnation 0 is the node's very first boot: nothing could
            # have been placed on a previous life, so there is nothing to
            # drop (and the boot announcements of the initial nodes may be
            # ordered after the first group creations).
            and envelope.incarnation > 0
            and envelope.incarnation > self._node_incarnations.get(
                envelope.node_id, 0)
        )
        self._node_incarnations[envelope.node_id] = max(
            envelope.incarnation,
            self._node_incarnations.get(envelope.node_id, 0),
        )
        if stale_members:
            touched = False
            for info in self.groups.values():
                if envelope.node_id not in info.roles:
                    continue
                touched = True
                promoted = info.handle_node_loss({envelope.node_id})
                if promoted == self.node_id:
                    self.recovery.begin_failover(info.group_id)
                self._sync_checkpoint_timer(info)
            if touched:
                self.tracer.emit("replication", "node_restart_cleanup",
                                 node=self.node_id,
                                 restarted=envelope.node_id)
        for fn in list(self._node_restart_listeners):
            fn(envelope)

    def on_node_restarted(self, fn: Callable[[NodeRestarted], None]) -> None:
        """Subscribe to delivered node-restart announcements."""
        self._node_restart_listeners.append(fn)

    def _sync_fault_detector(self) -> None:
        """Run one pull-monitor per node at the tightest fault monitoring
        interval among the locally hosted groups."""
        from repro.core.fault_detector import ReplicaFaultDetector
        local_groups = [self.groups[g] for g in self.bindings
                        if g in self.groups]
        if not local_groups:
            return
        interval = min(
            getattr(info, "fault_monitoring_interval", 0.05)
            for info in local_groups
        )
        if self.fault_detector is None:
            self.fault_detector = ReplicaFaultDetector(self, interval)

    # ------------------------------------------------------------------
    # Checkpoint timers (passive styles, §3.3)
    # ------------------------------------------------------------------

    def _sync_checkpoint_timer(self, info: GroupInfo) -> None:
        """The checkpoint initiator's node runs the periodic state-retrieval
        timer: the primary for passive styles, and — only when a durable
        store needs feeding — the lowest operational executor for active
        ones (see :meth:`RecoveryMechanisms.checkpoint_initiator`)."""
        should_run = (
            info.group_id in self.bindings
            and self.recovery.checkpoint_initiator(info) == self.node_id
        )
        timer = self._checkpoint_timers.get(info.group_id)
        if should_run and timer is None:
            self._checkpoint_timers[info.group_id] = PeriodicTimer(
                self.process.scheduler, info.checkpoint_interval,
                lambda gid=info.group_id: self.recovery.initiate_checkpoint(gid),
            )
        elif not should_run and timer is not None:
            timer.stop()
            del self._checkpoint_timers[info.group_id]

    # ------------------------------------------------------------------
    # View changes (fault detection via the ring membership)
    # ------------------------------------------------------------------

    def _on_view_change(self, view: View) -> None:
        if (self.totem.last_install_was_fresh
                and (self.groups or self.bindings)):
            # We lost the primary-component vote in a partition merge: our
            # ring history — and therefore our replicas' consistency — is
            # gone.  Reset and announce, so the Replication Manager
            # re-places and re-synchronizes our replicas from the canonical
            # side's state.
            self._reset_after_history_loss()
        current = set(view.members)
        previous = self._known_view_members or current
        lost = previous - current
        joined = current - previous
        self._known_view_members = current
        if lost:
            self._apply_node_loss(lost)
        for fn in list(self._view_listeners):
            fn(view, lost, joined)

    def _reset_after_history_loss(self) -> None:
        self.tracer.emit("replication", "history_lost", node=self.node_id,
                         groups=sorted(self.groups))
        for group_id in list(self.bindings):
            self._destroy_binding(group_id)
        self.groups.clear()
        for timer in self._checkpoint_timers.values():
            timer.stop()
        self._checkpoint_timers.clear()
        self._stop_retransmit_timer()
        from repro.core.recovery import RecoveryMechanisms
        self.recovery = RecoveryMechanisms(self)
        epoch = self.process.next_announce_epoch()
        self.announce_epoch = epoch
        self.multicast(NodeRestarted(self.node_id, epoch))

    def _apply_node_loss(self, lost: Set[str]) -> None:
        for info in self.groups.values():
            promoted = info.handle_node_loss(lost)
            if promoted is not None:
                self.tracer.emit("replication", "promote",
                                 node=self.node_id, group=info.group_id,
                                 new_primary=promoted)
                if promoted == self.node_id:
                    self.recovery.begin_failover(info.group_id)
                self._sync_checkpoint_timer(info)


IOR_PORT = 2809
