"""Multicast envelopes: everything Eternal sends over Totem.

Application IIOP traffic travels in :class:`IiopEnvelope` (the captured GIOP
bytes plus the operation identifier Eternal derived for them).  Group
administration and the state-transfer protocol travel in control envelopes.
All envelopes serialize to real bytes (CDR) so the network model charges
honest transmission time — in particular a :class:`StateSet` carrying a
large application state produces a proportionally large multicast message,
which Totem fragments at the Ethernet MTU: the mechanism behind Figure 6.

Every envelope type has one straight-line encoder and one decoder, reached
through one table (:data:`_ROWS`: tag, class, encoder, decoder) and
written on the offset-based CDR primitives of :mod:`repro.giop.cdr`
(big-endian, aligned relative to the leading tag octet).  The property
suite pins the layout to a reference written on the CDR streams
(``tests/properties/giop_oracle.py``).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import MarshalError, ProtocolError, UnmarshalError
from repro.giop.cdr import (r_double, r_longlong, r_octets,
                            r_string, r_ulong, w_double, w_longlong,
                            w_octets, w_string, w_ulong)
from repro.core.identifiers import (
    ConnectionKey,
    OperationId,
    OpKind,
    invocation_trace_id,
)


class TransferPurpose(enum.Enum):
    """Why a state transfer is happening (§5.1 recovery vs §3.3 checkpoint)."""

    RECOVERY = 0      # synchronizing a new/recovered replica (§5.1)
    CHECKPOINT = 1    # periodic state retrieval for passive styles (§3.3)


@dataclass(frozen=True)
class IiopEnvelope:
    """A captured IIOP message plus Eternal's routing/dedup metadata."""

    connection: ConnectionKey
    kind: OpKind
    request_id: int
    sender_node: str
    iiop_bytes: bytes

    @property
    def operation_id(self) -> OperationId:
        return OperationId(self.connection, self.request_id, self.kind)

    @property
    def trace_id(self) -> str:
        """End-to-end invocation trace id — derived, never serialized.

        Computed from fields already on the wire, so tracing adds no
        bytes to the charged envelope: at wire-bound load even ~20 bytes
        per small envelope measurably shifts the saturation knee.
        """
        return invocation_trace_id(self.connection, self.request_id)

    @property
    def target_group(self) -> str:
        """Requests go to the server group; replies to the client group."""
        return _target_group(self.kind, self.connection.client_group,
                             self.connection.server_group)


def _target_group(kind: OpKind, client_group: str, server_group: str) -> str:
    """The rule of :attr:`IiopEnvelope.target_group`, which
    :func:`iiop_target_group` applies to an encoded header."""
    return server_group if kind is OpKind.REQUEST else client_group


@dataclass(frozen=True)
class GroupUpdate:
    """Replication Manager: authoritative group-membership update.

    Carries the *full* membership (node, role, operational) so that a node
    that just rejoined the ring can rebuild its group view from any single
    update.  ``action`` selects the side effect at the affected node:

    * ``create`` — initial deployment; every listed member instantiates its
      replica, already consistent (identical initial state), and starts it;
    * ``add`` — ``subject_node`` instantiates a new replica and announces a
      :class:`ReplicaJoin` to start recovery;
    * ``remove`` — ``subject_node`` destroys its replica;
    * ``sync`` — membership bookkeeping only.
    """

    group_id: str
    type_id: str
    style: str                 # ReplicationStyle.value
    checkpoint_interval: float
    app_version: int
    members: Tuple[Tuple[str, str, bool], ...]  # (node, role, operational)
    action: str = "sync"
    subject_node: str = ""
    fault_monitoring_interval: float = 0.05
    max_log_messages: int = 0


@dataclass(frozen=True)
class ReplicaJoin:
    """Announced by the node hosting a newly launched replica; its delivery
    position starts the recovery protocol for that replica.

    ``base_digest`` is the app-state digest of the announcer's last
    committed checkpoint (empty if it has none): responders whose own
    checkpoint matches may answer with a page-level delta instead of the
    full snapshot (see :mod:`repro.core.statedelta`).

    ``bulk_ok`` advertises that the announcer can fetch large snapshots
    over the out-of-band bulk lane (:mod:`repro.core.bulk`); responders
    then multicast only a page manifest and serve the bytes
    point-to-point.  Cleared on the in-order fallback re-announce.

    ``store_position`` advertises how far the announcer's *durable* store
    covers the group's message stream: ``-1`` means no store is
    configured, ``0`` a configured but empty journal, and a positive
    value the highest journaled local log position.  When no live member
    can answer the join (whole-cluster restart), these values elect the
    cold-boot seed (see
    :meth:`repro.core.recovery.RecoveryMechanisms.handle_cold_seed`)."""

    group_id: str
    node_id: str
    transfer_id: str
    base_digest: str = ""
    bulk_ok: bool = False
    store_position: int = -1


@dataclass(frozen=True)
class StateGet:
    """The fabricated ``get_state()`` marker in the total order (§5.1 i).

    ``base_digest`` names the shared base snapshot a delta-encoded reply
    may be computed against (empty requests a full snapshot); ``bulk_ok``
    carries the target's bulk-lane capability through to the responders."""

    group_id: str
    transfer_id: str
    purpose: TransferPurpose
    initiator: str
    target_node: str = ""      # RECOVERY: the node being synchronized
    base_digest: str = ""
    bulk_ok: bool = False


@dataclass(frozen=True)
class ReplicaFault:
    """A fault detector's report: a replica on a (live) node is faulty.

    Travels in the total order so every node — and the Replication Manager
    — learns of the fault at the same logical point (FT-CORBA pull
    monitoring at the fault monitoring interval, paper §2)."""

    group_id: str
    node_id: str
    reason: str = "unresponsive"


@dataclass(frozen=True)
class ColdSeed:
    """A cold-boot candidate claims the seed role for a whole-dead group.

    When every replica of a group is gone — full-cluster power loss — no
    member can answer a :class:`ReplicaJoin`, and §5.1 recovery has
    nothing to ladder from.  A restarting node with a durable store waits
    out a short bid window collecting the ``store_position`` values from
    its peers' join announcements; the best-covered candidate (ties to
    the lowest node id) multicasts ``ColdSeed``.  Its delivery in the
    total order is the group's rebirth point: every node marks the seed
    operational, the seed restores from its journal and replays its local
    log, and everyone else recovers from the seed over the ordinary
    ladder — now with a live responder."""

    group_id: str
    node_id: str
    transfer_id: str
    store_position: int = 0


@dataclass(frozen=True)
class NodeRestarted:
    """A node's stack re-launched with a fresh incarnation.

    A process that restarts faster than the token timeout never leaves the
    ring view, so membership alone cannot reveal that its replicas'
    volatile state is gone.  The rebuilt stack announces itself in the
    total order; every node drops the announcer's (dead) members at the
    same logical point, and the Replication Manager re-places them."""

    node_id: str
    incarnation: int


#: Versioned ``StateSet`` body layouts: a full encoded snapshot, a
#: page-level delta (:func:`repro.core.statedelta.encode_delta`) against
#: the receiver's last committed checkpoint, or a page manifest
#: (:func:`repro.core.bulk.encode_manifest`) whose pages travel over the
#: out-of-band bulk lane.
STATE_BODY_FULL = 0
STATE_BODY_DELTA = 1
STATE_BODY_MANIFEST = 2


@dataclass(frozen=True)
class StateSet:
    """The fabricated ``set_state()`` with the piggybacked ORB/POA-level
    and infrastructure-level state (§5.1 iv-v).

    ``app_state`` is a versioned body: the full encoded snapshot when
    ``app_delta`` and ``app_manifest`` are False, an encoded
    :class:`~repro.core.statedelta.StateDelta` the receiver must apply to
    its own base checkpoint when ``app_delta``, or an encoded
    :class:`~repro.core.bulk.PageManifest` when ``app_manifest`` — the
    snapshot's integrity summary, with the pages themselves fetched
    point-to-point over the out-of-band bulk lane."""

    group_id: str
    transfer_id: str
    purpose: TransferPurpose
    source_node: str
    target_node: str
    app_state: bytes
    orb_state: bytes
    infra_state: bytes
    app_delta: bool = False
    app_manifest: bool = False


Envelope = Union[IiopEnvelope, GroupUpdate, ReplicaJoin, StateGet, StateSet,
                 ReplicaFault, NodeRestarted, ColdSeed]

# ---------------------------------------------------------------------------
# The codec: one encoder and one decoder per envelope type
# ---------------------------------------------------------------------------
#
# The tag octet sits at offset 0, so every encoder appends to a buffer that
# already holds it and every decoder starts reading at offset 1.

#: Discriminant octet -> member (a lookup, not an enum construction).
_OP_KINDS = {kind.value: kind for kind in OpKind}
_PURPOSES = {purpose.value: purpose for purpose in TransferPurpose}
_STATE_BODIES = (STATE_BODY_FULL, STATE_BODY_DELTA, STATE_BODY_MANIFEST)


def _member(table: dict, raw: int, what: str):
    try:
        return table[raw]
    except KeyError:
        raise ProtocolError(f"malformed envelope: unknown {what} {raw}") \
            from None


def _encode_iiop(buf: bytearray, envelope: IiopEnvelope) -> None:
    w_string(buf, envelope.connection.client_group)
    w_string(buf, envelope.connection.server_group)
    buf.append(envelope.kind.value)
    w_ulong(buf, envelope.request_id)
    w_string(buf, envelope.sender_node)
    w_octets(buf, envelope.iiop_bytes)


def _decode_iiop(data) -> IiopEnvelope:
    client_group, pos = r_string(data, 1)
    server_group, pos = r_string(data, pos)
    kind = _member(_OP_KINDS, data[pos], "operation kind")
    request_id, pos = r_ulong(data, pos + 1)
    sender_node, pos = r_string(data, pos)
    iiop_bytes, pos = r_octets(data, pos)
    return IiopEnvelope(ConnectionKey(client_group, server_group), kind,
                        request_id, sender_node, iiop_bytes)


def _encode_group_update(buf: bytearray, envelope: GroupUpdate) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.type_id)
    w_string(buf, envelope.style)
    w_double(buf, envelope.checkpoint_interval)
    w_ulong(buf, envelope.app_version)
    w_ulong(buf, len(envelope.members))
    for node_id, role, operational in envelope.members:
        w_string(buf, node_id)
        w_string(buf, role)
        buf.append(1 if operational else 0)
    w_string(buf, envelope.action)
    w_string(buf, envelope.subject_node)
    w_double(buf, envelope.fault_monitoring_interval)
    w_ulong(buf, envelope.max_log_messages)


def _decode_group_update(data) -> GroupUpdate:
    group_id, pos = r_string(data, 1)
    type_id, pos = r_string(data, pos)
    style, pos = r_string(data, pos)
    checkpoint_interval, pos = r_double(data, pos)
    app_version, pos = r_ulong(data, pos)
    count, pos = r_ulong(data, pos)
    members = []
    for _ in range(count):
        node_id, pos = r_string(data, pos)
        role, pos = r_string(data, pos)
        members.append((node_id, role, data[pos] != 0))
        pos += 1
    action, pos = r_string(data, pos)
    subject_node, pos = r_string(data, pos)
    fault_monitoring_interval, pos = r_double(data, pos)
    max_log_messages, pos = r_ulong(data, pos)
    return GroupUpdate(group_id, type_id, style, checkpoint_interval,
                       app_version, tuple(members), action, subject_node,
                       fault_monitoring_interval, max_log_messages)


def _encode_replica_join(buf: bytearray, envelope: ReplicaJoin) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.node_id)
    w_string(buf, envelope.transfer_id)
    w_octets(buf, envelope.base_digest.encode("ascii"))
    buf.append(1 if envelope.bulk_ok else 0)
    w_longlong(buf, envelope.store_position)


def _decode_replica_join(data) -> ReplicaJoin:
    group_id, pos = r_string(data, 1)
    node_id, pos = r_string(data, pos)
    transfer_id, pos = r_string(data, pos)
    base_digest, pos = r_octets(data, pos)
    bulk_ok = data[pos] != 0
    store_position, pos = r_longlong(data, pos + 1)
    return ReplicaJoin(group_id, node_id, transfer_id,
                       str(base_digest, "ascii"), bulk_ok, store_position)


def _encode_state_get(buf: bytearray, envelope: StateGet) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.transfer_id)
    buf.append(envelope.purpose.value)
    w_string(buf, envelope.initiator)
    w_string(buf, envelope.target_node)
    w_octets(buf, envelope.base_digest.encode("ascii"))
    buf.append(1 if envelope.bulk_ok else 0)


def _decode_state_get(data) -> StateGet:
    group_id, pos = r_string(data, 1)
    transfer_id, pos = r_string(data, pos)
    purpose = _member(_PURPOSES, data[pos], "transfer purpose")
    initiator, pos = r_string(data, pos + 1)
    target_node, pos = r_string(data, pos)
    base_digest, pos = r_octets(data, pos)
    return StateGet(group_id, transfer_id, purpose, initiator, target_node,
                    str(base_digest, "ascii"), data[pos] != 0)


def _encode_state_set(buf: bytearray, envelope: StateSet) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.transfer_id)
    buf.append(envelope.purpose.value)
    w_string(buf, envelope.source_node)
    w_string(buf, envelope.target_node)
    if envelope.app_manifest:
        buf.append(STATE_BODY_MANIFEST)
    elif envelope.app_delta:
        buf.append(STATE_BODY_DELTA)
    else:
        buf.append(STATE_BODY_FULL)
    w_octets(buf, envelope.app_state)
    w_octets(buf, envelope.orb_state)
    w_octets(buf, envelope.infra_state)


def _decode_state_set(data) -> StateSet:
    group_id, pos = r_string(data, 1)
    transfer_id, pos = r_string(data, pos)
    purpose = _member(_PURPOSES, data[pos], "transfer purpose")
    source_node, pos = r_string(data, pos + 1)
    target_node, pos = r_string(data, pos)
    body_kind = data[pos]
    if body_kind not in _STATE_BODIES:
        raise ProtocolError(f"unknown StateSet body kind {body_kind}")
    app_state, pos = r_octets(data, pos + 1)
    orb_state, pos = r_octets(data, pos)
    infra_state, pos = r_octets(data, pos)
    return StateSet(group_id, transfer_id, purpose, source_node,
                    target_node, app_state, orb_state, infra_state,
                    app_delta=body_kind == STATE_BODY_DELTA,
                    app_manifest=body_kind == STATE_BODY_MANIFEST)


def _encode_replica_fault(buf: bytearray, envelope: ReplicaFault) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.node_id)
    w_string(buf, envelope.reason)


def _decode_replica_fault(data) -> ReplicaFault:
    group_id, pos = r_string(data, 1)
    node_id, pos = r_string(data, pos)
    reason, pos = r_string(data, pos)
    return ReplicaFault(group_id, node_id, reason)


def _encode_node_restarted(buf: bytearray, envelope: NodeRestarted) -> None:
    w_string(buf, envelope.node_id)
    w_ulong(buf, envelope.incarnation)


def _decode_node_restarted(data) -> NodeRestarted:
    node_id, pos = r_string(data, 1)
    incarnation, pos = r_ulong(data, pos)
    return NodeRestarted(node_id, incarnation)


def _encode_cold_seed(buf: bytearray, envelope: ColdSeed) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.node_id)
    w_string(buf, envelope.transfer_id)
    w_longlong(buf, envelope.store_position)


def _decode_cold_seed(data) -> ColdSeed:
    group_id, pos = r_string(data, 1)
    node_id, pos = r_string(data, pos)
    transfer_id, pos = r_string(data, pos)
    store_position, pos = r_longlong(data, pos)
    return ColdSeed(group_id, node_id, transfer_id, store_position)


_IIOP_TAG = 1

#: One row per envelope type: (tag, class, encoder, decoder).
_ROWS = (
    (_IIOP_TAG, IiopEnvelope, _encode_iiop, _decode_iiop),
    (2, GroupUpdate, _encode_group_update, _decode_group_update),
    (5, ReplicaJoin, _encode_replica_join, _decode_replica_join),
    (6, StateGet, _encode_state_get, _decode_state_get),
    (7, StateSet, _encode_state_set, _decode_state_set),
    (8, ReplicaFault, _encode_replica_fault, _decode_replica_fault),
    (9, NodeRestarted, _encode_node_restarted, _decode_node_restarted),
    (10, ColdSeed, _encode_cold_seed, _decode_cold_seed),
)

#: Exact class -> (tag octet, encoder).
_ENCODERS = {cls: (bytes((tag,)), encode) for tag, cls, encode, _ in _ROWS}
#: Tag -> decoder.
_DECODERS = {tag: decode for tag, _, _, decode in _ROWS}


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope for multicast."""
    entry = _ENCODERS.get(type(envelope))
    if entry is None:
        raise ProtocolError(
            f"cannot encode envelope {type(envelope).__name__}")
    tag, encode = entry
    buf = bytearray(tag)
    try:
        encode(buf, envelope)
    except struct.error as exc:
        raise MarshalError(
            f"unencodable {type(envelope).__name__} field: {exc}") from exc
    return bytes(buf)


def iiop_target_group(data: bytes) -> Optional[str]:
    """The group an encoded :class:`IiopEnvelope` is addressed to, read
    from its header (the two group names and the kind) without decoding
    the rest; ``None`` for any other envelope, or a header
    :func:`decode_envelope` would reject."""
    if not data or data[0] != _IIOP_TAG:
        return None
    try:
        client_group, pos = r_string(data, 1)
        server_group, pos = r_string(data, pos)
        kind = _OP_KINDS.get(data[pos])
    except (struct.error, IndexError, ValueError):
        return None
    if kind is None:
        return None
    return _target_group(kind, client_group, server_group)


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope`."""
    if not data:
        raise UnmarshalError("empty envelope")
    decode = _DECODERS.get(data[0])
    if decode is None:
        raise ProtocolError(f"unknown envelope tag {data[0]}")
    try:
        return decode(data)
    except (struct.error, IndexError) as exc:
        raise UnmarshalError(
            f"truncated envelope (tag {data[0]}): {exc}") from exc
    except ValueError as exc:
        # invalid text in hostile/corrupted bytes
        raise ProtocolError(f"malformed envelope: {exc}") from exc
