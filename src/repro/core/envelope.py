"""Multicast envelopes: everything Eternal sends over Totem.

Application IIOP traffic travels in :class:`IiopEnvelope` (the captured GIOP
bytes plus the operation identifier Eternal derived for them).  Group
administration and the state-transfer protocol travel in control envelopes.
All envelopes serialize to real bytes (CDR) so the network model charges
honest transmission time — in particular a :class:`StateSet` carrying a
large application state produces a proportionally large multicast message,
which Totem fragments at the Ethernet MTU: the mechanism behind Figure 6.

Every envelope type is one row of :data:`ENVELOPES`, a
:class:`repro.giop.cdr.Table`: a tag octet, then the class's fields in
wire order (big-endian CDR, aligned relative to the tag octet), built into
straight-line code by the codec kit.  :class:`StateSet` is the one
hand-written row, on the same CDR primitives: its body-kind octet stands
for two fields.  The property suite pins the layout to a reference written
on CDR streams (``tests/properties/giop_oracle.py``).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import ProtocolError, UnmarshalError
from repro.giop.cdr import (ASCII, BOOL, DOUBLE, LONGLONG, OCTETS, STRING,
                            ULONG, Codec, EnumOctet, Row, Seq, Table, Tup,
                            r_octets, r_string, w_octets, w_string)
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
# The codec: one table of rows
# ---------------------------------------------------------------------------
#
# The tag octet sits at offset 0, so every record starts at offset 1.

#: Discriminant octet -> member (a lookup, not an enum construction).
_OP_KINDS = {kind.value: kind for kind in OpKind}
_PURPOSES = {purpose.value: purpose for purpose in TransferPurpose}

# StateSet stays hand-written: its body-kind octet stands for two booleans
# (``app_delta``, ``app_manifest``), which no field kind states.

def _encode_state_set(buf: bytearray, envelope: StateSet) -> None:
    w_string(buf, envelope.group_id)
    w_string(buf, envelope.transfer_id)
    buf.append(envelope.purpose.value)
    w_string(buf, envelope.source_node)
    w_string(buf, envelope.target_node)
    buf.append(STATE_BODY_MANIFEST if envelope.app_manifest else
               STATE_BODY_DELTA if envelope.app_delta else STATE_BODY_FULL)
    w_octets(buf, envelope.app_state)
    w_octets(buf, envelope.orb_state)
    w_octets(buf, envelope.infra_state)


def _decode_state_set(data) -> StateSet:
    group_id, pos = r_string(data, 1)
    transfer_id, pos = r_string(data, pos)
    purpose = _PURPOSES.get(data[pos])
    if purpose is None:
        raise ProtocolError(f"unknown transfer purpose {data[pos]}")
    source_node, pos = r_string(data, pos + 1)
    target_node, pos = r_string(data, pos)
    body_kind = data[pos]
    if body_kind not in (STATE_BODY_FULL, STATE_BODY_DELTA,
                         STATE_BODY_MANIFEST):
        raise ProtocolError(f"unknown StateSet body kind {body_kind}")
    app_state, pos = r_octets(data, pos + 1)
    orb_state, pos = r_octets(data, pos)
    infra_state, pos = r_octets(data, pos)
    return StateSet(group_id, transfer_id, purpose, source_node,
                    target_node, app_state, orb_state, infra_state,
                    app_delta=body_kind == STATE_BODY_DELTA,
                    app_manifest=body_kind == STATE_BODY_MANIFEST)


_IIOP_TAG = 1

ENVELOPES = Table("envelope", None, (
    (_IIOP_TAG, Row(IiopEnvelope,
                    ("connection", Row(ConnectionKey,
                                       ("client_group", STRING),
                                       ("server_group", STRING))),
                    ("kind", EnumOctet(OpKind, "operation kind")),
                    ("request_id", ULONG), ("sender_node", STRING),
                    ("iiop_bytes", OCTETS))),
    (2, Row(GroupUpdate, ("group_id", STRING), ("type_id", STRING),
            ("style", STRING), ("checkpoint_interval", DOUBLE),
            ("app_version", ULONG),
            ("members", Seq(Tup(STRING, STRING, BOOL))),
            ("action", STRING), ("subject_node", STRING),
            ("fault_monitoring_interval", DOUBLE),
            ("max_log_messages", ULONG))),
    (5, Row(ReplicaJoin, ("group_id", STRING), ("node_id", STRING),
            ("transfer_id", STRING), ("base_digest", ASCII),
            ("bulk_ok", BOOL), ("store_position", LONGLONG))),
    (6, Row(StateGet, ("group_id", STRING), ("transfer_id", STRING),
            ("purpose", EnumOctet(TransferPurpose, "transfer purpose")),
            ("initiator", STRING), ("target_node", STRING),
            ("base_digest", ASCII), ("bulk_ok", BOOL))),
    (7, Codec(StateSet, _encode_state_set, _decode_state_set)),
    (8, Row(ReplicaFault, ("group_id", STRING), ("node_id", STRING),
            ("reason", STRING))),
    (9, Row(NodeRestarted, ("node_id", STRING), ("incarnation", ULONG))),
    (10, Row(ColdSeed, ("group_id", STRING), ("node_id", STRING),
             ("transfer_id", STRING), ("store_position", LONGLONG))),
))

#: Serialize an envelope for multicast.
encode_envelope = ENVELOPES.encode
#: Inverse of :func:`encode_envelope`.
decode_envelope = ENVELOPES.decode


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
    except (struct.error, IndexError, ValueError, UnmarshalError):
        return None
    if kind is None:
        return None
    return _target_group(kind, client_group, server_group)
