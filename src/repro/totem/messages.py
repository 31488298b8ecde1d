"""Wire messages of the Totem single-ring protocol.

Each message declares an honest ``size_bytes`` so the network model charges
realistic transmission time.  The sizes follow the layout a real
implementation would use (fixed header plus per-entry costs); the payload of
a :class:`DataMsg` is actual bytes, so its dominant term is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

DATA_HEADER = 32
"""Fixed per-frame overhead of a :class:`DataMsg` in bytes (ring_id, seq,
sender, fragment info, checksum).  The ring member subtracts this from the
transport MTU to size fragments."""

_DATA_HEADER = DATA_HEADER   # historical alias
_TOKEN_BASE = 56        # ring_id, seq, aru, aru_id, rotations, ring key/phase
_JOIN_BASE = 64         # sender, ring id/base seen, aru, fresh flag, digest
_FORM_BASE = 64         # ring_id, flush_seq, leader

PACKED_SUBHEADER = 12
"""Per-payload overhead inside a :class:`PackedDataMsg` (msg_id, fragment
indices, payload length)."""


@dataclass(frozen=True)
class DataMsg:
    """One sequenced multicast frame carrying a fragment of an application
    message.  ``seq`` is globally unique and monotonically increasing across
    ring reformations (the new ring continues from the flush sequence)."""

    ring_id: int
    seq: int
    sender: str
    msg_id: Tuple[str, int]     # (originating node, per-origin counter)
    frag_index: int
    frag_count: int
    chunk: bytes
    retransmit: bool = False
    trace_id: str = ""          # end-to-end invocation trace (may be empty)

    @property
    def size_bytes(self) -> int:
        return _DATA_HEADER + len(self.chunk)


@dataclass(frozen=True)
class PackedPayload:
    """One application fragment carried inside a :class:`PackedDataMsg`."""

    msg_id: Tuple[str, int]     # (originating node, per-origin counter)
    frag_index: int
    frag_count: int
    chunk: bytes
    trace_id: str = ""          # end-to-end invocation trace (may be empty)


@dataclass(frozen=True)
class PackedDataMsg:
    """One sequenced multicast frame carrying *several* sub-MTU fragments.

    The token holder coalesces queued fragments that fit together under
    the transport MTU into a single frame per token visit, amortizing the
    fixed per-frame cost (header, inter-frame silence, per-frame CPU) over
    many small application messages.  The frame occupies exactly one slot
    (``seq``) in the total order; members deliver its payloads in listed
    order, so total-order and reassembly semantics are unchanged — a
    packed frame is equivalent to its payloads sent back-to-back.
    """

    ring_id: int
    seq: int
    sender: str
    payloads: Tuple[PackedPayload, ...]
    retransmit: bool = False

    @property
    def size_bytes(self) -> int:
        return _DATA_HEADER + sum(PACKED_SUBHEADER + len(p.chunk)
                                  for p in self.payloads)


@dataclass
class Token:
    """The circulating token.  Possession authorizes broadcasting.

    ``seq`` is the highest sequence number assigned so far; ``aru``
    (all-received-up-to) is the lowest contiguous sequence number received by
    every member, tracked with the standard Totem ``aru_id`` rule; ``rtr``
    lists sequence numbers some member is missing (retransmission requests).

    ``ring_key`` fingerprints the exact ring configuration (id, leader and
    member set): concurrent sibling rings formed from divergent gather sets
    can collide on ``ring_id`` (each computes max-seen + 1), and the key is
    what keeps one ring's token from circulating in the other.  A token
    with ``commit_phase`` > 0 is a *commit token*: it carries no broadcast
    authority but must complete two full rotations of the forming ring
    (phase 1 = every member flushed, phase 2 = every member installs)
    before the ring becomes operational.
    """

    ring_id: int
    seq: int
    aru: int
    aru_id: str = ""
    rtr: List[int] = field(default_factory=list)
    rotations: int = 0
    ring_key: int = 0
    commit_phase: int = 0

    @property
    def size_bytes(self) -> int:
        return _TOKEN_BASE + 8 * len(self.rtr)


@dataclass(frozen=True)
class ProbeMsg:
    """Periodic leader broadcast announcing the ring's existence.

    Rings in a healed partition exchange no data until an application
    message happens to cross; the probe guarantees that concurrent rings
    discover each other (and merge) within a bounded time even when idle.
    """

    ring_id: int
    sender: str
    members: Tuple[str, ...]

    @property
    def size_bytes(self) -> int:
        return 40 + 16 * len(self.members)


@dataclass(frozen=True)
class HoldCancel:
    """Broadcast by a member of a quiet ring that has just queued a payload
    and does not hold the token: whoever has the token parked on its quiet
    hold forwards it now instead of sleeping the hold out (Corosync's
    ``memb_token_hold_cancel``).  Sent at most once per member per quiet
    episode and never retransmitted — a lost cancel costs what the hold
    always cost."""

    ring_id: int
    sender: str

    @property
    def size_bytes(self) -> int:
        return 40


@dataclass(frozen=True)
class JoinMsg:
    """Broadcast during the gather phase (and by joining members).

    ``delivered_aru`` / ``held`` describe what the sender can contribute to
    the flush; ``fresh`` marks a member with no history (a re-launched
    process), which will skip pre-join traffic — replica state is then
    restored by Eternal's recovery mechanisms, not by Totem.

    ``view_members`` is the sender's last installed ring membership; the
    gather leader uses view *connectivity* to distinguish members that
    merely lag a ring generation (overlapping views — same history) from
    members arriving out of a healed partition (disjoint views — divergent
    histories that cannot both be kept).

    ``base_seen`` is the ``base_seq`` of the sender's last installed ring.
    A join from an older ring generation whose ``delivered_aru`` exceeds
    the newest generation's base delivered into sequence numbers the newer
    lineage reassigned — its history conflicts and it must rejoin fresh.

    ``candidates`` (sorted) is who the sender would form a ring with: its
    last installed view and every member whose JOIN it holds for this
    gather, itself included.  The gather leader forms as soon as every
    candidate's latest JOIN names exactly the leader's own set.
    """

    sender: str
    ring_id_seen: int
    delivered_aru: int
    held: FrozenSet[int]
    fresh: bool
    view_members: Tuple[str, ...] = ()
    base_seen: int = 0
    candidates: Tuple[str, ...] = ()

    @property
    def size_bytes(self) -> int:
        # The held set is contiguous except for loss-induced holes, so the
        # wire form is a run-length range list: 8 bytes per maximal range.
        return (_JOIN_BASE + 8 * self._range_count()
                + 16 * (len(self.view_members) + len(self.candidates)))

    def _range_count(self) -> int:
        if not self.held:
            return 0
        ranges = 1
        previous = None
        for seq in sorted(self.held):
            if previous is not None and seq != previous + 1:
                ranges += 1
            previous = seq
        return ranges


@dataclass(frozen=True)
class FormMsg:
    """Sent by the gather leader to install the new ring.

    ``holders`` maps each sequence number in the flush window to one member
    that retains it; those members rebroadcast so every new member reaches
    ``flush_seq`` before the view is installed.

    ``fresh_members`` lists members whose pre-merge history is *not* the
    canonical one (a healed partition merges divergent rings; the larger
    side's history wins and the other side rejoins as history-less —
    primary-component semantics).
    """

    ring_id: int
    leader: str
    members: Tuple[str, ...]
    flush_seq: int
    base_seq: int               # deliveries start after this for fresh members
    holders: Dict[int, str]
    fresh_members: Tuple[str, ...] = ()

    @property
    def size_bytes(self) -> int:
        return (_FORM_BASE + 16 * len(self.members)
                + 12 * len(self.holders) + 16 * len(self.fresh_members))
