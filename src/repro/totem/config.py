"""Tuning parameters of the Totem single-ring protocol."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TotemConfig:
    """Protocol timers and windows.

    Defaults are scaled to the simulated 100 Mbps LAN: a token hop costs
    roughly 100 µs, so an idle 4-node rotation takes ~0.5 ms and the token
    timeout of 20 ms tolerates several missed rotations before declaring a
    failure — comparable, relative to link speed, to production Totem
    settings.
    """

    token_hold: float = 20e-6
    """How long a member keeps the token on a quiet ring (a full rotation
    carried and requested nothing) — at most: that hold is *parked*, and
    ends early when any member queues a payload (``HoldCancel``) — and
    while it is draining a backlog of its own, where the hold is the
    batching window and is never cut short.  An active ring forwards
    after the modelled processing time instead
    (``member.TOKEN_PROCESSING_TIME``, equal to this default — so only a
    larger value, like the live runtime's 1 ms, makes the two differ, or
    ever parks a token)."""

    token_timeout: float = 0.02
    """Silence on the token this long ⇒ suspect failure, start gather."""

    gather_timeout: float = 0.01
    """How long the gather phase collects JOIN messages before forming."""

    join_interval: float = 0.005
    """Re-broadcast period for JOIN while gathering/joining."""

    max_burst: int = 64
    """Maximum data frames one member broadcasts per token visit (a packed
    frame carrying several fragments counts once)."""

    frame_packing: bool = True
    """Coalesce queued sub-MTU fragments into one multi-payload frame per
    broadcast slot, amortizing the fixed per-frame costs (header bytes,
    inter-frame gap, per-frame CPU).  Full-MTU fragments always travel as
    classic single-fragment frames.  Disabling restores one frame per
    fragment."""

    retain_safe_slack: int = 128
    """Retain messages this far below the safe sequence (GC headroom)."""

    max_queue: int = 100_000
    """Upper bound on the per-member send queue (backpressure guard)."""

    probe_interval: float = 0.01
    """Leader broadcasts a ring probe this often so concurrent rings in a
    healed partition discover each other even when idle."""

    ring_name: str = ""
    """Shard identity of this ring in a multi-ring deployment.  Namespaces
    the delivery-order configuration key and rotation span ids so two
    shards that independently compute the same ring_id and member-set
    fingerprint (e.g. symmetric rings ``r0.{m,s1}`` / ``r1.{m,s1}``) can
    never be confused by the auditor or the span plane.  Empty for the
    classic single-ring deployment."""

    def __post_init__(self) -> None:
        if self.token_timeout <= self.token_hold:
            raise ValueError("token_timeout must exceed token_hold")
        if self.max_burst < 1:
            raise ValueError("max_burst must be at least 1")
