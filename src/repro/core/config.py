"""Tunables of the Eternal mechanisms (and ablation switches).

The two ``sync_*`` flags (``sync_orb_request_ids``, ``sync_handshake``)
exist for the ablation benchmarks: disabling them reproduces the failure
modes the paper uses to motivate ORB/POA-level state synchronization
(Figure 4's request_id mismatch, §4.2.2's lost handshake).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EternalConfig:
    """Per-deployment mechanism parameters."""

    reply_processing_delay: float = 10e-6
    """Simulated client-side cost of processing one delivered reply."""

    state_capture_bps: float = 400e6
    """Simulated get_state/set_state serialization rate (bytes/second):
    capturing or assigning S bytes of state costs S / rate seconds of
    replica CPU time, in addition to the operation's base duration."""

    cold_start_delay: float = 0.020
    """Simulated process-launch time for a cold-passive backup."""

    recovery_retry_timeout: float = 1.0
    """A joining replica re-announces itself if not synchronized in time."""

    sync_orb_request_ids: bool = True
    """Transfer and re-align GIOP request_id counters during recovery
    (§4.2.1).  Disabling reproduces Figure 4's inconsistency."""

    sync_handshake: bool = True
    """Store and replay the client-server handshake message into a new
    server replica's ORB (§4.2.2).  Disabling reproduces the discarded
    requests failure."""

    delta_state_transfer: bool = True
    """Ship ``set_state()`` bodies as page-level deltas against the
    receiver's last committed checkpoint whenever both ends share the base
    (negotiated by checkpoint digest); fall back to the full snapshot
    otherwise.  Disabling restores the paper's always-full transfers
    (checkpoint cost linear in total state size)."""

    delta_page_size: int = 1024
    """Page granularity of delta state transfer (bytes)."""

    bulk_lane: bool = True
    """Move large recovery state transfers out of the Totem total order:
    the fabricated ``set_state()`` carries only a page manifest (per-page
    CRCs plus the whole-state digest) and the pages themselves travel
    point-to-point over the transport's out-of-band unicast lane, striped
    across all up-to-date replicas.  The paper's atomic assignment is
    preserved — state is applied only at the sync point, and only after
    every page verifies against the in-order digest.  Disabling restores
    the paper's fully in-order transfers (recovery latency linear in
    state size, Figure 6)."""

    bulk_min_bytes: int = 64 * 1024
    """Smallest full-snapshot recovery transfer that engages the bulk
    lane; smaller states (and page deltas) stay in the total order, where
    one small message is cheaper than a fetch round-trip."""

    bulk_stripe_width: int = 4
    """Maximum number of sponsor replicas a session stripes page ranges
    across."""

    bulk_retransmit_timeout: float = 0.05
    """Per-stripe watchdog: a sponsor whose stripe made no progress for
    this long is re-fetched (and dropped after ``bulk_max_retries``)."""

    bulk_max_retries: int = 3
    """Fruitless re-fetches of one sponsor's stripe before the session
    drops the sponsor and restripes over the survivors."""

    bulk_burst_pages: int = 32
    """Pages a sponsor sends back-to-back before yielding (paces the
    live transport's socket buffers; the simulator's link serializes
    regardless)."""

    bulk_burst_interval: float = 0.0005
    """Pause between a sponsor's page bursts (seconds)."""

    bulk_store_ttl: float = 5.0
    """How long a sponsor retains a stashed snapshot for out-of-band
    serving after announcing its manifest."""

    cold_boot_window: float = 0.5
    """How long a restarting replica with a durable store waits for a live
    responder (or a better-covered peer) before claiming the cold-boot
    seed role for its group (see :class:`repro.core.envelope.ColdSeed`).
    Trades restart latency against the chance of seeding from a journal
    that misses a peer's longer tail."""

    request_retransmit_interval: float = 0.5
    """How often a client-side replica re-multicasts a two-way request
    that is still awaiting its reply.  A request ordered while its target
    group had no live members (the window a cold boot recovers from) is
    dropped by everyone and would otherwise hang a reply-clocked client
    forever; the retransmission is idempotent because delivered duplicates
    are suppressed by every replica's duplicate filter.  A request is only
    re-sent once it has been outstanding for two consecutive ticks.  0
    disables retransmission (the paper's behaviour)."""

    max_log_length: int = 10_000
    """Deployment-wide bound on a warm-passive message log: the primary
    forces an early checkpoint when a group's log exceeds this between
    periodic timers.  A group's own ``FTProperties.max_log_messages``
    (when non-zero) takes precedence; 0 disables the deployment default
    (unbounded logs, the paper's behaviour)."""

    read_lease: bool = False
    """Leader-lease read fast path (LLFT-style application-aware
    relaxation): operations the servant declares ``read_only`` are served
    point-to-point by the ring leader among the target group's replicas,
    bypassing the total order, for as long as that leader's ring
    membership is current.  Lease safety rides on Totem's membership
    timeouts: a partitioned leaseholder's token-loss timeout fires before
    the survivors can complete ring formation, so the lease is revoked
    before a new ring can order conflicting writes.  Off by default (the
    paper's pure total-order behaviour)."""

    read_lease_timeout: float = 0.25
    """Client-side fallback: a fast-path read unanswered for this long is
    re-issued through the total order (idempotent — read_only operations
    may execute twice)."""

    def __post_init__(self) -> None:
        if self.state_capture_bps <= 0:
            raise ValueError("state_capture_bps must be positive")
        if self.cold_start_delay < 0:
            raise ValueError("cold_start_delay must be non-negative")
        if self.delta_page_size < 1:
            raise ValueError("delta_page_size must be positive")
        if self.bulk_min_bytes < 1:
            raise ValueError("bulk_min_bytes must be positive")
        if self.bulk_stripe_width < 1:
            raise ValueError("bulk_stripe_width must be positive")
        if self.bulk_retransmit_timeout <= 0:
            raise ValueError("bulk_retransmit_timeout must be positive")
        if self.bulk_max_retries < 1:
            raise ValueError("bulk_max_retries must be positive")
        if self.bulk_burst_pages < 1:
            raise ValueError("bulk_burst_pages must be positive")
        if self.bulk_burst_interval < 0:
            raise ValueError("bulk_burst_interval must be non-negative")
        if self.bulk_store_ttl <= 0:
            raise ValueError("bulk_store_ttl must be positive")
        if self.cold_boot_window <= 0:
            raise ValueError("cold_boot_window must be positive")
        if self.request_retransmit_interval < 0:
            raise ValueError(
                "request_retransmit_interval must be non-negative")
        if self.max_log_length < 0:
            raise ValueError("max_log_length must be non-negative")
        if self.read_lease_timeout <= 0:
            raise ValueError("read_lease_timeout must be positive")
