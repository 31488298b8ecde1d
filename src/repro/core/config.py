"""Tunables of the Eternal mechanisms (and ablation switches).

The two ``sync_*`` flags (``sync_orb_request_ids``, ``sync_handshake``)
exist for the ablation benchmarks: disabling them reproduces the failure
modes the paper uses to motivate ORB/POA-level state synchronization
(Figure 4's request_id mismatch, §4.2.2's lost handshake).

A field stays here only while somebody sets it: a bench sweeps it, an
ablation names it, or a test gives it a non-default value
(``tests/unit/test_repo_hygiene.py`` checks every field against the call
sites under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``).  A
parameter with one value is a documented module constant beside its
reader instead — ``recovery.COLD_START_DELAY`` / ``RECOVERY_RETRY_TIMEOUT``
/ ``COLD_BOOT_WINDOW`` / ``BULK_MIN_BYTES``, ``bulk.BURST_INTERVAL`` /
``STORE_TTL``, ``statedelta.PAGE_SIZE``,
``container.REPLY_PROCESSING_DELAY`` / ``STATE_CAPTURE_BPS``,
``replication.REQUEST_RETRANSMIT_INTERVAL``,
``readfast.READ_LEASE_TIMEOUT`` — and becomes a field again when
something needs to vary it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EternalConfig:
    """Per-deployment mechanism parameters."""

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

    def __post_init__(self) -> None:
        if self.bulk_stripe_width < 1:
            raise ValueError("bulk_stripe_width must be positive")
        if self.bulk_retransmit_timeout <= 0:
            raise ValueError("bulk_retransmit_timeout must be positive")
        if self.bulk_max_retries < 1:
            raise ValueError("bulk_max_retries must be positive")
        if self.bulk_burst_pages < 1:
            raise ValueError("bulk_burst_pages must be positive")
        if self.max_log_length < 0:
            raise ValueError("max_log_length must be non-negative")
