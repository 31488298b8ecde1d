"""Pluggable durable checkpoint & message-log store.

:class:`DurableStore` is the per-node persistence backend the
Replication/Recovery Mechanisms write through.  It hands out one
:class:`GroupStore` per hosted object group, which journals

* every **checkpoint** the node commits (paper §3.3's "checkpoint
  overwrites its predecessor" semantics, but with the superseded records
  kept until compaction so the on-disk log stays append-only), and
* every **totally-ordered message** delivered to the group past the last
  durable checkpoint,

so a restarting node can rebuild its :class:`~repro.core.msglog.MessageLog`
from local disk first and fetch only the digest-negotiated tail from live
peers (the Oswald-style recovery ladder: manifest → snapshot → catch-up).

All journal *semantics* — delta-vs-full checkpoint selection, the
delta-chain bound, position-keyed dedup on load, compaction on every full
checkpoint — live here in :class:`GroupStore`, shared by every backend.
Backends implement only the raw record transport
(:class:`GroupBackend`): the segmented on-disk journal
(:mod:`repro.store.journal`) and the in-memory equivalent for simnet
determinism (:mod:`repro.store.memory`).

Positions are the node-local delivery indices of the group's message
stream.  They stay monotonic across process restarts because the
recovery layer restores ``delivery_position`` from the store before the
binding delivers anything new — the invariant that lets a single
position-keyed prune rule cover both live operation and post-crash
replay.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.msglog import CheckpointRecord
from repro.core.statedelta import (
    PAGE_SIZE,
    apply_delta,
    compute_delta,
    decode_delta,
    encode_delta,
)
from repro.errors import StateTransferError, StoreCorruptError
from repro.runtime.trace import NULL_TRACER, Tracer
from repro.store.records import (
    CheckpointPayload,
    MessagePayload,
    encode_checkpoint,
    encode_message,
)

#: Default bound on the delta-checkpoint chain: every Nth checkpoint is
#: written in full (and triggers compaction), so replay cost and journal
#: growth stay proportional to recent work, not uptime.
DEFAULT_MAX_DELTA_CHAIN = 8

FSYNC_ALWAYS = "always"
FSYNC_CHECKPOINT = "checkpoint"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_CHECKPOINT, FSYNC_NEVER)


@dataclass(frozen=True)
class StoredState:
    """What a group's journal reconstructs to on open."""

    checkpoint: Optional[CheckpointRecord]
    messages: Tuple[Tuple[int, bytes], ...]   # (position, envelope bytes)

    @property
    def last_position(self) -> int:
        """Highest local log position the durable state covers (0 when the
        journal is empty)."""
        last = self.checkpoint.position if self.checkpoint else 0
        if self.messages:
            last = max(last, self.messages[-1][0])
        return max(0, last)

    @property
    def empty(self) -> bool:
        return self.checkpoint is None and not self.messages


class GroupBackend(ABC):
    """Raw record transport for one group's journal."""

    def __init__(self, group_id: str) -> None:
        self.group_id = group_id
        self.tracer: Tracer = NULL_TRACER
        self.node_id = ""

    @abstractmethod
    def load_payloads(self) -> List:
        """All decoded record payloads, in append order.  Truncates a torn
        tail silently; raises :class:`StoreCorruptError` on anything else."""

    @abstractmethod
    def append(self, payload: bytes, *, sync: bool) -> None:
        """Append one framed record; ``sync`` forces it to stable storage."""

    @abstractmethod
    def rewrite(self, payloads: List[bytes]) -> None:
        """Atomically replace the whole journal with ``payloads``
        (compaction).  Must be crash-safe: a crash at any point leaves
        either the old or the new journal loadable."""

    @abstractmethod
    def wipe(self) -> None:
        """Discard the journal entirely (fresh deployment / quarantine)."""

    @abstractmethod
    def close(self) -> None:
        """Release file handles (crash simulation / teardown)."""

    @abstractmethod
    def stats(self) -> Dict[str, float]:
        """Backend gauges: at least ``bytes`` and ``segments``."""


class GroupStore:
    """One group's durable journal: semantics over a :class:`GroupBackend`."""

    def __init__(self, group_id: str, backend: GroupBackend, *,
                 fsync: str = FSYNC_CHECKPOINT,
                 max_delta_chain: int = DEFAULT_MAX_DELTA_CHAIN,
                 page_size: int = PAGE_SIZE,
                 tracer: Tracer = NULL_TRACER,
                 node_id: str = "") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}")
        if max_delta_chain < 1:
            raise ValueError("max_delta_chain must be positive")
        self.group_id = group_id
        self.backend = backend
        self.fsync = fsync
        self.max_delta_chain = max_delta_chain
        self.page_size = page_size
        backend.tracer = tracer
        backend.node_id = node_id
        self._loaded: Optional[StoredState] = None
        self._base_app_state: Optional[bytes] = None   # last durable ckpt app
        self._chain_length = 0
        self._pending: Dict[int, bytes] = {}           # messages past ckpt
        self._last_position = 0
        self.checkpoints_written = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Open / replay
    # ------------------------------------------------------------------

    def load(self) -> StoredState:
        """Reconstruct the durable state (idempotent; cached after the
        first call until :meth:`reset`).

        Replays the journal in append order: the newest checkpoint — with
        any delta chain applied — wins, superseding all messages at or
        before its position; later messages are deduplicated by position
        (duplicates are the benign residue of an interrupted compaction).
        """
        if self._loaded is not None:
            return self._loaded
        payloads = self.backend.load_payloads()
        checkpoint: Optional[CheckpointRecord] = None
        chain = 0
        messages: Dict[int, bytes] = {}
        for payload in payloads:
            if isinstance(payload, CheckpointPayload):
                checkpoint = self._rebuild_checkpoint(checkpoint, payload)
                chain = 0 if not payload.delta else chain + 1
                messages = {p: raw for p, raw in messages.items()
                            if p > payload.position}
            elif isinstance(payload, MessagePayload):
                messages[payload.position] = payload.envelope_bytes
        ordered = tuple(sorted(messages.items()))
        self._loaded = StoredState(checkpoint=checkpoint, messages=ordered)
        self._base_app_state = checkpoint.app_state if checkpoint else None
        self._chain_length = chain
        self._pending = dict(messages)
        self._last_position = self._loaded.last_position
        return self._loaded

    def _rebuild_checkpoint(self, previous: Optional[CheckpointRecord],
                            payload: CheckpointPayload) -> CheckpointRecord:
        if not payload.delta:
            app_state = payload.app_state
        else:
            if previous is None:
                raise StoreCorruptError(
                    f"delta checkpoint {payload.transfer_id!r} has no base "
                    f"in journal order"
                )
            try:
                delta = decode_delta(payload.app_state)
                app_state = apply_delta(previous.app_state, delta)
            except StateTransferError as exc:
                raise StoreCorruptError(
                    f"delta checkpoint {payload.transfer_id!r} failed to "
                    f"apply: {exc}"
                ) from exc
        return CheckpointRecord(payload.transfer_id, payload.position,
                                app_state, payload.orb_state,
                                payload.infra_state)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append_message(self, position: int, envelope_bytes: bytes) -> None:
        """Journal one delivered message (write-ahead of execution)."""
        self._ensure_loaded()
        if position in self._pending:
            return                      # replayed drain — already durable
        payload = encode_message(position, envelope_bytes)
        self.backend.append(payload, sync=self.fsync == FSYNC_ALWAYS)
        self._pending[position] = envelope_bytes
        self._last_position = max(self._last_position, position)

    def commit_checkpoint(self, record: CheckpointRecord) -> None:
        """Journal a committed checkpoint.

        Stored as a page-level delta against the previous durable
        checkpoint when the chain bound allows and the delta actually
        saves bytes; every chain reset writes the full snapshot and
        compacts the journal down to it plus the still-live messages.
        """
        self._ensure_loaded()
        delta_body = None
        if (self._base_app_state is not None
                and self._chain_length < self.max_delta_chain - 1):
            delta = compute_delta(self._base_app_state, record.app_state,
                                  self.page_size)
            encoded = encode_delta(delta)
            if len(encoded) < len(record.app_state):
                delta_body = encoded
        sync = self.fsync in (FSYNC_ALWAYS, FSYNC_CHECKPOINT)
        if delta_body is not None:
            payload = encode_checkpoint(
                record.transfer_id, record.position, delta_body,
                record.orb_state, record.infra_state, delta=True,
            )
            self.backend.append(payload, sync=sync)
            self._chain_length += 1
        self._base_app_state = record.app_state
        self._pending = {p: raw for p, raw in self._pending.items()
                         if p > record.position}
        self._last_position = max(self._last_position, record.position)
        self.checkpoints_written += 1
        self._loaded = StoredState(
            checkpoint=record,
            messages=tuple(sorted(self._pending.items())),
        )
        if delta_body is None:
            # Chain reset: the full snapshot supersedes everything before
            # it, so rewrite the journal down to the live set.
            self._chain_length = 0
            self._compact(record)

    def _compact(self, record: CheckpointRecord) -> None:
        payloads = [encode_checkpoint(
            record.transfer_id, record.position, record.app_state,
            record.orb_state, record.infra_state, delta=False,
        )]
        for position, raw in sorted(self._pending.items()):
            payloads.append(encode_message(position, raw))
        self.backend.rewrite(payloads)
        self.compactions += 1

    def compact(self) -> bool:
        """Force a full rewrite now (CLI maintenance); returns False when
        there is no durable checkpoint to compact down to."""
        state = self.load()
        if state.checkpoint is None:
            return False
        self._chain_length = 0
        self._base_app_state = state.checkpoint.app_state
        self._compact(state.checkpoint)
        return True

    def reset(self) -> None:
        """Discard the journal (fresh deployment, or quarantine after
        corruption) and start empty."""
        self.backend.wipe()
        self._loaded = StoredState(checkpoint=None, messages=())
        self._base_app_state = None
        self._chain_length = 0
        self._pending = {}
        self._last_position = 0

    def _ensure_loaded(self) -> None:
        if self._loaded is None:
            try:
                self.load()
            except StoreCorruptError:
                # A writer that never consulted the journal starts fresh;
                # the recovery layer surfaces corruption on its own load.
                self.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_messages(self) -> int:
        """Messages journaled past the last durable checkpoint (the
        replay cost of a crash right now)."""
        return len(self._pending)

    @property
    def last_position(self) -> int:
        return self._last_position

    def close(self) -> None:
        self.backend.close()
        self._loaded = None              # reopen re-reads the backend

    def stats(self) -> Dict[str, float]:
        stats = dict(self.backend.stats())
        stats["pending_messages"] = self.pending_messages
        stats["checkpoints_written"] = self.checkpoints_written
        stats["compactions"] = self.compactions
        return stats


class DurableStore(ABC):
    """Per-node store: one journal per hosted object group."""

    def __init__(self) -> None:
        self.tracer: Tracer = NULL_TRACER
        self.node_id = ""
        self._groups: Dict[str, GroupStore] = {}

    def bind_tracer(self, tracer: Tracer, node_id: str) -> None:
        """Attach the system's tracer (called once by the system core when
        the store is adopted)."""
        self.tracer = tracer
        self.node_id = node_id
        for group in self._groups.values():
            group.backend.tracer = tracer
            group.backend.node_id = node_id

    @abstractmethod
    def _make_backend(self, group_id: str) -> GroupBackend:
        """Create the backend for one group's journal."""

    def group(self, group_id: str, *,
              page_size: int = PAGE_SIZE) -> GroupStore:
        """The journal handle for ``group_id`` (created on first use)."""
        store = self._groups.get(group_id)
        if store is None:
            store = GroupStore(
                group_id, self._make_backend(group_id),
                fsync=self.fsync_policy(),
                max_delta_chain=self.max_delta_chain(),
                page_size=page_size,
                tracer=self.tracer, node_id=self.node_id,
            )
            self._groups[group_id] = store
        return store

    def fsync_policy(self) -> str:
        return FSYNC_CHECKPOINT

    def max_delta_chain(self) -> int:
        return DEFAULT_MAX_DELTA_CHAIN

    def reset_group(self, group_id: str) -> None:
        """Wipe a group's journal (a ``create`` supersedes any history a
        previous deployment of the same group id left behind)."""
        self.group(group_id).reset()

    def handle_crash(self) -> None:
        """The hosting process crashed: drop handles without flushing, as
        SIGKILL would.  Whatever the backend already made durable is what
        a restart will find."""
        for group in self._groups.values():
            group.close()

    def close(self) -> None:
        for group in self._groups.values():
            group.close()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-group gauges for the health exposition."""
        return {gid: store.stats()
                for gid, store in sorted(self._groups.items())}
