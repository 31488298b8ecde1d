"""Out-of-band bulk lane for recovery state transfer.

The paper's §5.1 protocol moves every byte of a fabricated ``set_state()``
through the Totem total order, so recovery time grows linearly with state
size (Figure 6) and fault-free traffic stalls behind the transfer.  The
paper's actual contribution, though, is *where* state is assigned — at the
sync point, atomically — not *how* the bytes travel.  This module keeps
only the sync markers in the total order and moves the bytes out-of-band:

* the fabricated ``set_state()`` carries a :class:`PageManifest` — the
  per-page CRC32s, total length, and whole-state digest of the snapshot —
  instead of the snapshot itself;
* every responder stashes its captured snapshot in a :class:`BulkStore`
  keyed by the transfer id (snapshots are captured at the same total-order
  position, so they are byte-identical across responders — the online
  auditor checks exactly this);
* the joining replica runs a :class:`BulkSession` that stripes page-range
  fetches across all up-to-date sponsors over ``Transport.unicast(...,
  oob=True)``, verifies each page against the manifest, re-fetches stalled
  stripes, restripes to survivors when a sponsor dies, and only when every
  page verifies hands the reassembled snapshot back to the recovery
  mechanisms for the paper's atomic assignment at the sync point.

Degraded-mode ordering: stalled stripe -> retransmit; sponsor exhausted ->
drop and restripe over survivors; no sponsors left (or manifest digest
mismatch) -> the session fails and recovery re-announces asking for the
classic in-order full transfer.  The bulk lane is therefore strictly an
optimization: correctness never depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.core.statedelta import PAGE_SIZE, page_digests, split_pages
from repro.errors import StateTransferError, UnmarshalError
from repro.giop.cdr import CdrInputStream, CdrOutputStream
from repro.obs.audit import state_digest
from repro.totem.wire import BulkFetch, BulkNack, BulkPage

#: Wire-format version of the encoded manifest body (bump on layout change).
MANIFEST_VERSION = 1

#: Pause between a sponsor's page bursts (seconds): paces the live
#: transport's socket buffers; the simulator's link serializes regardless.
BURST_INTERVAL = 0.0005

#: How long a sponsor retains a stashed snapshot (and the pending marker
#: of a capture still in flight) for out-of-band serving after announcing
#: its manifest (seconds).
STORE_TTL = 5.0


# ---------------------------------------------------------------------------
# Page manifest: the only state-transfer payload left in the total order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PageManifest:
    """Integrity summary of one snapshot: everything a joining replica
    needs to fetch, verify, and reassemble the bytes out-of-band."""

    state_digest: str           # whole-snapshot digest (repro.obs.audit)
    total_length: int           # byte length of the snapshot
    page_size: int
    page_crcs: Tuple[int, ...]  # CRC32 of each page, in order

    @property
    def page_count(self) -> int:
        return len(self.page_crcs)


def build_manifest(blob: bytes, page_size: int = PAGE_SIZE) -> PageManifest:
    """Summarize ``blob`` as a :class:`PageManifest`."""
    return PageManifest(
        state_digest=state_digest(blob),
        total_length=len(blob),
        page_size=page_size,
        page_crcs=tuple(page_digests(blob, page_size)),
    )


def encode_manifest(manifest: PageManifest) -> bytes:
    """Serialize a manifest as the versioned CDR body of a ``StateSet``."""
    out = CdrOutputStream()
    out.write_octet(MANIFEST_VERSION)
    out.write_string(manifest.state_digest)
    out.write_ulong(manifest.total_length)
    out.write_ulong(manifest.page_size)
    out.write_ulong(len(manifest.page_crcs))
    for tag in manifest.page_crcs:
        out.write_ulong(tag)
    return out.getvalue()


def decode_manifest(data: bytes) -> PageManifest:
    """Inverse of :func:`encode_manifest`.

    Raises :class:`StateTransferError` for any malformed body, so the
    receiver has a single exception type to map onto the in-order
    fallback.
    """
    try:
        inp = CdrInputStream(data)
        version = inp.read_octet()
        if version != MANIFEST_VERSION:
            raise StateTransferError(
                f"unknown manifest body version {version}")
        digest = inp.read_string()
        total_length = inp.read_ulong()
        page_size = inp.read_ulong()
        if page_size < 1:
            raise StateTransferError(f"bad manifest page size {page_size}")
        count = inp.read_ulong()
        crcs = tuple(inp.read_ulong() for _ in range(count))
    except UnmarshalError as exc:
        raise StateTransferError(f"malformed manifest body: {exc}") from exc
    expected = -(-total_length // page_size) if total_length else 0
    if count != expected:
        raise StateTransferError(
            f"manifest carries {count} page CRCs for a {total_length}-byte "
            f"snapshot of {page_size}-byte pages (expected {expected})"
        )
    return PageManifest(digest, total_length, page_size, crcs)


def _runs(indices: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapse a sorted index sequence into inclusive (first, last) runs."""
    runs: List[Tuple[int, int]] = []
    for index in indices:
        if runs and index == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], index)
        else:
            runs.append((index, index))
    return runs


# ---------------------------------------------------------------------------
# Responder side: the snapshot stash
# ---------------------------------------------------------------------------

@dataclass
class _StoreEntry:
    group_id: str
    pages: List[bytes]
    crcs: List[int]
    expiry: Any = None          # TimerHandle


class BulkStore:
    """Responder-side stash of captured snapshots, served page by page.

    A snapshot is stashed under its transfer id the moment the responder's
    in-order manifest is multicast, and expires after
    :data:`STORE_TTL` — by then the target has either fetched it or
    fallen back to the in-order path.  Fetches for a transfer the store
    only knows as *pending* (capture still in flight behind quiescence)
    are NACKed ``"pending"`` so the target's watchdog retries instead of
    dropping the sponsor.
    """

    def __init__(self, lane: "BulkLane") -> None:
        self.lane = lane
        self._entries: Dict[str, _StoreEntry] = {}
        self._pending: Dict[str, Any] = {}      # session_id -> TimerHandle

    def __len__(self) -> int:
        return len(self._entries)

    def note_pending(self, session_id: str) -> None:
        """Record that a capture for ``session_id`` is in flight, so early
        fetches are NACKed ``"pending"`` rather than ``"unknown"``."""
        if session_id in self._entries or session_id in self._pending:
            return
        self._pending[session_id] = self.lane.host.call_after(
            STORE_TTL, self._expire_pending, session_id,
        )

    def _expire_pending(self, session_id: str) -> None:
        self._pending.pop(session_id, None)

    def stash(self, session_id: str, group_id: str, blob: bytes,
              page_size: int) -> None:
        """Stash ``blob`` for out-of-band serving under ``session_id``."""
        handle = self._pending.pop(session_id, None)
        if handle is not None:
            handle.cancel()
        old = self._entries.get(session_id)
        if old is not None and old.expiry is not None:
            old.expiry.cancel()
        entry = _StoreEntry(
            group_id=group_id,
            pages=split_pages(blob, page_size),
            crcs=page_digests(blob, page_size),
        )
        entry.expiry = self.lane.host.call_after(
            STORE_TTL, self._expire, session_id,
        )
        self._entries[session_id] = entry
        self.lane.tracer.emit("bulk", "stash", node=self.lane.node_id,
                              group=group_id, transfer=session_id,
                              pages=len(entry.pages), bytes=len(blob))

    def _expire(self, session_id: str) -> None:
        entry = self._entries.pop(session_id, None)
        if entry is not None:
            self.lane.tracer.emit("bulk", "stash_expired",
                                  node=self.lane.node_id,
                                  group=entry.group_id, transfer=session_id)

    def discard(self, session_id: str) -> None:
        entry = self._entries.pop(session_id, None)
        if entry is not None and entry.expiry is not None:
            entry.expiry.cancel()
        handle = self._pending.pop(session_id, None)
        if handle is not None:
            handle.cancel()

    # -- serving -------------------------------------------------------

    def handle_fetch(self, src: str, fetch: BulkFetch) -> None:
        entry = self._entries.get(fetch.session_id)
        if entry is None:
            reason = ("pending" if fetch.session_id in self._pending
                      else "unknown")
            nack = BulkNack(fetch.session_id, self.lane.node_id, reason)
            self.lane.tracer.emit("bulk", "nack", node=self.lane.node_id,
                                  transfer=fetch.session_id, dst=src,
                                  reason=reason)
            self.lane.unicast(fetch.requester, nack)
            return
        first = max(0, fetch.first_page)
        last = min(fetch.last_page, len(entry.pages) - 1)
        if first > last:
            nack = BulkNack(fetch.session_id, self.lane.node_id, "unknown")
            self.lane.unicast(fetch.requester, nack)
            return
        self.lane.tracer.emit("bulk", "fetch_served", node=self.lane.node_id,
                              group=entry.group_id,
                              transfer=fetch.session_id, dst=src,
                              first=first, last=last)
        self._send_burst(fetch.session_id, fetch.requester, first, last)

    def _send_burst(self, session_id: str, dst: str,
                    index: int, last: int) -> None:
        entry = self._entries.get(session_id)
        if entry is None:
            return                      # expired mid-serve; target retries
        burst_end = min(last, index + self.lane.config.bulk_burst_pages - 1)
        sent_bytes = 0
        for i in range(index, burst_end + 1):
            frame = BulkPage(session_id, self.lane.node_id, i,
                             entry.crcs[i], entry.pages[i])
            self.lane.unicast(dst, frame)
            sent_bytes += frame.size_bytes
        self.lane.tracer.emit("bulk", "pages_sent", node=self.lane.node_id,
                              group=entry.group_id, transfer=session_id,
                              dst=dst, count=burst_end - index + 1,
                              bytes=sent_bytes)
        if burst_end < last:
            self.lane.host.call_after(
                BURST_INTERVAL,
                self._send_burst, session_id, dst, burst_end + 1, last,
            )


# ---------------------------------------------------------------------------
# Target side: one striped fetch session
# ---------------------------------------------------------------------------

class BulkSession:
    """One joining replica's out-of-band fetch of one manifest's pages.

    Pages are striped across up to ``bulk_stripe_width`` sponsors; a
    watchdog re-fetches each sponsor's missing pages when its stripe
    stalls, drops the sponsor after ``bulk_max_retries`` fruitless
    retries (or an ``"unknown"`` NACK), restripes the remainder over the
    survivors, and fails the session — triggering the caller's in-order
    fallback — when no sponsor remains.
    """

    def __init__(
        self,
        lane: "BulkLane",
        session_id: str,
        group_id: str,
        manifest: PageManifest,
        sponsors: Sequence[str],
        callback: Callable[[Optional[bytes]], None],
    ) -> None:
        self.lane = lane
        self.session_id = session_id
        self.group_id = group_id
        self.manifest = manifest
        self.callback = callback
        self.active = True
        self._pages: Dict[int, bytes] = {}
        self._missing = set(range(manifest.page_count))
        self._sponsors = [s for s in sponsors if s != lane.node_id]
        self._assigned: Dict[str, set] = {}
        self._progress: Dict[str, int] = {}     # pages held at last watchdog
        self._retries: Dict[str, int] = {}
        self._watchdog: Any = None
        self.retransmits = 0
        self.restripes = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self.lane.tracer.emit(
            "bulk", "session_start", node=self.lane.node_id,
            group=self.group_id, transfer=self.session_id,
            pages=self.manifest.page_count, bytes=self.manifest.total_length,
            sponsors=len(self._sponsors),
        )
        if not self.manifest.page_count:
            self._complete()
            return
        if not self._sponsors:
            self._fail("no_sponsors")
            return
        self._stripe(self._sponsors)
        self._arm_watchdog()

    def _cancel_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None

    def abort(self) -> None:
        """Deactivate without invoking the callback (superseded attempt)."""
        self.active = False
        self._cancel_watchdog()

    @property
    def stripes_in_flight(self) -> int:
        return sum(1 for pages in self._assigned.values() if pages)

    # -- striping ------------------------------------------------------

    def _stripe(self, sponsors: Sequence[str]) -> None:
        """Partition the missing pages into contiguous stripes, one per
        sponsor (capped at ``bulk_stripe_width``), and fetch each."""
        width = min(len(sponsors), self.lane.config.bulk_stripe_width)
        chosen = list(sponsors[:width])
        missing = sorted(self._missing)
        self._assigned = {s: set() for s in chosen}
        chunk = -(-len(missing) // width)
        for slot, sponsor in enumerate(chosen):
            part = missing[slot * chunk:(slot + 1) * chunk]
            self._assigned[sponsor].update(part)
            self._progress[sponsor] = len(self._pages)
            self._retries.setdefault(sponsor, 0)
            self._fetch(sponsor, part)

    def _fetch(self, sponsor: str, indices: Sequence[int]) -> None:
        for first, last in _runs(sorted(indices)):
            self.lane.tracer.emit(
                "bulk", "stripe_sent", node=self.lane.node_id,
                group=self.group_id, transfer=self.session_id,
                sponsor=sponsor, first=first, last=last,
            )
            self.lane.unicast(sponsor, BulkFetch(
                self.session_id, self.lane.node_id, first, last))

    # -- incoming frames -----------------------------------------------

    def handle_page(self, src: str, frame: BulkPage) -> None:
        if not self.active:
            return
        index = frame.index
        if index not in self._missing:
            return                      # duplicate or late retransmit
        if (index >= self.manifest.page_count
                or crc32(frame.page) != self.manifest.page_crcs[index]
                or frame.crc != self.manifest.page_crcs[index]):
            # A corrupt page never reaches the application: drop it and
            # let the watchdog re-fetch — the session survives.
            self.lane.tracer.emit("bulk", "page_crc_bad",
                                  node=self.lane.node_id,
                                  group=self.group_id,
                                  transfer=self.session_id,
                                  sponsor=src, index=index)
            return
        self._pages[index] = frame.page
        self._missing.discard(index)
        if not self._missing:
            self._complete()

    def handle_nack(self, src: str, nack: BulkNack) -> None:
        if not self.active:
            return
        if nack.reason == "pending":
            # Capture still in flight behind quiescence: let the watchdog
            # retry without burning this sponsor's retry budget.
            self._retries[src] = 0
            return
        self._drop_sponsor(src, reason=f"nack_{nack.reason}")

    # -- watchdog ------------------------------------------------------

    def _arm_watchdog(self) -> None:
        self._watchdog = self.lane.host.call_after(
            self.lane.config.bulk_retransmit_timeout, self._on_watchdog,
        )

    def _on_watchdog(self) -> None:
        if not self.active:
            return
        held = len(self._pages)
        for sponsor in list(self._assigned):
            outstanding = self._assigned[sponsor] & self._missing
            if not outstanding:
                continue
            if held > self._progress.get(sponsor, 0):
                # Pages arrived since the last tick; keep waiting.  (Held
                # count is a global proxy: good enough, since a stalled
                # sponsor stays stalled across ticks while others finish.)
                self._progress[sponsor] = held
                self._retries[sponsor] = 0
                continue
            self._retries[sponsor] = self._retries.get(sponsor, 0) + 1
            if self._retries[sponsor] > self.lane.config.bulk_max_retries:
                self._drop_sponsor(sponsor, reason="retries_exhausted")
                if not self.active:
                    return
                continue
            self.retransmits += 1
            self.lane.tracer.emit("bulk", "retransmit",
                                  node=self.lane.node_id,
                                  group=self.group_id,
                                  transfer=self.session_id,
                                  sponsor=sponsor,
                                  outstanding=len(outstanding),
                                  attempt=self._retries[sponsor])
            self._fetch(sponsor, outstanding)
        if self.active and self._missing:
            self._arm_watchdog()

    def _drop_sponsor(self, sponsor: str, *, reason: str) -> None:
        dropped = self._assigned.pop(sponsor, None)
        if dropped is None:
            return
        self._retries.pop(sponsor, None)
        self._progress.pop(sponsor, None)
        if sponsor in self._sponsors:
            self._sponsors.remove(sponsor)
        self.lane.tracer.emit("bulk", "sponsor_dropped",
                              node=self.lane.node_id, group=self.group_id,
                              transfer=self.session_id, sponsor=sponsor,
                              reason=reason)
        if not self._sponsors:
            self._fail("sponsors_exhausted")
            return
        self.restripes += 1
        self.lane.tracer.emit("bulk", "restripe", node=self.lane.node_id,
                              group=self.group_id, transfer=self.session_id,
                              survivors=len(self._sponsors),
                              missing=len(self._missing))
        self._stripe(self._sponsors)

    # -- completion ----------------------------------------------------

    def _complete(self) -> None:
        self.active = False
        self._cancel_watchdog()
        blob = b"".join(
            self._pages[i] for i in range(self.manifest.page_count)
        )[:self.manifest.total_length]
        if (len(blob) != self.manifest.total_length
                or state_digest(blob) != self.manifest.state_digest):
            # Per-page CRCs passed but the whole-state digest did not:
            # never assign unverified state — fall back to in-order.
            self._fail_now("digest_mismatch")
            return
        self.lane.tracer.emit("bulk", "session_complete",
                              node=self.lane.node_id, group=self.group_id,
                              transfer=self.session_id,
                              bytes=len(blob), retransmits=self.retransmits,
                              restripes=self.restripes)
        self.lane.finish_session(self.session_id)
        self.callback(blob)

    def _fail(self, reason: str) -> None:
        self.active = False
        self._cancel_watchdog()
        self._fail_now(reason)

    def _fail_now(self, reason: str) -> None:
        self.active = False
        self.lane.tracer.emit("bulk", "session_failed",
                              node=self.lane.node_id, group=self.group_id,
                              transfer=self.session_id, reason=reason,
                              missing=len(self._missing))
        self.lane.finish_session(self.session_id)
        self.callback(None)


# ---------------------------------------------------------------------------
# Facade wired into the Recovery Mechanisms
# ---------------------------------------------------------------------------

class BulkLane:
    """Per-node bulk-lane endpoint: one responder-side :class:`BulkStore`
    plus the target-side :class:`BulkSession` registry, attached to the
    transport's out-of-band unicast lane."""

    def __init__(self, host, endpoint, config, tracer, node_id: str) -> None:
        self.host = host
        self.endpoint = endpoint
        self.config = config
        self.tracer = tracer
        self.node_id = node_id
        self.store = BulkStore(self)
        self.sessions: Dict[str, BulkSession] = {}
        endpoint.register(BulkFetch, self._on_fetch)
        endpoint.register(BulkPage, self._on_page)
        endpoint.register(BulkNack, self._on_nack)

    # -- outgoing ------------------------------------------------------

    def unicast(self, dst: str, frame: Any) -> None:
        """Send one bulk frame out-of-band, counting its bytes."""
        self.tracer.add("bulk.oob.bytes", frame.size_bytes)
        self.endpoint.unicast(dst, frame, frame.size_bytes, oob=True)

    # -- sessions ------------------------------------------------------

    def start_session(
        self,
        session_id: str,
        group_id: str,
        manifest: PageManifest,
        sponsors: Sequence[str],
        callback: Callable[[Optional[bytes]], None],
    ) -> BulkSession:
        self.abort_session(session_id)
        session = BulkSession(self, session_id, group_id, manifest,
                              sponsors, callback)
        self.sessions[session_id] = session
        session.start()
        return session

    def abort_session(self, session_id: str) -> None:
        session = self.sessions.pop(session_id, None)
        if session is not None:
            session.abort()

    def abort_all(self) -> None:
        for session_id in list(self.sessions):
            self.abort_session(session_id)

    def finish_session(self, session_id: str) -> None:
        self.sessions.pop(session_id, None)

    # -- incoming ------------------------------------------------------

    def _on_fetch(self, src: str, frame: BulkFetch) -> None:
        self.store.handle_fetch(src, frame)

    def _on_page(self, src: str, frame: BulkPage) -> None:
        session = self.sessions.get(frame.session_id)
        if session is not None:
            session.handle_page(src, frame)

    def _on_nack(self, src: str, frame: BulkNack) -> None:
        session = self.sessions.get(frame.session_id)
        if session is not None:
            session.handle_nack(src, frame)

    # -- health --------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time gauges for :mod:`repro.obs.health`."""
        return {
            "sessions_active": sum(
                1 for s in self.sessions.values() if s.active),
            "stripes_in_flight": sum(
                s.stripes_in_flight for s in self.sessions.values()
                if s.active),
            "store_entries": len(self.store),
        }
