"""Page-level delta encoding of Checkpointable state.

The paper's recovery and checkpoint costs (Figure 6, §3.3) are linear in
the *total* application state size because every fabricated ``set_state()``
ships the whole encoded state.  This module chunks the encoded state into
fixed-size pages with per-page digests so a responder can ship only the
pages that changed since a checkpoint both ends already share (identified
by the app-state digest logged in the
:class:`~repro.core.msglog.CheckpointRecord`).

A delta is valid only against the exact base snapshot named by its
``base_digest``; receivers that cannot produce that base fall back to a
full snapshot (see :mod:`repro.core.recovery`).  Reconstruction always
yields the byte-identical full state, so the consistency auditor's
cross-replica digest comparisons are unaffected by the wire encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple
from zlib import crc32

from repro.errors import StateTransferError
from repro.giop.cdr import (MALFORMED, OCTETS, STRING, ULONG, Row, Seq, Tup,
                            build, encode_record)
from repro.obs.audit import state_digest

#: Default page size: small enough that a localized mutation dirties few
#: pages, large enough that the 8-byte-per-page wire overhead stays < 1 %.
PAGE_SIZE = 1024

#: Wire-format version of the encoded delta body (bump on layout change).
DELTA_BODY_VERSION = 1


class DeltaMismatch(StateTransferError):
    """The receiver's base snapshot does not match the delta's base."""


def split_pages(blob: bytes, page_size: int = PAGE_SIZE) -> List[bytes]:
    """Chunk ``blob`` into ``page_size``-byte pages (last may be short)."""
    if page_size < 1:
        raise ValueError(f"page_size must be positive, got {page_size}")
    return [blob[i:i + page_size] for i in range(0, len(blob), page_size)]


def page_digests(blob: bytes, page_size: int = PAGE_SIZE) -> List[int]:
    """Per-page CRC32 digests (integrity tags, not the diffing mechanism:
    deltas are computed by direct byte comparison against the base)."""
    return [crc32(page) for page in split_pages(blob, page_size)]


@dataclass(frozen=True)
class StateDelta:
    """Changed pages of a new snapshot relative to a shared base snapshot."""

    base_digest: str            # state_digest of the base snapshot
    new_digest: str             # state_digest of the reconstructed snapshot
    new_length: int             # total byte length of the new snapshot
    page_size: int
    pages: Tuple[Tuple[int, int, bytes], ...]   # (index, crc32, page bytes)

    @property
    def total_pages(self) -> int:
        """Page count of the full new snapshot."""
        if self.new_length <= 0:
            return 0
        return -(-self.new_length // self.page_size)

    @property
    def pages_sent(self) -> int:
        return len(self.pages)

    @property
    def pages_skipped(self) -> int:
        return self.total_pages - self.pages_sent


def compute_delta(base: bytes, new: bytes,
                  page_size: int = PAGE_SIZE) -> StateDelta:
    """Diff ``new`` against ``base`` page by page.

    Pages are compared by content; a page of the new snapshot is shipped iff
    it differs from the base page at the same index (or the base has no page
    there — the snapshot grew).
    """
    base_pages = split_pages(base, page_size)
    changed: List[Tuple[int, int, bytes]] = []
    for index, page in enumerate(split_pages(new, page_size)):
        if index < len(base_pages) and base_pages[index] == page:
            continue
        changed.append((index, crc32(page), page))
    return StateDelta(
        base_digest=state_digest(base),
        new_digest=state_digest(new),
        new_length=len(new),
        page_size=page_size,
        pages=tuple(changed),
    )


def apply_delta(base: bytes, delta: StateDelta) -> bytes:
    """Reconstruct the full new snapshot from ``base`` plus ``delta``.

    Raises :class:`DeltaMismatch` when ``base`` is not the snapshot the
    delta was computed against, or when reconstruction fails the delta's
    integrity digests.
    """
    if state_digest(base) != delta.base_digest:
        raise DeltaMismatch(
            f"base snapshot digest {state_digest(base)} does not match the "
            f"delta's base {delta.base_digest}"
        )
    pages = split_pages(base, delta.page_size)
    total = delta.total_pages
    del pages[total:]
    while len(pages) < total:
        pages.append(b"")
    for index, tag, page in delta.pages:
        if not 0 <= index < total:
            raise DeltaMismatch(f"delta page index {index} outside the "
                                f"{total}-page snapshot")
        if crc32(page) != tag:
            raise DeltaMismatch(f"delta page {index} failed its CRC")
        pages[index] = page
    new = b"".join(pages)[:delta.new_length]
    if len(new) < delta.new_length:
        # The snapshot grew into pages the delta did not carry.
        raise DeltaMismatch(
            f"reconstructed {len(new)} bytes, expected {delta.new_length}"
        )
    if state_digest(new) != delta.new_digest:
        raise DeltaMismatch("reconstructed snapshot failed the delta's "
                            "content digest")
    return new


#: The body after its version octet.
_DELTA = build(Row(StateDelta, ("base_digest", STRING),
                   ("new_digest", STRING), ("new_length", ULONG),
                   ("page_size", ULONG),
                   ("pages", Seq(Tup(ULONG, ULONG, OCTETS)))), 1)


def encode_delta(delta: StateDelta) -> bytes:
    """Serialize a delta as the versioned CDR body of a ``StateSet``."""
    return encode_record(_DELTA, delta, bytes((DELTA_BODY_VERSION,)))


def decode_delta(data: bytes) -> StateDelta:
    """Inverse of :func:`encode_delta`.

    Raises :class:`StateTransferError` for any malformed body (including
    truncation surfacing from the CDR layer), so receivers have a single
    exception type to map onto the full-transfer fallback.
    """
    try:
        version = data[0]
        if version != DELTA_BODY_VERSION:
            raise StateTransferError(f"unknown delta body version {version}")
        delta = _DELTA.decode(data)
    except MALFORMED as exc:
        raise StateTransferError(f"malformed delta body: {exc}") from exc
    if delta.page_size < 1:
        raise StateTransferError(f"bad delta page size {delta.page_size}")
    return delta
