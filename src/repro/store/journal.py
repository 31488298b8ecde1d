"""Append-only segmented journal backend (the on-disk store).

Layout, per node root directory::

    <root>/<group>/MANIFEST          # text: "journal-manifest v1" + names
    <root>/<group>/seg-00000001.jrnl # CRC32-framed records (records.py)
    <root>/<group>/seg-00000002.jrnl # rolled at segment_max_bytes

The MANIFEST is the commit point of every multi-file operation: it is
always replaced atomically (tmp + ``os.replace``), and any ``seg-*.jrnl``
file it does not list is debris from an interrupted compaction or roll,
deleted on the next open.  Compaction therefore needs no log of its own:

1. write the survivor records into a *new* segment, fsync it;
2. atomically point the MANIFEST at the new segment alone;
3. unlink the old segments.

A crash before step 2 leaves the old journal authoritative (the new
segment is unlisted debris); after step 2 the new one is (the old
segments are debris).  There is no window in which neither loads.

The ``fsync`` policy trades durability for write latency:

* ``always`` — fsync after every record; a kill loses at most the torn
  tail of the record being written.
* ``checkpoint`` (default) — fsync only on checkpoints and compactions;
  messages past the last checkpoint ride the OS page cache and an OS
  crash may drop them (a mere process kill does not — appends are always
  flushed to the kernel).
* ``never`` — flush only; benchmarking and scratch runs.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.errors import StoreCorruptError
from repro.store.base import (
    DEFAULT_MAX_DELTA_CHAIN,
    DurableStore,
    FSYNC_CHECKPOINT,
    FSYNC_POLICIES,
    GroupBackend,
)
from repro.store.records import FRAME_HEADER_SIZE, frame, scan_segment

MANIFEST_NAME = "MANIFEST"
MANIFEST_HEADER = "journal-manifest v1"
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".jrnl"
DEFAULT_SEGMENT_MAX_BYTES = 1 << 20


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int:
    return int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def _safe_dirname(group_id: str) -> str:
    """Map a group id onto a filesystem-safe directory name."""
    return "".join(c if c.isalnum() or c in "-_." else f"%{ord(c):02x}"
                   for c in group_id) or "%empty"


class JournalBackend(GroupBackend):
    """One group's on-disk journal."""

    def __init__(self, group_id: str, directory: str, *,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 crash_hook: Optional[Callable[[str], None]] = None) -> None:
        super().__init__(group_id)
        self.directory = directory
        self.segment_max_bytes = segment_max_bytes
        #: Test hook: called at named points inside multi-step operations;
        #: raising from it simulates a crash at that point.
        self.crash_hook = crash_hook
        self._segments: Optional[List[str]] = None   # None until opened
        self._handle = None                          # append handle, tail seg
        self._tail_bytes = 0
        self.fsync_count = 0

    # -- crash hook ----------------------------------------------------

    def _maybe_crash(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(label)

    # -- manifest ------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _read_manifest(self) -> List[str]:
        try:
            with open(self._manifest_path(), "r", encoding="ascii") as fh:
                lines = [line.strip() for line in fh if line.strip()]
        except FileNotFoundError:
            return []
        if not lines or lines[0] != MANIFEST_HEADER:
            raise StoreCorruptError(
                f"bad journal manifest header in {self.directory}"
            )
        return lines[1:]

    def _write_manifest(self, names: List[str]) -> None:
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join([MANIFEST_HEADER, *names]) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._maybe_crash("manifest.tmp")
        os.replace(tmp, self._manifest_path())
        self._maybe_crash("manifest.replaced")

    def _cleanup_debris(self, live: List[str]) -> None:
        keep = set(live)
        try:
            entries = os.listdir(self.directory)
        except FileNotFoundError:
            return
        for name in entries:
            is_segment = (name.startswith(SEGMENT_PREFIX)
                          and name.endswith(SEGMENT_SUFFIX))
            if (is_segment and name not in keep) or name.endswith(".tmp"):
                os.unlink(os.path.join(self.directory, name))

    # -- open / load ---------------------------------------------------

    def _open(self) -> List[str]:
        """Adopt the on-disk state: read the manifest, drop debris, and
        position the append handle at the tail segment."""
        if self._segments is not None:
            return self._segments
        os.makedirs(self.directory, exist_ok=True)
        names = self._read_manifest()
        for name in names:
            if not os.path.exists(os.path.join(self.directory, name)):
                raise StoreCorruptError(
                    f"manifest lists missing segment {name} "
                    f"in {self.directory}"
                )
        self._cleanup_debris(names)
        self._segments = names
        self._tail_bytes = 0
        if names:
            self._tail_bytes = os.path.getsize(
                os.path.join(self.directory, names[-1]))
        return names

    def load_payloads(self) -> List:
        self.close()                      # force a genuine re-read
        names = self._open()
        payloads: List = []
        for i, name in enumerate(names):
            path = os.path.join(self.directory, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            last = i == len(names) - 1
            decoded, truncate_to = scan_segment(blob, last_segment=last)
            payloads.extend(decoded)
            if truncate_to is not None:
                # Torn tail from a crashed write: cut the file back to the
                # last clean frame boundary before appending anything new.
                with open(path, "r+b") as fh:
                    fh.truncate(truncate_to)
                self._tail_bytes = truncate_to
                self.tracer.emit("store", "tail_truncated",
                                 node=self.node_id, group=self.group_id,
                                 dropped=len(blob) - truncate_to)
        return payloads

    # -- append path ---------------------------------------------------

    def _ensure_handle(self):
        names = self._open()
        if not names:
            names = [_segment_name(1)]
            # The segment must exist before the manifest names it.
            open(os.path.join(self.directory, names[0]), "ab").close()
            self._write_manifest(names)
            self._segments = names
            self._tail_bytes = 0
        if self._handle is None:
            self._handle = open(
                os.path.join(self.directory, names[-1]), "ab")
        return self._handle

    def _roll_segment(self) -> None:
        names = self._segments or []
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        next_name = _segment_name(_segment_index(names[-1]) + 1)
        open(os.path.join(self.directory, next_name), "ab").close()
        self._maybe_crash("roll.segment")
        self._write_manifest(names + [next_name])
        self._segments = names + [next_name]
        self._tail_bytes = 0

    def _fsync(self, handle) -> None:
        os.fsync(handle.fileno())
        self.fsync_count += 1

    def append(self, payload: bytes, *, sync: bool) -> None:
        framed = frame(payload)
        if (self._tail_bytes > 0
                and self._tail_bytes + len(framed) > self.segment_max_bytes):
            self._roll_segment()
        handle = self._ensure_handle()
        handle.write(framed)
        handle.flush()
        self._maybe_crash("append.flushed")
        if sync:
            self._fsync(handle)
        self._tail_bytes += len(framed)

    # -- compaction / teardown -----------------------------------------

    def rewrite(self, payloads: List[bytes]) -> None:
        names = self._open()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        next_index = (_segment_index(names[-1]) + 1) if names else 1
        new_name = _segment_name(next_index)
        path = os.path.join(self.directory, new_name)
        with open(path, "wb") as fh:
            for payload in payloads:
                fh.write(frame(payload))
            fh.flush()
            os.fsync(fh.fileno())
        self._maybe_crash("rewrite.segment")
        self._write_manifest([new_name])
        for name in names:
            os.unlink(os.path.join(self.directory, name))
        self._maybe_crash("rewrite.cleanup")
        self._segments = [new_name]
        self._tail_bytes = os.path.getsize(path)

    def wipe(self) -> None:
        self.close()
        try:
            entries = os.listdir(self.directory)
        except FileNotFoundError:
            entries = []
        for name in entries:
            os.unlink(os.path.join(self.directory, name))
        self._segments = None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._segments = None             # next use re-reads the disk

    def stats(self) -> Dict[str, float]:
        total = 0.0
        count = 0
        try:
            entries = os.listdir(self.directory)
        except FileNotFoundError:
            entries = []
        for name in sorted(entries):
            if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX):
                total += os.path.getsize(os.path.join(self.directory, name))
                count += 1
        return {"bytes": total, "segments": float(count),
                "fsyncs": float(self.fsync_count)}


class JournalStore(DurableStore):
    """Per-node durable store backed by :class:`JournalBackend` journals
    under ``root`` (one subdirectory per group)."""

    def __init__(self, root: str, *, fsync: str = FSYNC_CHECKPOINT,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 max_delta_chain: int = DEFAULT_MAX_DELTA_CHAIN) -> None:
        super().__init__()
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r}")
        self.root = root
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        self._max_delta_chain = max_delta_chain
        os.makedirs(root, exist_ok=True)

    def _make_backend(self, group_id: str) -> GroupBackend:
        directory = os.path.join(self.root, _safe_dirname(group_id))
        return JournalBackend(group_id, directory,
                              segment_max_bytes=self.segment_max_bytes)

    def fsync_policy(self) -> str:
        return self.fsync

    def max_delta_chain(self) -> int:
        return self._max_delta_chain

    def group_ids(self) -> List[str]:
        """Group journals present under the root (opened or not) — used by
        the ``store`` CLI to inspect a directory cold."""
        known = set(self._groups)
        try:
            entries = os.listdir(self.root)
        except FileNotFoundError:
            entries = []
        for name in entries:
            path = os.path.join(self.root, name)
            if os.path.isdir(path):
                if name == "%empty":
                    known.add("")
                    continue
                # Reverse the %xx escaping of _safe_dirname.
                out = []
                i = 0
                while i < len(name):
                    if name[i] == "%" and i + 3 <= len(name):
                        try:
                            out.append(chr(int(name[i + 1:i + 3], 16)))
                            i += 3
                            continue
                        except ValueError:
                            pass
                    out.append(name[i])
                    i += 1
                known.add("".join(out))
        return sorted(known)
