"""GroupStore semantics tests: checkpoint/message journaling, the delta
chain, compaction, fsync policy, and corruption handling — exercised via
the in-memory backend (the journal backend shares every codepath above
the raw record transport)."""

import pytest

from repro.core.msglog import CheckpointRecord
from repro.errors import StoreCorruptError
from repro.runtime.trace import Tracer
from repro.store.base import GroupStore
from repro.store.journal import JournalStore
from repro.store.memory import MemoryBackend, MemoryStore
from repro.store.records import encode_checkpoint, encode_message, frame


def _ckpt(position, app_state, transfer_id=None):
    return CheckpointRecord(transfer_id or f"xfer-{position}", position,
                            app_state, b"orb-state", b"infra-state")


def _reopened(group):
    group.close()
    return group.load()


def test_empty_store_loads_empty():
    group = MemoryStore().group("g")
    state = group.load()
    assert state.empty
    assert state.checkpoint is None
    assert state.last_position == 0


def test_messages_roundtrip_across_reopen():
    group = MemoryStore().group("g")
    group.append_message(1, b"m1")
    group.append_message(2, b"m2")
    state = _reopened(group)
    assert state.messages == ((1, b"m1"), (2, b"m2"))
    assert state.last_position == 2


def test_append_message_is_idempotent_by_position():
    group = MemoryStore().group("g")
    group.append_message(1, b"m1")
    group.append_message(1, b"m1")          # replayed drain — skipped
    assert _reopened(group).messages == ((1, b"m1"),)


def test_checkpoint_prunes_covered_messages():
    group = MemoryStore().group("g")
    for position in (1, 2, 3):
        group.append_message(position, b"m%d" % position)
    group.commit_checkpoint(_ckpt(2, b"A" * 4096))
    state = _reopened(group)
    assert state.checkpoint.position == 2
    assert state.checkpoint.app_state == b"A" * 4096
    assert state.messages == ((3, b"m3"),)
    assert group.pending_messages == 1


def test_delta_chain_reconstructs_across_reopen():
    group = MemoryStore().group("g", page_size=1024)
    base = bytearray(b"A" * 8192)
    group.commit_checkpoint(_ckpt(10, bytes(base)))       # full + compact
    base[0:8] = b"BBBBBBBB"                               # dirty one page
    group.commit_checkpoint(_ckpt(20, bytes(base)))       # stored as delta
    state = _reopened(group)
    assert state.checkpoint.position == 20
    assert state.checkpoint.app_state == bytes(base)


def test_delta_only_when_it_saves_bytes():
    group = MemoryStore().group("g", page_size=1024)
    group.commit_checkpoint(_ckpt(1, b"A" * 4096))
    # Rewrite every page: the delta is bigger than the snapshot, so the
    # store falls back to a full record (and compacts again).
    group.commit_checkpoint(_ckpt(2, b"B" * 4096))
    assert group.compactions == 2
    assert _reopened(group).checkpoint.app_state == b"B" * 4096


def test_chain_bound_forces_periodic_full_checkpoint():
    store = MemoryStore(max_delta_chain=2)
    group = store.group("g", page_size=1024)
    blob = bytearray(b"A" * 8192)
    group.commit_checkpoint(_ckpt(1, bytes(blob)))        # full (no base)
    blob[0:4] = b"BBBB"
    group.commit_checkpoint(_ckpt(2, bytes(blob)))        # delta (chain 1)
    blob[0:4] = b"CCCC"
    group.commit_checkpoint(_ckpt(3, bytes(blob)))        # chain full → full
    assert group.compactions == 2
    assert _reopened(group).checkpoint.app_state == bytes(blob)


def test_compaction_rewrites_journal_to_live_set():
    store = MemoryStore()
    group = store.group("g")
    for position in range(1, 9):
        group.append_message(position, b"x" * 64)
    before = len(group.backend.blob)
    group.commit_checkpoint(_ckpt(8, b"S" * 32))          # full → compact
    # All eight messages are superseded: the journal shrinks to one record.
    assert len(group.backend.blob) < before
    state = _reopened(group)
    assert state.messages == ()
    assert state.checkpoint.position == 8


def test_public_compact_requires_checkpoint():
    group = MemoryStore().group("g")
    group.append_message(1, b"m")
    assert group.compact() is False
    group.commit_checkpoint(_ckpt(1, b"S"))
    assert group.compact() is True


def test_fsync_policy_counts():
    def run(policy):
        group = MemoryStore(fsync=policy).group("g", page_size=1024)
        blob = bytearray(b"A" * 4096)
        group.commit_checkpoint(_ckpt(1, bytes(blob)))   # full → rewrite path
        group.append_message(2, b"m")
        blob[0:4] = b"BBBB"
        group.commit_checkpoint(_ckpt(3, bytes(blob)))   # delta → append path
        return group.backend.sync_count

    assert run("always") == 2        # the message and the delta checkpoint
    assert run("checkpoint") == 1    # the delta checkpoint only
    assert run("never") == 0


def test_reset_discards_everything():
    group = MemoryStore().group("g")
    group.append_message(1, b"m")
    group.commit_checkpoint(_ckpt(1, b"S"))
    group.reset()
    assert group.load().empty
    assert group.pending_messages == 0


def test_delta_without_base_is_corruption():
    backend = MemoryBackend("g")
    backend.append(encode_checkpoint("xfer", 5, b"\x00" * 16, b"", b"",
                                     delta=True), sync=False)
    group = GroupStore("g", backend)
    with pytest.raises(StoreCorruptError):
        group.load()


def test_writer_on_corrupt_journal_starts_fresh():
    backend = MemoryBackend("g")
    backend.append(encode_checkpoint("xfer", 5, b"\x00" * 16, b"", b"",
                                     delta=True), sync=False)
    group = GroupStore("g", backend)
    # The write path quarantines the corrupt journal instead of dying —
    # recovery surfaces corruption on its own explicit load().
    group.append_message(6, b"m6")
    assert _reopened(group).messages == ((6, b"m6"),)


def test_memory_and_journal_backends_agree(tmp_path):
    def drive(group):
        blob = bytearray(b"A" * 4096)
        group.append_message(1, b"m1")
        group.commit_checkpoint(_ckpt(1, bytes(blob)))
        blob[0:4] = b"ZZZZ"
        group.append_message(2, b"m2")
        group.append_message(3, b"m3")
        group.commit_checkpoint(_ckpt(2, bytes(blob)))
        group.append_message(4, b"m4")
        return _reopened(group)

    mem = drive(MemoryStore().group("g", page_size=1024))
    disk = drive(JournalStore(str(tmp_path)).group("g", page_size=1024))
    assert mem.checkpoint == disk.checkpoint
    assert mem.messages == disk.messages


def test_stats_exposes_semantic_gauges():
    group = MemoryStore().group("g")
    group.append_message(1, b"m")
    group.commit_checkpoint(_ckpt(1, b"S"))
    group.append_message(2, b"m2")
    stats = group.stats()
    assert stats["pending_messages"] == 1
    assert stats["checkpoints_written"] == 1
    assert stats["compactions"] == 1
    assert stats["bytes"] > 0


def test_store_tracer_binding_reaches_backend():
    store = MemoryStore()
    group = store.group("g")
    tracer = Tracer()
    store.bind_tracer(tracer, "n1")
    # A torn write at the journal's tail: the backend cuts it off on load
    # and leaves the evidence in the bound tracer.
    group.backend.blob += frame(encode_message(1, b"torn"))[:-2]
    group.load()
    assert tracer.counters["store.tail_truncated"] == 1
    torn = next(tracer.find("store", "tail_truncated"))
    assert (torn.fields["node"], torn.fields["group"]) == ("n1", "g")
