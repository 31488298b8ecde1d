"""Unit tests for the out-of-band recovery bulk lane (repro.core.bulk).

The session/store machinery is driven with hand-cranked fakes (no
simulator): a FakeHost whose timers fire on demand and a FakeEndpoint that
records every out-of-band unicast and lets the test loop frames back."""

from __future__ import annotations

from zlib import crc32

import pytest

from repro.core import bulk
from repro.core.bulk import (
    BulkLane,
    PageManifest,
    _runs,
    build_manifest,
    decode_manifest,
    encode_manifest,
)
from repro.errors import StateTransferError
from repro.obs.audit import state_digest
from repro.runtime.trace import Tracer
from repro.totem.wire import BulkFetch, BulkNack, BulkPage


class FakeTimer:
    def __init__(self, host, fn, args):
        self.host = host
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class FakeHost:
    """Timers queue up and fire only when the test says so."""

    def __init__(self):
        self.timers = []

    def call_after(self, delay, fn, *args):
        timer = FakeTimer(self, fn, args)
        self.timers.append((delay, timer))
        return timer

    def fire(self, max_delay=float("inf")):
        """Run every queued timer with delay <= ``max_delay`` once (new
        timers queue up; longer ones — e.g. the store TTL — stay put)."""
        due = [(d, t) for d, t in self.timers if d <= max_delay]
        self.timers = [(d, t) for d, t in self.timers if d > max_delay]
        for _, timer in due:
            if not timer.cancelled:
                timer.fn(*timer.args)


class FakeEndpoint:
    def __init__(self):
        self.sent = []          # (dst, frame, oob)
        self.handlers = {}

    def register(self, payload_type, handler):
        self.handlers[payload_type] = handler

    def unicast(self, dst, payload, size_bytes, *, oob=False):
        self.sent.append((dst, payload, oob))

    def deliver(self, src, payload):
        self.handlers[type(payload)](src, payload)


@pytest.fixture
def make_lane(monkeypatch):
    """``make_lane(**constants)`` builds a lane with those
    :mod:`repro.core.bulk` constants patched (``BURST_PAGES`` is 4 unless
    given)."""
    def make(**constants):
        constants.setdefault("BURST_PAGES", 4)
        for name, value in constants.items():
            monkeypatch.setattr(bulk, name, value)
        host = FakeHost()
        endpoint = FakeEndpoint()
        return BulkLane(host, endpoint, Tracer(), "target"), host, endpoint
    return make


BLOB = bytes(range(256)) * 22          # 5632 B -> 6 pages of 1024


# ---------------------------------------------------------------------------
# Manifest codec
# ---------------------------------------------------------------------------

def test_manifest_round_trip():
    manifest = build_manifest(BLOB, 1024)
    assert manifest.page_count == 6
    assert manifest.total_length == len(BLOB)
    assert manifest.state_digest == state_digest(BLOB)
    decoded = decode_manifest(encode_manifest(manifest))
    assert decoded == manifest


def test_manifest_empty_state():
    manifest = build_manifest(b"", 1024)
    assert manifest.page_count == 0
    assert decode_manifest(encode_manifest(manifest)) == manifest


@pytest.mark.parametrize("mutate", [
    lambda data: b"",                               # empty body
    lambda data: data[:5],                          # truncated
    lambda data: b"\x63" + data[1:],                # unknown version
])
def test_manifest_decode_rejects_malformed(mutate):
    data = encode_manifest(build_manifest(BLOB, 1024))
    with pytest.raises(StateTransferError):
        decode_manifest(mutate(data))


def test_manifest_decode_rejects_inconsistent_page_count():
    # 3 CRCs for a 5632-byte/1024-page snapshot (needs 6): malformed.
    bad = PageManifest(state_digest(BLOB), len(BLOB), 1024, (1, 2, 3))
    with pytest.raises(StateTransferError):
        decode_manifest(encode_manifest(bad))


def test_runs_collapses_contiguous_indices():
    assert _runs([]) == []
    assert _runs([4]) == [(4, 4)]
    assert _runs([0, 1, 2, 5, 6, 9]) == [(0, 2), (5, 6), (9, 9)]


# ---------------------------------------------------------------------------
# BulkStore (responder side)
# ---------------------------------------------------------------------------

def test_store_serves_fetch_in_paced_bursts(make_lane):
    lane, host, endpoint = make_lane()
    lane.store.stash("t1", "g", BLOB, 1024)
    endpoint.deliver("target", BulkFetch("t1", "target", 0, 5))
    # First burst (BURST_PAGES=4) goes out synchronously…
    pages = [f for _, f, oob in endpoint.sent if isinstance(f, BulkPage)]
    assert [p.index for p in pages] == [0, 1, 2, 3]
    assert all(oob for _, f, oob in endpoint.sent)
    # …the rest after the burst-interval timer (not the 5 s store TTL).
    host.fire(max_delay=0.01)
    pages = [f for _, f, _ in endpoint.sent if isinstance(f, BulkPage)]
    assert [p.index for p in pages] == [0, 1, 2, 3, 4, 5]
    assert b"".join(p.page for p in pages) == BLOB
    assert all(crc32(p.page) == p.crc for p in pages)


def test_store_nacks_unknown_and_pending(make_lane):
    lane, host, endpoint = make_lane()
    endpoint.deliver("target", BulkFetch("nope", "target", 0, 1))
    lane.store.note_pending("soon")
    endpoint.deliver("target", BulkFetch("soon", "target", 0, 1))
    nacks = [f for _, f, _ in endpoint.sent if isinstance(f, BulkNack)]
    assert [n.reason for n in nacks] == ["unknown", "pending"]


def test_store_expires_stash_after_ttl(make_lane):
    lane, host, endpoint = make_lane()
    lane.store.stash("t1", "g", BLOB, 1024)
    assert len(lane.store) == 1
    host.fire()                                    # the TTL timer
    assert len(lane.store) == 0
    endpoint.deliver("target", BulkFetch("t1", "target", 0, 5))
    nacks = [f for _, f, _ in endpoint.sent if isinstance(f, BulkNack)]
    assert nacks and nacks[0].reason == "unknown"


# ---------------------------------------------------------------------------
# BulkSession (target side)
# ---------------------------------------------------------------------------

def serve(endpoint, manifest, blob, *, corrupt=frozenset(),
          mute=frozenset()):
    """Answer every outstanding fetch from the recorded unicasts, like a
    set of well-behaved (or not) sponsors would."""
    fetches = [(dst, f) for dst, f, _ in endpoint.sent
               if isinstance(f, BulkFetch)]
    del endpoint.sent[:]
    for sponsor, fetch in fetches:
        if sponsor in mute:
            continue
        for index in range(fetch.first_page, fetch.last_page + 1):
            page = blob[index * 1024:(index + 1) * 1024]
            if index in corrupt:
                page = b"\x00" * len(page)
            endpoint.deliver(sponsor, BulkPage(
                fetch.session_id, sponsor, index,
                manifest.page_crcs[index], page))


def start_session(lane, sponsors):
    manifest = build_manifest(BLOB, 1024)
    results = []
    lane.start_session("t1", "g", manifest, sponsors, results.append)
    return manifest, results


def test_session_stripes_across_sponsors_and_completes(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=2)
    manifest, results = start_session(lane, ["s1", "s2", "s3"])
    fetch_dsts = {dst for dst, f, _ in endpoint.sent
                  if isinstance(f, BulkFetch)}
    assert fetch_dsts == {"s1", "s2"}              # width-capped striping
    serve(endpoint, manifest, BLOB)
    assert results == [BLOB]
    assert lane.snapshot()["sessions_active"] == 0


def test_session_ignores_corrupt_page_and_refetches(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=1)
    manifest, results = start_session(lane, ["s1"])
    serve(endpoint, manifest, BLOB, corrupt={2})
    assert results == []                           # page 2 still missing
    host.fire()        # watchdog tick 1: progress seen, grace granted
    host.fire()        # watchdog tick 2: stalled -> refetch
    serve(endpoint, manifest, BLOB)
    assert results == [BLOB]


def test_session_drops_stalled_sponsor_and_restripes(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=2,
                                     MAX_RETRIES=1)
    manifest, results = start_session(lane, ["dead", "s2"])
    serve(endpoint, manifest, BLOB, mute={"dead"})
    assert results == []
    host.fire()            # tick 1: s2's pages count as progress (grace)
    host.fire()            # tick 2: "dead" stalled -> retransmit
    serve(endpoint, manifest, BLOB, mute={"dead"})   # still silent
    host.fire()            # tick 3: retries exhausted -> drop + restripe
    assert results == []
    serve(endpoint, manifest, BLOB, mute={"dead"})   # s2 serves restripe
    assert results == [BLOB]


def test_session_fails_when_all_sponsors_exhausted(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=2,
                                     MAX_RETRIES=1)
    manifest, results = start_session(lane, ["dead1", "dead2"])
    for _ in range(8):
        host.fire()                                # watchdogs, no pages ever
    assert results == [None]
    assert lane.snapshot()["sessions_active"] == 0


def test_session_nack_unknown_drops_sponsor_immediately(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=2)
    manifest, results = start_session(lane, ["gone", "s2"])
    del endpoint.sent[:]
    endpoint.deliver("gone", BulkNack("t1", "gone", "unknown"))
    # restriped onto s2 without waiting for the watchdog
    serve(endpoint, manifest, BLOB)
    assert results == [BLOB]


def test_session_nack_pending_keeps_sponsor(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=1,
                                     MAX_RETRIES=1)
    manifest, results = start_session(lane, ["slow"])
    del endpoint.sent[:]
    for _ in range(5):
        # each watchdog tick refetches; the sponsor keeps answering
        # "pending", which must never exhaust its retry budget
        endpoint.deliver("slow", BulkNack("t1", "slow", "pending"))
        host.fire()
    serve(endpoint, manifest, BLOB)
    assert results == [BLOB]


def test_session_no_sponsors_fails_immediately(make_lane):
    lane, host, endpoint = make_lane()
    manifest, results = start_session(lane, [])
    assert results == [None]


def test_abort_session_suppresses_callback(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=1)
    manifest, results = start_session(lane, ["s1"])
    lane.abort_session("t1")
    serve(endpoint, manifest, BLOB)
    host.fire()
    assert results == []


def test_snapshot_gauges(make_lane):
    lane, host, endpoint = make_lane(STRIPE_WIDTH=2)
    lane.store.stash("other", "g", BLOB, 1024)
    manifest, results = start_session(lane, ["s1", "s2"])
    snap = lane.snapshot()
    assert snap == {"sessions_active": 1, "stripes_in_flight": 2,
                    "store_entries": 1}
