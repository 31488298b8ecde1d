"""Unit tests for the online consistency auditor (synthetic streams)."""

import pytest

from repro.obs.audit import (
    DUPLICATE_DELIVERY,
    ORDER_DIGEST,
    RECOVERY_WINDOW,
    SET_STATE_WINDOW,
    SPAN_STRUCTURE,
    STATE_DIGEST,
    AuditViolation,
    ConsistencyAuditor,
    state_digest,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime.trace import Tracer


def make_stream():
    """A live tracer/auditor pair with a controllable clock."""
    tracer = Tracer(keep_records=True)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    auditor = ConsistencyAuditor().bind(tracer)
    return tracer, auditor, clock


# ---------------------------------------------------------------------------
# The digest helper
# ---------------------------------------------------------------------------

def test_state_digest_is_stable_and_content_sensitive():
    assert state_digest(b"abc") == state_digest(b"abc")
    assert state_digest(b"abc") != state_digest(b"abd")
    assert len(state_digest(b"")) == 16        # blake2b-8 hex


def test_state_digest_is_boundary_sensitive():
    # length prefixes make ("ab","c") and ("a","bc") distinct
    assert state_digest(b"ab", b"c") != state_digest(b"a", b"bc")
    assert state_digest(b"ab", b"c") != state_digest(b"abc")


# ---------------------------------------------------------------------------
# state-digest
# ---------------------------------------------------------------------------

def test_agreeing_responder_digests_pass():
    tracer, auditor, _ = make_stream()
    for node in ("s1", "s2", "s3"):
        tracer.emit("audit", "state_digest", node=node, group="g",
                    transfer="rec:g:s4:e0:1", role="responder",
                    digest=state_digest(b"same"))
    assert auditor.finish() == []


def test_disagreeing_digest_names_replica_and_span():
    tracer, auditor, _ = make_stream()
    tracer.emit("audit", "state_digest", node="s1", group="g",
                transfer="rec:g:s3:e0:1", role="responder",
                digest=state_digest(b"good"))
    tracer.emit("audit", "state_digest", node="s2", group="g",
                transfer="rec:g:s3:e0:1", role="responder",
                digest=state_digest(b"diverged"))
    (finding,) = auditor.findings
    assert finding.invariant == STATE_DIGEST
    assert finding.node == "s2"
    assert finding.group == "g"
    assert finding.span_id == "rec:g:s3:e0:1"
    assert "s1" in finding.detail


def test_digests_of_distinct_transfers_never_compared():
    tracer, auditor, _ = make_stream()
    tracer.emit("audit", "state_digest", node="s1", group="g",
                transfer="rec:g:s3:e0:1", digest=state_digest(b"one"))
    tracer.emit("audit", "state_digest", node="s1", group="g",
                transfer="rec:g:s3:e0:2", digest=state_digest(b"two"))
    tracer.emit("audit", "state_digest", node="s1", group="other",
                transfer="rec:g:s3:e0:1", digest=state_digest(b"three"))
    assert auditor.ok


# ---------------------------------------------------------------------------
# order-digest
# ---------------------------------------------------------------------------

def test_matching_order_digests_pass():
    tracer, auditor, _ = make_stream()
    for node in ("s1", "s2"):
        tracer.emit("audit", "order_digest", node=node, cfg="7:abcd1234",
                    base=0, seq=32, digest="deadbeef")
    assert auditor.ok
    assert auditor._order_checked == 2


def test_diverged_order_digest_flagged():
    tracer, auditor, _ = make_stream()
    tracer.emit("audit", "order_digest", node="s1", cfg="7:abcd1234",
                base=0, seq=32, digest="deadbeef")
    tracer.emit("audit", "order_digest", node="s2", cfg="7:abcd1234",
                base=0, seq=32, digest="0badf00d")
    (finding,) = auditor.findings
    assert finding.invariant == ORDER_DIGEST
    assert finding.node == "s2"
    assert finding.message_id == "seq:32"


def test_order_digests_scoped_to_ring_and_base():
    """Hashes from different rings (or different join points in the same
    ring) are incomparable and must not be cross-checked."""
    tracer, auditor, _ = make_stream()
    tracer.emit("audit", "order_digest", node="s1", cfg="7:aaaa0000",
                base=0, seq=32, digest="11111111")
    tracer.emit("audit", "order_digest", node="s2", cfg="8:bbbb0000",
                base=0, seq=32, digest="22222222")
    tracer.emit("audit", "order_digest", node="s3", cfg="7:aaaa0000",
                base=16, seq=32, digest="33333333")
    assert auditor.ok


# ---------------------------------------------------------------------------
# duplicate-delivery
# ---------------------------------------------------------------------------

def _deliver(tracer, request_id, *, node="s1", kind="REQUEST"):
    tracer.emit("replication", "delivered", node=node, group="g",
                conn="c->g", request_id=request_id, kind=kind)


def test_duplicate_operation_id_flagged():
    tracer, auditor, _ = make_stream()
    _deliver(tracer, 1)
    _deliver(tracer, 2)
    _deliver(tracer, 1)
    (finding,) = auditor.findings
    assert finding.invariant == DUPLICATE_DELIVERY
    assert finding.node == "s1"
    assert finding.message_id == "c->g#1/REQUEST"


def test_request_and_reply_with_same_id_are_distinct_operations():
    tracer, auditor, _ = make_stream()
    _deliver(tracer, 1, kind="REQUEST")
    _deliver(tracer, 1, kind="REPLY")
    assert auditor.ok


def test_new_incarnation_resets_the_duplicate_shadow():
    tracer, auditor, _ = make_stream()
    _deliver(tracer, 1)
    tracer.emit("replication", "binding_destroyed", node="s1", group="g")
    tracer.emit("replication", "binding_created", node="s1", group="g")
    _deliver(tracer, 1)        # fresh incarnation: not a duplicate
    assert auditor.ok


# ---------------------------------------------------------------------------
# quiesced windows
# ---------------------------------------------------------------------------

def test_execution_inside_recovery_window_flagged():
    tracer, auditor, clock = make_stream()
    tracer.emit("recovery", "sync_point", node="s1", group="g",
                transfer="rec:g:s1:e0:1")
    clock["now"] = 0.5
    tracer.emit("replica", "executed", node="s1", group="g",
                operation="echo")
    (finding,) = auditor.findings
    assert finding.invariant == RECOVERY_WINDOW
    assert finding.span_id == "rec:g:s1:e0:1"
    assert "echo" in finding.detail


def test_execution_after_recovered_passes():
    tracer, auditor, _ = make_stream()
    tracer.emit("recovery", "sync_point", node="s1", group="g",
                transfer="rec:g:s1:e0:1")
    tracer.emit("replica", "set_state", node="s1", group="g", size=10)
    tracer.emit("recovery", "recovered", node="s1", group="g")
    tracer.emit("replica", "executed", node="s1", group="g",
                operation="echo")
    assert auditor.ok


def test_set_state_outside_any_window_flagged():
    tracer, auditor, _ = make_stream()
    tracer.emit("replica", "set_state", node="s1", group="g", size=10)
    (finding,) = auditor.findings
    assert finding.invariant == SET_STATE_WINDOW
    assert finding.node == "s1"


def test_failover_window_admits_set_state():
    tracer, auditor, _ = make_stream()
    tracer.emit("recovery", "failover_begin", node="s2", group="g")
    tracer.emit("replica", "set_state", node="s2", group="g", size=10)
    tracer.emit("recovery", "recovered", node="s2", group="g")
    assert auditor.ok


def test_checkpoint_grants_admit_and_are_capped():
    tracer, auditor, _ = make_stream()
    for _ in range(5):          # grants cap at 2 — stale ones must not pool
        tracer.emit("recovery", "checkpoint_logged", node="s2", group="g")
    tracer.emit("replica", "set_state", node="s2", group="g", size=10)
    tracer.emit("replica", "set_state", node="s2", group="g", size=10)
    assert auditor.ok
    tracer.emit("replica", "set_state", node="s2", group="g", size=10)
    (finding,) = auditor.findings
    assert finding.invariant == SET_STATE_WINDOW


# ---------------------------------------------------------------------------
# span-structure and lifecycle
# ---------------------------------------------------------------------------

def test_orphan_span_end_flagged_at_finish():
    tracer, auditor, _ = make_stream()
    tracer.emit("span", "span_end", span="never-started")
    assert auditor.ok                        # streaming phase stays silent
    findings = auditor.finish()
    assert [f.invariant for f in findings] == [SPAN_STRUCTURE]
    assert findings[0].span_id == "never-started"


def test_spans_open_before_bind_are_not_orphans():
    """Attaching mid-stream: ends of spans that started before the
    subscription must not be flagged."""
    tracer = Tracer(keep_records=True)
    tracer.bind_clock(lambda: 0.0)
    # SpanRecorder maintains tracer.open_spans for real emitters; mimic it
    tracer.emit("span", "span_start", span="old", name="rpc")
    tracer.open_spans.add("old")
    auditor = ConsistencyAuditor().bind(tracer)
    tracer.open_spans.discard("old")
    tracer.emit("span", "span_end", span="old")
    assert auditor.finish() == []


def test_unfinished_spans_are_not_findings():
    tracer, auditor, _ = make_stream()
    tracer.emit("span", "span_start", span="abandoned", name="recovery")
    assert auditor.finish() == []


def test_finish_is_idempotent_and_raises_in_hard_fail_mode():
    tracer, auditor, _ = make_stream()
    tracer.emit("span", "span_end", span="orphan")
    assert len(auditor.finish()) == 1
    assert len(auditor.finish()) == 1        # not double-counted
    with pytest.raises(AuditViolation) as excinfo:
        auditor.finish(raise_on_findings=True)
    assert SPAN_STRUCTURE in str(excinfo.value)


def test_findings_feed_the_metrics_registry():
    registry = MetricsRegistry()
    tracer = Tracer(keep_records=True)
    tracer.bind_clock(lambda: 0.0)
    auditor = ConsistencyAuditor(metrics=registry).bind(tracer)
    tracer.emit("replica", "set_state", node="s1", group="g", size=1)
    assert registry.counter("audit.findings",
                            invariant=SET_STATE_WINDOW).value == 1
    auditor.finish()
    assert registry.gauge("audit.ok").value == 0.0


def test_from_records_replays_a_retained_trace():
    tracer, live, _ = make_stream()
    tracer.emit("replica", "set_state", node="s1", group="g", size=1)
    replayed = ConsistencyAuditor.from_records(tracer.records)
    assert len(replayed.findings) == len(live.findings) == 1
    assert replayed.records_scanned == len(tracer.records)


def test_summary_mentions_status_and_findings():
    tracer, auditor, _ = make_stream()
    assert "OK" in auditor.summary()
    tracer.emit("replica", "set_state", node="s1", group="g", size=1)
    summary = auditor.summary()
    assert "VIOLATED" in summary and SET_STATE_WINDOW in summary
