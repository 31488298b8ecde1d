"""Unit tests for span emission, reconstruction, and nesting checks."""

from repro.obs.spans import SpanEmitter, SpanTracker
from repro.runtime.trace import NullTracer, Tracer


def make_tracer():
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    return tracer, clock


# ---------------------------------------------------------------------------
# SpanEmitter
# ---------------------------------------------------------------------------

def test_emitter_start_end_round_trip():
    tracer, clock = make_tracer()
    spans = SpanEmitter(tracer, node_id="n1")
    sid = spans.start("recovery.capture", span_id="t1/capture", group="g")
    clock["now"] = 1.5
    spans.end(sid, app_bytes=100)
    tracker = SpanTracker.from_tracer(tracer)
    [span] = tracker.spans
    assert span.span_id == "t1/capture"
    assert span.name == "recovery.capture"
    assert span.complete and span.duration == 1.5
    assert span.attrs["group"] == "g" and span.attrs["app_bytes"] == 100


def test_emitter_auto_ids_are_unique_per_emitter():
    tracer, _ = make_tracer()
    spans = SpanEmitter(tracer, node_id="n1")
    assert spans.start("a") != spans.start("a")


def test_emitter_duplicate_start_is_idempotent():
    tracer, _ = make_tracer()
    a = SpanEmitter(tracer, node_id="n1")
    b = SpanEmitter(tracer, node_id="n2")     # same tracer, other component
    a.start("recovery.xfer", span_id="t1/xfer")
    b.start("recovery.xfer", span_id="t1/xfer")
    assert tracer.count("span.span_start") == 1


def test_emitter_end_of_unknown_or_closed_span_is_dropped():
    tracer, _ = make_tracer()
    spans = SpanEmitter(tracer)
    spans.end("never-started")
    sid = spans.start("x")
    spans.end(sid)
    spans.end(sid)                            # double end
    assert tracer.count("span.span_end") == 1
    assert SpanTracker.from_tracer(tracer).orphan_ends == []


def test_emitter_cross_component_end():
    # A span started on one node can be ended by another emitter sharing
    # the tracer — the §5.1 wire-transfer span works exactly like this.
    tracer, clock = make_tracer()
    sender = SpanEmitter(tracer, node_id="s1")
    receiver = SpanEmitter(tracer, node_id="s2")
    sid = sender.start("recovery.xfer", span_id="t1/xfer@s1")
    clock["now"] = 0.004
    receiver.end(sid)
    [span] = SpanTracker.from_tracer(tracer).spans
    assert span.complete and span.duration == 0.004


def test_emitter_on_null_tracer_is_inert():
    null = NullTracer()
    spans = SpanEmitter(null, node_id="n1")
    sid = spans.start("x")
    spans.end(sid)
    assert null.records == [] and null.counters == {}
    assert null.open_spans is None


# ---------------------------------------------------------------------------
# SpanTracker
# ---------------------------------------------------------------------------

def test_tracker_parent_child_nesting():
    tracer, clock = make_tracer()
    spans = SpanEmitter(tracer)
    root = spans.start("recovery.total", span_id="t1")
    clock["now"] = 0.1
    child = spans.start("recovery.capture", span_id="t1/cap", parent=root)
    clock["now"] = 0.2
    spans.end(child)
    clock["now"] = 0.3
    spans.end(root)
    tracker = SpanTracker.from_tracer(tracer)
    assert [s.span_id for s in tracker.roots()] == ["t1"]
    assert [s.span_id for s in tracker.children("t1")] == ["t1/cap"]
    assert tracker.nesting_violations() == []
    assert tracker.named("recovery.capture")[0].duration == 0.1


def test_tracker_detects_nesting_violation():
    tracer, clock = make_tracer()
    spans = SpanEmitter(tracer)
    root = spans.start("a", span_id="r")
    child = spans.start("b", span_id="c", parent=root)
    clock["now"] = 1.0
    spans.end(root)
    clock["now"] = 2.0
    spans.end(child)                  # outlives its parent
    tracker = SpanTracker.from_tracer(tracer)
    assert [s.span_id for s in tracker.nesting_violations()] == ["c"]


def test_tracker_child_ending_with_parent_is_not_a_violation():
    tracer, clock = make_tracer()
    spans = SpanEmitter(tracer)
    root = spans.start("a", span_id="r")
    child = spans.start("b", span_id="c", parent=root)
    clock["now"] = 1.0
    spans.end(child)
    spans.end(root)                   # same instant: closed bounds
    assert SpanTracker.from_tracer(tracer).nesting_violations() == []


def test_tracker_unfinished_and_orphans():
    tracer, _ = make_tracer()
    tracer.emit("span", "span_start", span="open", name="x", parent=None)
    tracer.emit("span", "span_end", span="ghost")
    tracker = SpanTracker.from_tracer(tracer)
    assert [s.span_id for s in tracker.unfinished] == ["open"]
    assert len(tracker.orphan_ends) == 1
    assert tracker.orphan_ends[0].fields["span"] == "ghost"


def test_tracker_live_feed_via_subscription():
    tracer, _ = make_tracer()
    tracker = SpanTracker()
    tracer.subscribe(tracker.feed)
    spans = SpanEmitter(tracer)
    sid = spans.start("x")
    spans.end(sid)
    assert len(tracker.spans) == 1 and tracker.spans[0].complete


def test_tracker_ignores_non_span_records():
    tracer, _ = make_tracer()
    tracer.emit("recovery", "recovered", node="n1")
    tracer.emit("span", "span_start")         # missing span id
    assert SpanTracker.from_tracer(tracer).spans == []
