"""Unit tests for the per-phase recovery report."""

import pytest

from repro.obs.report import (
    RECOVERY_PHASES,
    recovery_phase_report,
    render_phase_table,
)
from repro.obs.spans import SpanEmitter
from repro.runtime.trace import Tracer


def synthetic_recovery():
    """Emit a hand-built recovery span tree with known durations."""
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    spans = SpanEmitter(tracer)

    def at(t):
        clock["now"] = t

    root = spans.start("recovery.total", span_id="t1", node="s2",
                       group="store")
    ann = spans.start("recovery.announce", span_id="t1/ann", parent=root)
    at(0.001)
    spans.end(ann)
    cap = spans.start("recovery.capture", span_id="t1/cap@s1", parent=root)
    qui = spans.start("recovery.quiesce", span_id="t1/q@s1", parent=cap)
    at(0.003)
    spans.end(qui)
    at(0.004)
    spans.end(cap, app_bytes=5000)
    xfer = spans.start("recovery.xfer", span_id="t1/x@s1", parent=root,
                       app_bytes=5000)
    tracer.emit("totem", "frame")            # two frames inside the window
    at(0.006)
    tracer.emit("totem", "frame")
    spans.end(xfer)
    at(0.0065)
    tracer.emit("totem", "frame")            # outside: not attributed
    apply_ = spans.start("recovery.apply", span_id="t1/apply", parent=root)
    at(0.007)
    spans.end(apply_)
    drain = spans.start("recovery.drain", span_id="t1/drain", parent=root,
                        drained=3)
    at(0.0075)
    spans.end(drain)
    spans.end(root)
    return tracer


def test_phase_report_extracts_durations_and_extras():
    [report] = recovery_phase_report(synthetic_recovery())
    assert report.transfer_id == "t1"
    assert report.group == "store" and report.node == "s2"
    assert report.complete and report.total == 0.0075
    approx = pytest.approx
    assert report.phases["announce"] == approx(0.001)
    assert report.phases["quiesce"] == approx(0.002)   # nested inside capture
    assert report.phases["capture"] == approx(0.003)
    assert report.phases["xfer"] == approx(0.002)
    assert report.phases["apply"] == approx(0.0005)
    assert report.phases["drain"] == approx(0.0005)
    assert report.state_bytes == 5000
    assert report.transfer_frames == 2
    assert report.drained_messages == 3


def test_phase_report_concurrent_responders_take_max():
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    spans = SpanEmitter(tracer)
    root = spans.start("recovery.total", span_id="t1", node="s3", group="g")
    slow = spans.start("recovery.capture", span_id="t1/cap@s1", parent=root)
    fast = spans.start("recovery.capture", span_id="t1/cap@s2", parent=root)
    clock["now"] = 0.001
    spans.end(fast)
    clock["now"] = 0.004
    spans.end(slow)
    spans.end(root)
    [report] = recovery_phase_report(tracer)
    assert report.phases["capture"] == 0.004


def test_phase_report_skips_incomplete_children_keeps_open_root():
    tracer = Tracer()
    spans = SpanEmitter(tracer)
    root = spans.start("recovery.total", span_id="t1", node="n", group="g")
    spans.start("recovery.announce", span_id="t1/ann", parent=root)
    [report] = recovery_phase_report(tracer)
    assert not report.complete and report.total is None
    assert report.phases == {}


def test_phase_report_ignores_non_recovery_roots():
    tracer = Tracer()
    spans = SpanEmitter(tracer)
    sid = spans.start("rpc.roundtrip")
    spans.end(sid)
    assert recovery_phase_report(tracer) == []


def test_render_phase_table_lists_every_phase_column():
    table = render_phase_table(synthetic_recovery())
    for phase in RECOVERY_PHASES:
        assert phase in table
    assert "store@s2" in table
    assert "5000" in table


def test_render_phase_table_empty_trace():
    assert "no recovery spans" in render_phase_table(Tracer())


# ---------------------------------------------------------------------------
# Cross-node invocation stitching
# ---------------------------------------------------------------------------

def invocation_records(trace="op:c1->store#7"):
    """One invocation's records as three per-node tracers would emit them
    (client c1, replicas s1 and s2), deliberately out of causal order to
    exercise the sort."""
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])

    def at(t):
        clock["now"] = t

    span_id = f"rpc:{trace}"
    tracer.emit("span", "span_start", span=span_id, name="rpc.roundtrip",
                node="c1", trace=trace, operation="echo")
    at(0.002)
    tracer.emit("replication", "delivered", node="s1", kind="REQUEST",
                trace=trace)
    at(0.0025)
    tracer.emit("replication", "delivered", node="s2", kind="REQUEST",
                trace=trace)
    at(0.003)
    tracer.emit("interceptor", "reply", node="s1", trace=trace)
    at(0.005)
    tracer.emit("replication", "delivered", node="c1", kind="REPLY",
                trace=trace)
    at(0.0055)
    tracer.emit("span", "span_end", span=span_id)
    return tracer.records


def test_stitch_invocations_builds_causal_cross_node_timeline():
    from repro.obs.report import stitch_invocations

    [timeline] = stitch_invocations(invocation_records())
    assert timeline.trace_id == "op:c1->store#7"
    assert timeline.operation == "echo"
    assert [e.stage for e in timeline.events] == [
        "client_send", "execute", "execute", "reply_send",
        "reply_deliver", "client_done"]
    assert timeline.nodes == ("c1", "s1", "s2")
    assert timeline.total == pytest.approx(0.0055)


def test_stitch_groups_interleaved_invocations_separately():
    from repro.obs.report import stitch_invocations

    first = invocation_records("op:c1->store#1")
    second = invocation_records("op:c1->store#2")
    # Interleave the two records streams by time.
    merged = sorted(first + second, key=lambda r: r.time)
    timelines = stitch_invocations(merged)
    assert [t.trace_id for t in timelines] == ["op:c1->store#1",
                                               "op:c1->store#2"]
    assert all(t.total is not None for t in timelines)


def test_stitch_ignores_records_without_trace_ids():
    from repro.obs.report import stitch_invocations

    tracer = Tracer()
    tracer.bind_clock(lambda: 0.0)
    tracer.emit("interceptor", "request", node="c1")      # no trace field
    tracer.emit("totem", "frame", node="s1")
    assert stitch_invocations(tracer.records) == []


def test_stitch_jsonl_streams_merges_and_dedupes(tmp_path):
    from repro.obs.exporters import export_jsonl
    from repro.obs.report import stitch_invocations, stitch_jsonl_streams

    records = invocation_records()
    # Two overlapping dumps, as two nodes' flight recorders would write
    # them (each carries the shared global-lane records).
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    export_jsonl(records, a)
    export_jsonl(records[2:], b)
    merged = stitch_jsonl_streams([a, b])
    assert len(merged) == len(records)
    assert [r.time for r in merged] == sorted(r.time for r in records)
    [timeline] = stitch_invocations(merged)
    assert timeline.total == pytest.approx(0.0055)


def test_render_invocation_timeline_lists_offsets_and_nodes():
    from repro.obs.report import (render_invocation_timeline,
                                  stitch_invocations)

    [timeline] = stitch_invocations(invocation_records())
    out = render_invocation_timeline(timeline)
    lines = out.splitlines()
    assert lines[0].startswith("op:c1->store#7 echo()")
    assert "5.500 ms end-to-end" in lines[0]
    assert len(lines) == 1 + len(timeline.events)
    assert any("client_send" in line and "@ c1" in line for line in lines)
    assert any("execute" in line and "@ s2" in line for line in lines)
