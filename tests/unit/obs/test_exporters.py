"""Unit tests for the JSONL and Chrome trace_event exporters."""

import io
import json

from repro.obs.exporters import (
    chrome_trace_events,
    export_chrome_trace,
    export_jsonl,
)
from repro.obs.spans import SpanEmitter
from repro.runtime.trace import Tracer


def traced_run():
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    spans = SpanEmitter(tracer, node_id="s2")
    tracer.emit("fault", "crash", node="s2", group="store")
    root = spans.start("recovery.total", span_id="t1", node="s2",
                       group="store")
    clock["now"] = 0.001
    child = spans.start("recovery.capture", span_id="t1/cap", parent=root,
                        node="s1", group="store", payload=b"\x00\x01")
    clock["now"] = 0.002
    spans.end(child)
    clock["now"] = 0.005
    spans.end(root)
    spans.start("rpc.roundtrip", span_id="rpc:1", node="c1", group="drv")
    return tracer


def test_export_jsonl_writes_one_line_per_record():
    tracer = traced_run()
    buffer = io.StringIO()
    count = export_jsonl(tracer.records, buffer)
    lines = buffer.getvalue().splitlines()
    assert count == len(lines) == len(tracer.records)
    first = json.loads(lines[0])
    assert first["category"] == "fault" and first["event"] == "crash"
    # bytes payloads are summarized, not serialized
    start = json.loads(lines[2])
    assert start["fields"]["payload"] == "<2 bytes>"


def test_chrome_trace_complete_and_unfinished_spans():
    events = chrome_trace_events(traced_run().records)
    complete = {e["name"]: e for e in events if e["ph"] == "X"}
    assert set(complete) == {"recovery.total", "recovery.capture"}
    assert complete["recovery.total"]["dur"] == 5000.0       # µs
    assert complete["recovery.capture"]["ts"] == 1000.0
    assert complete["recovery.capture"]["args"]["parent_id"] == "t1"
    begins = [e for e in events if e["ph"] == "B"]
    assert [e["name"] for e in begins] == ["rpc.roundtrip"]


def test_chrome_trace_lanes_and_instants():
    events = chrome_trace_events(traced_run().records)
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["fault.crash"]
    assert instants[0]["pid"] == "store" and instants[0]["tid"] == "s2"
    lane_names = {(e["pid"], e.get("tid"), e["args"]["name"])
                  for e in events if e["ph"] == "M"}
    assert ("store", None, "group store") in lane_names
    assert ("store", "s1", "node s1") in lane_names


def test_chrome_trace_instants_can_be_excluded():
    events = chrome_trace_events(traced_run().records,
                                 include_instants=False)
    assert not any(e["ph"] == "i" for e in events)


def test_export_chrome_trace_writes_valid_json(tmp_path):
    tracer = traced_run()
    path = tmp_path / "trace.json"
    count = export_chrome_trace(tracer.records, str(path))
    data = json.loads(path.read_text())
    assert data["displayTimeUnit"] == "ms"
    non_meta = [e for e in data["traceEvents"] if e["ph"] != "M"]
    assert count == len(non_meta) == 4       # 2 X + 1 B + 1 instant


# ---------------------------------------------------------------------------
# Streaming Chrome writer (valid JSON however the run ends)
# ---------------------------------------------------------------------------

def streaming_run(writer_buffer, **writer_kwargs):
    from repro.obs.exporters import ChromeTraceWriter

    writer = ChromeTraceWriter(writer_buffer, register_atexit=False,
                               **writer_kwargs)
    tracer = traced_run()
    for record in tracer.records:
        writer.feed(record)
    return writer


def test_streaming_writer_matches_batch_exporter_event_for_event():
    buffer = io.StringIO()
    writer = streaming_run(buffer)
    writer.close()
    streamed = json.loads(buffer.getvalue())["traceEvents"]
    batch = chrome_trace_events(traced_run().records)

    def key(event):
        return (event["ph"], event["name"], event["ts"] if "ts" in event
                else 0, event.get("dur"))

    streamed_real = sorted([key(e) for e in streamed if e["ph"] != "M"])
    batch_real = sorted([key(e) for e in batch if e["ph"] != "M"])
    assert streamed_real == batch_real
    assert writer.events_written == len(streamed_real)


def test_streaming_writer_document_is_valid_without_close():
    """The abrupt-termination guarantee: every flush leaves the stream one
    ``]}`` away from a valid document (a reader can repair a truncated
    capture mechanically, and ``close`` — atexit-registered in production —
    only appends the suffix, never rewrites)."""
    buffer = io.StringIO()
    streaming_run(buffer)
    # Not closed: a repaired read parses and holds every flushed event.
    repaired = json.loads(buffer.getvalue() + "\n]}")
    assert any(e["ph"] == "X" for e in repaired["traceEvents"])


def test_streaming_writer_close_flushes_open_spans_as_begin_events():
    buffer = io.StringIO()
    writer = streaming_run(buffer)
    writer.close()
    events = json.loads(buffer.getvalue())["traceEvents"]
    begins = [e for e in events if e["ph"] == "B"]
    # traced_run leaves one rpc.roundtrip span open.
    assert [e["name"] for e in begins] == ["rpc.roundtrip"]


def test_streaming_writer_close_is_idempotent_and_feed_after_close_noops():
    buffer = io.StringIO()
    writer = streaming_run(buffer)
    writer.close()
    sealed = buffer.getvalue()
    writer.close()
    writer.feed(traced_run().records[0])
    assert buffer.getvalue() == sealed
    json.loads(sealed)


def test_streaming_writer_can_exclude_instants():
    buffer = io.StringIO()
    writer = streaming_run(buffer, include_instants=False)
    writer.close()
    events = json.loads(buffer.getvalue())["traceEvents"]
    assert not any(e["ph"] == "i" for e in events)
    assert any(e["ph"] == "X" for e in events)
