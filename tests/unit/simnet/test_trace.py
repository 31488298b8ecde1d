"""Unit tests for the tracer."""

from repro.runtime.trace import NULL_TRACER, NullTracer, Tracer


def test_emit_records_and_counts():
    tracer = Tracer()
    tracer.emit("cat", "ev", x=1)
    assert tracer.count("cat.ev") == 1
    assert len(tracer.records) == 1
    assert tracer.records[0].fields == {"x": 1}


def test_counters_update_even_without_records():
    tracer = Tracer(keep_records=False)
    tracer.emit("cat", "ev")
    assert tracer.count("cat.ev") == 1
    assert tracer.records == []


def test_count_of_unknown_key_is_zero():
    assert Tracer().count("nope.never") == 0


def test_bind_clock_stamps_records():
    tracer = Tracer()
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    clock["now"] = 3.25
    tracer.emit("cat", "ev")
    assert tracer.records[0].time == 3.25


def test_add_bumps_arbitrary_counter():
    tracer = Tracer()
    tracer.add("bytes", 100)
    tracer.add("bytes", 50)
    assert tracer.counters["bytes"] == 150


def test_find_filters_by_category_and_event():
    tracer = Tracer()
    tracer.emit("a", "x")
    tracer.emit("a", "y")
    tracer.emit("b", "x")
    assert len(list(tracer.find("a"))) == 2
    assert len(list(tracer.find("a", "x"))) == 1


def test_subscribe_receives_live_records():
    tracer = Tracer(keep_records=False)
    seen = []
    tracer.subscribe(seen.append)
    tracer.emit("cat", "ev", k="v")
    assert len(seen) == 1 and seen[0].fields == {"k": "v"}


def test_clear_resets_everything():
    tracer = Tracer()
    tracer.emit("cat", "ev")
    tracer.clear()
    assert tracer.records == [] and tracer.count("cat.ev") == 0


def test_muted_events_reach_no_consumer_but_still_count():
    tracer = Tracer()
    seen = []
    tracer.subscribe(seen.append)
    tracer.set_muted_events({"cat.drop"})
    tracer.emit("cat", "keep")
    tracer.emit("cat", "drop")
    assert [r.event for r in tracer.records] == ["keep"]
    assert [r.event for r in seen] == ["keep"]
    assert tracer.count("cat.drop") == 1    # counters still unconditional


def test_null_tracer_is_completely_inert():
    null = NullTracer()
    seen = []
    null.subscribe(seen.append)
    null.emit("cat", "ev", x=1)
    null.add("bytes", 100)
    assert null.records == []
    assert null.counters == {}
    assert seen == []
    assert null.open_spans is None


def test_null_tracer_singleton_accumulates_nothing():
    NULL_TRACER.emit("cat", "ev")
    NULL_TRACER.add("bytes", 10)
    assert NULL_TRACER.records == []
    assert NULL_TRACER.counters == {}


def test_clear_resets_open_spans():
    tracer = Tracer()
    tracer.open_spans.add("sp-1")
    tracer.clear()
    assert tracer.open_spans == set()
