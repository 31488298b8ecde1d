"""Unit tests for the trace timeline tool."""

from repro.runtime.trace import Tracer
from repro.tools.timeline import recovery_summary, render_timeline


def make_tracer(records):
    tracer = Tracer(keep_records=True)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    for time, category, event, fields in records:
        clock["now"] = time
        tracer.emit(category, event, **fields)
    return tracer


RECOVERY_RECORDS = [
    (0.100, "fault", "crash", {"node": "s2"}),
    (0.200, "process", "restart", {"node": "s2"}),
    (0.201, "recovery", "join_announced",
     {"node": "s2", "group": "store", "transfer": "rec:1"}),
    (0.202, "recovery", "sync_point",
     {"node": "s2", "group": "store", "transfer": "rec:1"}),
    (0.203, "recovery", "set_state_multicast",
     {"node": "s1", "group": "store", "app_bytes": 1234}),
    (0.205, "recovery", "recovery_set_received",
     {"node": "s2", "group": "store", "app_bytes": 1234}),
    (0.206, "recovery", "recovered", {"node": "s2", "group": "store"}),
]


def test_render_includes_labels_and_times():
    text = render_timeline(make_tracer(RECOVERY_RECORDS))
    assert "sync point" in text
    assert "replica reinstated" in text
    assert "201.000 ms" in text


def test_render_filters_by_category():
    text = render_timeline(make_tracer(RECOVERY_RECORDS),
                           categories={"fault"})
    assert "crash" in text
    assert "reinstated" not in text


def test_render_filters_by_window():
    text = render_timeline(make_tracer(RECOVERY_RECORDS), since=0.202,
                           until=0.204)
    assert "set_state() fabricated" in text
    assert "join announced" not in text


def test_render_filters_by_group():
    records = RECOVERY_RECORDS + [
        (0.300, "recovery", "recovered", {"node": "x", "group": "other"}),
    ]
    text = render_timeline(make_tracer(records), group="store")
    assert "other" not in text


def test_render_empty_message():
    assert "no matching" in render_timeline(Tracer(keep_records=True))


def test_recovery_summary_complete():
    summaries = recovery_summary(make_tracer(RECOVERY_RECORDS))
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.group == "store" and summary.node == "s2"
    assert summary.state_bytes == 1234
    assert summary.duration is not None
    assert abs(summary.duration - 0.005) < 1e-9


def test_recovery_summary_in_flight():
    records = RECOVERY_RECORDS[:4]     # no 'recovered' yet
    summaries = recovery_summary(make_tracer(records))
    assert len(summaries) == 1
    assert summaries[0].recovered_at is None
    assert summaries[0].duration is None


def test_recovery_summary_multiple_sorted():
    records = list(RECOVERY_RECORDS)
    records += [
        (0.400, "recovery", "join_announced",
         {"node": "s1", "group": "store", "transfer": "rec:2"}),
        (0.410, "recovery", "recovered", {"node": "s1", "group": "store"}),
    ]
    summaries = recovery_summary(make_tracer(records))
    assert [s.node for s in summaries] == ["s2", "s1"]


def test_summary_from_live_system():
    from repro.bench.deployments import build_client_server, measure_recovery
    deployment = build_client_server(server_replicas=2, state_size=500,
                                     warmup=0.1, keep_trace_records=True)
    measure_recovery(deployment, "s2")
    summaries = recovery_summary(deployment.system.tracer)
    assert any(s.node == "s2" and s.duration is not None
               for s in summaries)
