"""Unit tests for the trace timeline tool."""

import re

import pytest

from repro.obs.report import recovery_phase_report
from repro.runtime.trace import Tracer
from repro.tools.timeline import render_timeline


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


def test_the_six_install_steps_render_as_distinct_lines():
    """A network recovery installs app, ORB and infrastructure state, then
    replays, goes operational and drains (§5.1): six ``recovery.install``
    records, which the timeline must tell apart by their step."""
    from repro.bench.deployments import build_client_server, measure_recovery

    deployment = build_client_server(state_size=100, keep_trace_records=True)
    measure_recovery(deployment, "s2")
    lines = [line.split(" ms  ", 1)[1] for line in render_timeline(
        deployment.system.tracer, categories={"recovery"}).splitlines()
        if "recovery.install" in line and "node=s2" in line]
    assert len(lines) == 6 and len(set(lines)) == 6
    assert [re.search(r"step=(\w+)", line).group(1) for line in lines] == [
        "app", "orb", "infra", "replay", "operational", "drain"]


def test_render_empty_message():
    assert "no matching" in render_timeline(Tracer(keep_records=True))


def recovery_spans(transfer, node, start, xfer, *, recovered=True,
                   app_bytes=1234):
    """Span records of one recovery of ``node``: the root
    ``recovery.total`` span and its wire-transfer child of ``xfer`` s."""
    records = [
        (start, "span", "span_start",
         {"span": transfer, "name": "recovery.total", "parent": None,
          "node": node, "group": "store"}),
        (start + 0.001, "span", "span_start",
         {"span": f"{transfer}/xfer", "name": "recovery.xfer",
          "parent": transfer}),
        (start + 0.001 + xfer, "span", "span_end",
         {"span": f"{transfer}/xfer", "app_bytes": app_bytes}),
    ]
    if recovered:
        records.append((start + 0.002 + xfer, "span", "span_end",
                        {"span": transfer}))
    return records


def test_recovery_summary_complete():
    reports = recovery_phase_report(make_tracer(
        recovery_spans("rec:1", "s2", 0.201, 0.003)))
    assert len(reports) == 1
    report = reports[0]
    assert report.group == "store" and report.node == "s2"
    assert report.state_bytes == 1234
    assert report.total == pytest.approx(0.005)
    assert report.phases["xfer"] == pytest.approx(0.003)


def test_recovery_summary_in_flight():
    reports = recovery_phase_report(make_tracer(
        recovery_spans("rec:1", "s2", 0.201, 0.003, recovered=False)))
    assert len(reports) == 1
    assert reports[0].recovered_at is None
    assert reports[0].total is None and not reports[0].complete


def test_recovery_summary_multiple_sorted():
    reports = recovery_phase_report(make_tracer(
        recovery_spans("rec:1", "s2", 0.201, 0.003)
        + recovery_spans("rec:2", "s1", 0.400, 0.005)))
    assert [r.node for r in reports] == ["s2", "s1"]


def test_two_recoveries_of_one_replica_keep_their_own_phases():
    """A replica recovered twice gets each recovery's own breakdown, and
    the tooling exports exactly one per-recovery breakdown (a second
    one, keyed by group and node only, gave the last recovery's phases
    to both)."""
    import repro.tools

    reports = repro.tools.recovery_phase_report(make_tracer(
        recovery_spans("rec:1", "s2", 0.2, 0.010)
        + recovery_spans("rec:2", "s2", 1.0, 0.300)))
    assert [r.phases["xfer"] for r in reports] == [
        pytest.approx(0.010), pytest.approx(0.300)]
    assert [r.started_at for r in reports] == [0.2, 1.0]
    assert [name for name in repro.tools.__all__
            if name.startswith("recovery_")] == ["recovery_phase_report"]


def test_summary_from_live_system():
    from repro.bench.deployments import build_client_server, measure_recovery
    deployment = build_client_server(server_replicas=2, state_size=500,
                                     warmup=0.1, keep_trace_records=True)
    measure_recovery(deployment, "s2")
    reports = recovery_phase_report(deployment.system.tracer)
    assert any(r.node == "s2" and r.complete and r.state_bytes
               for r in reports)
