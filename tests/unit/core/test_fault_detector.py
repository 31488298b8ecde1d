"""Unit tests for the pull-based replica fault detector."""

from repro.bench.deployments import build_client_server
from repro.core.fault_detector import SUSPECT_AFTER
from repro.ftcorba.properties import ReplicationStyle


def deploy():
    return build_client_server(style=ReplicationStyle.ACTIVE,
                               server_replicas=2, state_size=100,
                               warmup=0.2, keep_trace_records=True)


def test_detector_created_on_hosting_nodes():
    deployment = deploy()
    for node in deployment.server_nodes:
        assert deployment.system.mechanisms(node).fault_detector is not None


def test_busy_but_progressing_replica_not_suspected():
    deployment = deploy()
    deployment.system.run_for(1.0)
    assert deployment.system.tracer.count("fault_detector.report") == 0


def test_hung_replica_suspected_then_reported_once():
    deployment = deploy()
    system = deployment.system
    system.hang_replica("store", "s1")
    assert system.wait_for(
        lambda: system.tracer.count("fault_detector.report") >= 1,
        timeout=3.0,
    )
    suspects = system.tracer.count("fault_detector.suspect")
    assert suspects >= SUSPECT_AFTER
    system.run_for(0.2)
    # a single report per fault (no flapping)
    reports = [r for r in system.tracer.find("fault_detector", "report")
               if r.fields.get("node") == "s1"]
    assert len(reports) == 1


def test_detection_latency_bounded_by_monitoring_interval():
    deployment = deploy()
    system = deployment.system
    info = system.mechanisms("s1").groups["store"]
    hang_at = system.now
    system.hang_replica("store", "s1")
    assert system.wait_for(
        lambda: system.tracer.count("fault_detector.report") >= 1,
        timeout=3.0,
    )
    latency = system.now - hang_at
    # SUSPECT_AFTER polls plus one interval of slack
    assert latency <= (SUSPECT_AFTER + 2) * info.fault_monitoring_interval


def test_cold_backups_never_suspected():
    deployment = build_client_server(
        style=ReplicationStyle.COLD_PASSIVE, server_replicas=2,
        state_size=100, checkpoint_interval=0.1, warmup=0.2,
        keep_trace_records=True,
    )
    deployment.system.run_for(1.0)
    assert deployment.system.tracer.count("fault_detector.report") == 0


def test_transient_suspicion_refuted_and_counted_as_false_positive():
    """A replica that stalls briefly but resumes before SUSPECT_AFTER
    polls is suspected, then cleared (its strikes reset), not reported."""
    deployment = deploy()
    system = deployment.system
    servant = deployment.server_group.servant_on("s1")
    info = system.mechanisms("s1").groups["store"]
    servant._hung_for_test = True
    # a 1.5-interval window sees 1-2 polls: suspected, never reported
    system.run_for(info.fault_monitoring_interval * 1.5)
    servant._hung_for_test = False
    system.run_for(info.fault_monitoring_interval * 3)
    strikes = [r.fields["strikes"] for r in system.tracer.find(
        "fault_detector", "suspect") if r.fields["node"] == "s1"]
    # Counting restarted at 1 after a suspicion: the replica was seen
    # alive in between, which refuted it.
    assert any(later == 1 for later in strikes[1:])
    assert system.tracer.count("fault_detector.report") == 0
    first_strikes = [r for r in system.tracer.find("fault_detector",
                                                   "suspect")
                     if r.fields.get("strikes") == 1]
    assert len(first_strikes) >= 1


def test_reported_fault_feeds_metrics_counters():
    deployment = deploy()
    system = deployment.system
    system.hang_replica("store", "s1")
    assert system.wait_for(
        lambda: system.tracer.count("fault_detector.report") >= 1,
        timeout=3.0,
    )
    on_s1 = [(r.event, r.fields.get("strikes"))
             for r in system.tracer.records
             if r.category == "fault_detector" and r.fields.get("node") == "s1"
             and r.fields.get("group") == "store"]
    assert on_s1.count(("suspect", 1)) == 1
    assert [event for event, _ in on_s1].count("report") == 1
    # The health exposition's gauges, set by the telemetry poll.
    system.telemetry.poll()
    assert system.metrics.gauge("fault_detector.reported",
                                node="s1", group="store").value == 1
    assert system.metrics.gauge("fault_detector.strikes",
                                node="s1", group="store").value >= 1


def test_snapshot_exposes_strikes_and_reported_state():
    deployment = deploy()
    system = deployment.system
    detector = system.mechanisms("s1").fault_detector
    assert detector.snapshot() == {"store": {"strikes": 0, "reported": 0}}
    system.hang_replica("store", "s1")
    assert system.wait_for(
        lambda: system.tracer.count("fault_detector.report") >= 1,
        timeout=3.0,
    )
    assert detector.snapshot()["store"]["reported"] == 1
