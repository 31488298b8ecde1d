"""Unit tests for the telemetry plane: flight recorder, metrics history,
queue-depth polling, ``top`` rendering, and the crash hooks."""

import json
import sys

import pytest

from repro.bench.deployments import build_client_server
from repro.ftcorba.properties import ReplicationStyle
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import load_trace_jsonl
from repro.obs.telemetry import (
    GLOBAL_LANE,
    FlightRecorder,
    MetricsHistory,
    TelemetryConfig,
    TelemetryPlane,
    install_crash_hooks,
    render_top,
)
from repro.runtime.trace import Tracer


def make_recorder(*, exclude=None, capacity=None, **overrides):
    """A recorder on its own tracer; ``exclude`` / ``capacity`` stand in
    for ``FLIGHT_EXCLUDE`` / ``FLIGHT_CAPACITY`` while it is built."""
    clock = {"now": 0.0}
    with pytest.MonkeyPatch.context() as patch:
        if exclude is not None:
            patch.setattr(telemetry, "FLIGHT_EXCLUDE", exclude)
        if capacity is not None:
            patch.setattr(telemetry, "FLIGHT_CAPACITY", capacity)
        recorder = FlightRecorder(TelemetryConfig(**overrides),
                                  lambda: clock["now"])
    tracer = Tracer()
    tracer.bind_clock(lambda: clock["now"])
    recorder.attach(tracer)
    return recorder, tracer, clock


# ---------------------------------------------------------------------------
# FlightRecorder: rings, trimming, auto-dump
# ---------------------------------------------------------------------------

def test_rings_partition_by_node_and_merge_with_global_lane():
    recorder, tracer, clock = make_recorder(exclude=())
    tracer.emit("admin", "group_created", group="g")          # no node
    clock["now"] = 1.0
    tracer.emit("replica", "executed", node="s1", seq=1)
    clock["now"] = 2.0
    tracer.emit("replica", "executed", node="s2", seq=2)
    s1 = recorder.records_for("s1")
    assert [(r.category, r.event) for r in s1] == [
        ("admin", "group_created"), ("replica", "executed")]
    assert s1[-1].fields["node"] == "s1"
    # The global lane alone: only the node-less records.
    assert [r.category for r in recorder.records_for(GLOBAL_LANE)] == \
        ["admin"]


def test_ring_keeps_at_least_capacity_most_recent_records():
    recorder, tracer, _ = make_recorder(capacity=8,
                                        exclude=())
    for seq in range(100):
        tracer.emit("replica", "executed", node="s1", seq=seq)
    kept = [r.fields["seq"] for r in recorder.records_for("s1")]
    # Batch trimming retains *at least* the last ``capacity`` records and
    # reads return exactly the newest ``capacity`` of them, in order.
    assert kept == list(range(92, 100))


def test_crash_record_auto_dumps_the_dead_nodes_ring(tmp_path):
    recorder, tracer, clock = make_recorder(flight_dir=str(tmp_path),
                                            exclude=())
    tracer.emit("replica", "executed", node="s1", seq=1)
    tracer.emit("replica", "executed", node="s2", seq=2)
    clock["now"] = 3.0
    tracer.emit("fault", "crash", node="s1")
    (dump,) = recorder.dumps
    assert dump.node == "s1" and dump.reason == "crash"
    assert dump.time == 3.0
    # The dump holds s1's history (crash record included), not s2's.
    events = [(r.category, r.fields.get("node")) for r in dump.records]
    assert ("replica", "s1") in events and ("fault", "s1") in events
    assert all(node != "s2" for _, node in events)
    # … and landed on disk in the stitchable JSONL format.
    assert dump.path is not None
    reloaded = load_trace_jsonl(dump.path)
    assert [(r.category, r.event) for r in reloaded] == \
        [(r.category, r.event) for r in dump.records]


def test_audit_finding_rings_a_record_and_dumps():
    recorder, tracer, _ = make_recorder()

    class Finding:
        node = "s2"
        time = 1.5
        invariant = "same-order"
        detail = "divergent digest"

    tracer.emit("replica", "executed", node="s2", seq=9)
    recorder.record_finding(Finding())
    (dump,) = recorder.dumps
    assert dump.node == "s2" and dump.reason == "audit_violation"
    finding = dump.records[-1]
    assert (finding.category, finding.event) == ("audit", "finding")
    assert finding.fields["invariant"] == "same-order"


def test_dump_all_covers_every_node_or_global_lane(tmp_path):
    recorder, tracer, _ = make_recorder(flight_dir=str(tmp_path))
    tracer.emit("replica", "executed", node="s1")
    tracer.emit("replica", "executed", node="s2")
    dumps = recorder.dump_all("shutdown")
    assert [d.node for d in dumps] == ["s1", "s2"]
    assert all(d.path and d.reason == "shutdown" for d in dumps)
    # A recorder that saw only node-less records dumps the global lane.
    empty, tracer2, _ = make_recorder()
    tracer2.emit("admin", "group_created", group="g")
    assert [d.node for d in empty.dump_all()] == [GLOBAL_LANE]


# ---------------------------------------------------------------------------
# FlightRecorder: admission filtering
# ---------------------------------------------------------------------------

def test_flight_exclude_skips_categories_and_single_events():
    recorder, tracer, _ = make_recorder(exclude=("totem.deliver",))
    tracer.emit("totem", "deliver", node="s1")         # one event
    tracer.emit("totem", "frame", node="s1")           # same category, kept
    kept = [(r.category, r.event) for r in recorder.records_for("s1")]
    assert kept == [("totem", "frame")]


def test_default_exclusions_drop_fanout_but_keep_causal_stream():
    recorder, tracer, _ = make_recorder()     # default FLIGHT_EXCLUDE
    tracer.emit("totem", "deliver", node="s1", seq=1)
    tracer.emit("totem", "token", node="s1", seq=1)
    tracer.emit("totem", "frame", node="s1", seq=2)
    tracer.emit("totem", "packed_frame", node="s1", seq=2, payloads=3)
    tracer.emit("totem", "install", node="s1", ring_id=4)
    tracer.emit("live", "recv_batch", node="s1", n=3)
    tracer.emit("replication", "delivered", node="s1", kind="REQUEST")
    tracer.emit("interceptor", "reply", node="s1", trace="op:c->s#1")
    kept = [(r.category, r.event) for r in recorder.records_for("s1")]
    assert kept == [("totem", "install"), ("replication", "delivered")]


# ---------------------------------------------------------------------------
# MetricsHistory
# ---------------------------------------------------------------------------

def test_history_counters_sample_as_deltas():
    metrics = MetricsRegistry()
    history = MetricsHistory(metrics, capacity=8)
    metrics.counter("requests", node="s1").inc(5)
    history.sample(1.0)
    metrics.counter("requests", node="s1").inc(2)
    history.sample(2.0)
    key = MetricsHistory.series_key("requests", {"node": "s1"})
    assert history.series(key) == [[1.0, 5.0], [2.0, 2.0]]


def test_history_counter_reset_yields_zero_delta_not_negative():
    metrics = MetricsRegistry()
    history = MetricsHistory(metrics, capacity=8)
    counter = metrics.counter("requests", node="s1")
    counter.inc(10)
    history.sample(1.0)
    # A rebuilt registry (e.g. after ``spawn_empty``) restarts from zero:
    # the next delta must clamp at 0, never go negative.
    fresh = MetricsRegistry()
    fresh.counter("requests", node="s1").inc(3)
    history._metrics = fresh
    history.sample(2.0)
    key = MetricsHistory.series_key("requests", {"node": "s1"})
    assert history.series(key) == [[1.0, 10.0], [2.0, 0.0]]


def test_history_gauges_and_histograms_and_capacity_bound():
    metrics = MetricsRegistry()
    history = MetricsHistory(metrics, capacity=3)
    gauge = metrics.gauge("depth", node="s1")
    metrics.histogram("lat", node="s1").record(0.5)
    for tick in range(5):
        gauge.set(tick)
        history.sample(float(tick))
    gauge_key = MetricsHistory.series_key("depth", {"node": "s1"})
    # Ring capacity: only the newest 3 points survive.
    assert history.series(gauge_key) == [[2.0, 2.0], [3.0, 3.0],
                                         [4.0, 4.0]]
    hist_key = MetricsHistory.series_key("lat", {"node": "s1"})
    last = history.series(hist_key)[-1]
    assert last[0] == 4.0 and last[1] == pytest.approx(0.5, rel=0.1)
    assert last[3] == 1          # count rides along
    snapshot = history.snapshot()
    assert snapshot["series"][gauge_key]["kind"] == "gauge"
    assert snapshot["series"][hist_key]["labels"] == {"node": "s1"}
    json.dumps(snapshot)         # the /metrics/history body is plain data


# ---------------------------------------------------------------------------
# TelemetryPlane on a running system
# ---------------------------------------------------------------------------

def deploy(**telemetry_overrides):
    return build_client_server(
        style=ReplicationStyle.ACTIVE, server_replicas=2, state_size=100,
        warmup=0.3, telemetry=TelemetryConfig(**telemetry_overrides))


def test_plane_polls_queue_depth_gauges_and_samples_series():
    system = deploy(sample_interval=0.1).system
    snapshot = system.telemetry.history.snapshot()
    series = snapshot["series"]
    named = {key.split("{", 1)[0] for key in series}
    assert {"totem.send_queue_depth", "totem.retransmit_buffer",
            "totem.partial_count", "replica.outstanding_invocations",
            "replica.enqueued_messages", "node.alive",
            "replica.operational", "group.members"} <= named
    # The sampler ran repeatedly during the warmup …
    key = MetricsHistory.series_key("totem.send_queue_depth", {"node": "s1"})
    assert len(series[key]["points"]) >= 2
    # … and the history keeps a dead node's past after the poll retires
    # its live series.
    system.kill_node("s1")
    system.run_for(0.5)
    assert len(system.telemetry.history.series(key)) >= 2


TOP_HEADERS = [header for header, _, _ in telemetry._TOP_COLUMNS]
#: The ``top`` columns :meth:`TelemetryPlane.poll` sets.
QUEUE_COLUMNS = ("sendq", "held", "reasm", "pend-op", "recovq", "bulk")
#: The ``top`` columns read off lifetime histograms nothing retires.
LIFETIME_COLUMNS = ("rot p50 ms", "tok-rtt ms")


def top_rows(system):
    """``{node: {column: cell}}`` of the ``top`` table's node rows."""
    rows = {}
    for line in render_top(system.telemetry.history.snapshot()).splitlines():
        node, *row = line.split()
        if len(row) == len(TOP_HEADERS):
            rows[node] = dict(zip(TOP_HEADERS, row))
    return rows


def live_series(system, node):
    """The registry's series labelled ``node`` (after one poll)."""
    system.telemetry.poll()
    return {name: metric.value for name, labels, metric
            in system.metrics.find() if labels.get("node") == node
            and metric.kind == "gauge"}


def test_dead_nodes_gauges_are_retired_at_the_next_poll():
    system = deploy().system
    system.metrics.gauge("totem.send_queue_depth", node="s2").set(6)
    system.telemetry.sample_now()
    # while alive, s2 shows its token interarrival (the rotation span is
    # the ring leader's, c1's)
    assert top_rows(system)["s2"]["tok-rtt ms"] != "-"
    system.kill_node("s2")
    assert live_series(system, "s2") == {"node.alive": 0}
    # top shows the dead node without its last queue depths, and without
    # the lifetime latencies of its previous life
    system.telemetry.sample_now()
    cells = top_rows(system)["s2"]
    assert [cells[column] for column in QUEUE_COLUMNS] == ["-"] * 6
    assert [cells[column] for column in LIFETIME_COLUMNS] == ["-"] * 2
    cells = top_rows(system)["c1"]
    assert "-" not in [cells[column] for column in LIFETIME_COLUMNS]


def test_a_removed_replicas_gauges_are_retired():
    deployment = deploy()
    system = deployment.system
    assert "replica.operational" in live_series(system, "s2")
    system.replication_manager.remove_member("store", "s2")
    system.run_for(0.3)
    assert not [name for name in live_series(system, "s2")
                if name.startswith("replica.")]


def test_bulk_store_entries_gauge_reads_the_lane():
    system = deploy().system
    bulk = system.mechanisms("s1").recovery.bulk
    bulk.store.stash("probe", "store", b"x" * 2048, 1024)
    system.telemetry.poll()
    assert bulk.snapshot()["store_entries"] == 1
    assert system.metrics.gauge("bulk.store_entries",
                                node="s1").value == 1


def test_per_ring_top_rows_show_queue_depths():
    from repro.apps.kvstore import make_kvstore_factory
    from repro.ftcorba.properties import FTProperties
    from repro.simnet.sharded import ShardedEternalSystem

    system = ShardedEternalSystem(rings=2)
    assert system.wait_for(system.ring_formed, timeout=10.0)
    for name, sub in system.rings.items():
        nodes = [f"{name}.s1", f"{name}.s2"]
        sub.register_factory("IDL:repro/KvStore:1.0",
                             make_kvstore_factory(1_000), nodes=nodes)
        system.create_group(f"store.{name}", "IDL:repro/KvStore:1.0",
                            FTProperties(initial_replicas=2), nodes=nodes)
    system.run_for(0.5)
    rows = {line.split()[0]: line.split()[1:] for line in render_top(
        system.telemetry.history.snapshot()).splitlines()[2:-1]
        if not line.startswith("-")}
    for ring in ("r0", "r1"):
        cells = dict(zip(TOP_HEADERS, rows[f"ring={ring}"]))
        assert [column for column in QUEUE_COLUMNS
                if cells[column] == "-"] == [], ring


def test_disabled_plane_neither_rings_nor_samples():
    system = deploy(enabled=False).system
    assert system.telemetry.flight._rings == {}
    assert system.telemetry.history.snapshot() == {"series": {}}


def test_kill_produces_flight_dump_with_recent_context():
    deployment = deploy()
    system = deployment.system
    system.run_for(0.2)
    system.kill_node("s2")
    dumps = [d for d in system.telemetry.flight.dumps if d.node == "s2"]
    assert dumps and dumps[-1].reason == "crash"
    categories = {r.category for r in dumps[-1].records}
    assert "replication" in categories     # causal stream pre-crash
    assert ("fault", "crash") in {(r.category, r.event)
                                  for r in dumps[-1].records}


def test_render_top_tabulates_latest_sample_per_node():
    system = deploy().system
    out = render_top(system.telemetry.history.snapshot())
    lines = out.splitlines()
    assert "node" in lines[0] and "sendq" in lines[0]
    nodes = {line.split()[0] for line in lines[2:-1]}
    assert {"s1", "s2"} <= nodes
    assert "latest sample at" in lines[-1]


def test_render_top_on_empty_snapshot():
    assert render_top({"series": {}}).count("\n") == 1     # header + rule


# ---------------------------------------------------------------------------
# Crash hooks
# ---------------------------------------------------------------------------

def make_plane(**overrides):
    tracer = Tracer()
    tracer.bind_clock(lambda: 0.0)
    return TelemetryPlane(TelemetryConfig(**overrides), tracer=tracer,
                          metrics=MetricsRegistry(),
                          clock=lambda: 0.0), tracer


def test_crash_hooks_dump_once_on_exception_and_uninstall_restores():
    plane, tracer = make_plane()
    tracer.emit("replica", "executed", node="s1")
    seen = []
    previous_hook = sys.excepthook
    chained = []

    def recorder_hook(*exc):
        chained.append(exc)

    sys.excepthook = recorder_hook
    try:
        uninstall = install_crash_hooks(plane, on_dump=seen.extend)
        assert sys.excepthook is not recorder_hook
        sys.excepthook(ValueError, ValueError("boom"), None)
        assert [d.reason for d in seen] == ["exception"]
        assert chained, "previous excepthook must still run"
        # Second trigger: already dumped, no duplicates.
        sys.excepthook(ValueError, ValueError("again"), None)
        assert len(seen) == 1
        uninstall()
        assert sys.excepthook is recorder_hook
    finally:
        sys.excepthook = previous_hook


def test_uninstall_before_any_dump_suppresses_atexit_dump():
    plane, tracer = make_plane()
    tracer.emit("replica", "executed", node="s1")
    seen = []
    previous_hook = sys.excepthook
    try:
        uninstall = install_crash_hooks(plane, on_dump=seen.extend)
        uninstall()
        assert sys.excepthook is previous_hook
        # The hooks treat the orderly uninstall as "already dumped":
        # nothing fired, and a later atexit pass will not dump either.
        assert seen == []
        assert plane.flight.dumps == []
    finally:
        sys.excepthook = previous_hook
