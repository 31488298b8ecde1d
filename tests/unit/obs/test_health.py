"""Unit tests for the Prometheus-style health exposition."""

import pytest

from repro.bench.deployments import build_client_server
from repro.ftcorba.properties import ReplicationStyle
from repro.obs.health import parse_exposition, render_health


def deploy():
    return build_client_server(style=ReplicationStyle.ACTIVE,
                               server_replicas=2, state_size=100,
                               warmup=0.2, keep_trace_records=True)


# ---------------------------------------------------------------------------
# The parser (pins the exposition format)
# ---------------------------------------------------------------------------

def test_parse_plain_and_labelled_series():
    text = ('up 1\n'
            '# a comment\n'
            '\n'
            'lat{node="s1",quantile="0.95"} 2.5\n')
    assert parse_exposition(text) == [
        ("up", {}, 1.0),
        ("lat", {"node": "s1", "quantile": "0.95"}, 2.5),
    ]


def test_parse_unescapes_label_values():
    text = 'm{k="a\\"b\\\\c\\nd"} 0\n'
    ((_, labels, _),) = parse_exposition(text)
    assert labels["k"] == 'a"b\\c\nd'


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_exposition("not a metric line at all !\n")


# ---------------------------------------------------------------------------
# The renderer on a live system
# ---------------------------------------------------------------------------

def test_every_line_parses_and_core_series_present():
    deployment = deploy()
    system = deployment.system
    text = render_health(system)
    series = {(name, tuple(sorted(labels.items()))): value
              for name, labels, value in parse_exposition(text)}

    for node in ("m", "c1", "s1", "s2"):
        assert series[("eternal_node_alive", (("node", node),))] == 1.0
    for node in ("s1", "s2"):
        key = (("group", "store"), ("node", node))
        assert series[("eternal_replica_operational", key)] == 1.0
    assert series[("eternal_group_members", (("group", "store"),))] == 2.0
    assert series[("eternal_group_operational_members",
                   (("group", "store"),))] == 2.0


def test_dead_node_and_degraded_group_reflected():
    deployment = deploy()
    system = deployment.system
    system.kill_node("s2")
    system.run_for(0.3)
    parsed = parse_exposition(render_health(system))
    by_name = {}
    for name, labels, value in parsed:
        by_name.setdefault(name, []).append((labels, value))
    alive = {labels["node"]: value
             for labels, value in by_name["eternal_node_alive"]}
    assert alive["s2"] == 0.0 and alive["s1"] == 1.0
    # the dead node exports no replica series
    assert all(labels["node"] != "s2"
               for labels, _ in by_name["eternal_replica_operational"])


def test_audit_section_present_when_auditor_attached():
    deployment = deploy()
    system = deployment.system
    system.attach_auditor()
    system.run_for(0.2)
    system.auditor.finish()
    parsed = parse_exposition(render_health(system))
    values = {name: value for name, labels, value in parsed if not labels}
    assert values["eternal_audit_ok"] == 1.0
    assert values["eternal_audit_records_scanned"] > 0
    assert values["eternal_audit_findings_total"] == 0.0


def test_metrics_registry_histograms_render_as_quantile_series():
    deployment = deploy()
    system = deployment.system
    system.metrics.histogram("span.demo", node="s1").record(0.25)
    parsed = parse_exposition(render_health(system))
    quantiles = {labels["quantile"]: value
                 for name, labels, value in parsed
                 if name == "eternal_span_demo"}
    assert set(quantiles) == {"0.5", "0.95", "0.99"}
    assert quantiles["0.5"] == pytest.approx(0.25, rel=0.05)
    counts = [value for name, labels, value in parsed
              if name == "eternal_span_demo_count"]
    assert counts == [1.0]


def test_fault_detector_strikes_exported():
    deployment = deploy()
    system = deployment.system
    parsed = parse_exposition(render_health(system))
    strikes = [(labels, value) for name, labels, value in parsed
               if name == "eternal_fault_detector_strikes"]
    assert strikes, "expected fault-detector series on hosting nodes"
    assert all(value == 0.0 for _, value in strikes)


def test_totem_partial_count_gauge_exported():
    deployment = deploy()
    text = render_health(deployment.system)
    series = {(name, tuple(sorted(labels.items()))): value
              for name, labels, value in parse_exposition(text)}
    nodes = [node for node in deployment.system.stacks
             if deployment.system.stacks[node].process.alive]
    for node in nodes:
        key = ("eternal_totem_partial_count", (("node", node),))
        assert key in series
        assert series[key] == 0     # quiescent system: nothing mid-reassembly


def test_bulk_lane_gauges_and_counters_round_trip():
    """The bulk lane's store gauge shows on every hosting node and the
    whole snapshot still parses; the tracer's lane counters (what the
    recovery-scale bench reads) show the transfer ran out of band."""
    from repro.bench.deployments import measure_recovery

    deployment = build_client_server(style=ReplicationStyle.ACTIVE,
                                     server_replicas=2,
                                     state_size=256 * 1024, warmup=0.2)
    measure_recovery(deployment, "s1")
    text = render_health(deployment.system)
    series = {(name, tuple(sorted(labels.items()))): value
              for name, labels, value in parse_exposition(text)}

    # gauges: present for every replica-hosting node, and the lane is
    # quiescent after recovery completed
    for node in ("s1", "s2"):
        assert (("eternal_bulk_store_entries", (("node", node),))
                in series)
        lane = deployment.system.mechanisms(node).recovery.bulk.snapshot()
        assert lane["sessions_active"] == lane["stripes_in_flight"] == 0

    counters = deployment.system.tracer.counters
    fetches = sum(metric.count for _, _, metric
                  in deployment.system.metrics.find("span.recovery.bulk"))
    assert fetches == 1
    assert counters["bulk.session_complete"] == 1
    # Only the manifest travelled in order, not the 256 kB state.
    assert counters.get("bulk.inorder.bytes", 0) < 256 * 1024
    assert counters["bulk.oob.bytes"] >= 256 * 1024


def test_no_series_appears_twice_and_each_quantity_has_one_name():
    """One reader, one prefix: every (name, labels) pair is unique, and
    the quantities the poll and the old health walk both exported appear
    under the health name only."""
    from repro.bench.deployments import measure_recovery

    deployment = deploy()
    deployment.system.attach_auditor()
    measure_recovery(deployment, "s2")
    parsed = parse_exposition(render_health(deployment.system))
    pairs = [(name, tuple(sorted(labels.items())))
             for name, labels, _ in parsed]
    assert len(pairs) == len(set(pairs))
    names = {name for name, _ in pairs}
    assert {"eternal_totem_partial_count",
            "eternal_replica_outstanding_invocations",
            "eternal_replica_enqueued_messages", "eternal_audit_ok",
            "eternal_bulk_store_entries"} <= names
    assert [name for name in names
            if not name.startswith("eternal_")] == []
    assert not names & {"eternal_totem_reassembly_pending",
                        "eternal_eternal_outstanding_invocations",
                        "eternal_eternal_recovery_queue_depth",
                        "eternal_bulk_store_depth"}


def test_store_gauges_round_trip():
    """Per-node, per-group durable-store gauges render and parse; the
    fsync-latency histogram appears once real fsyncs happened (journal
    backend only, so here just the counter-style gauges)."""
    from repro.store.memory import MemoryStore

    deployment = build_client_server(
        style=ReplicationStyle.ACTIVE, server_replicas=2, state_size=4_000,
        checkpoint_interval=0.1, warmup=0.3,
        store_factory=lambda node_id: MemoryStore())
    text = render_health(deployment.system)
    series = {(name, tuple(sorted(labels.items()))): value
              for name, labels, value in parse_exposition(text)}

    for node in ("s1", "s2"):
        key = (("group", "store"), ("node", node))
        assert series[("eternal_store_bytes", key)] > 0
        assert series[("eternal_store_checkpoints_written", key)] >= 1.0
        assert ("eternal_store_pending_messages", key) in series
        assert ("eternal_store_segments", key) in series


def test_store_section_absent_without_stores():
    text = render_health(deploy().system)
    assert "eternal_store_" not in text


def test_store_gauges_cover_every_ring_of_a_sharded_facade():
    """A sharded facade merges its rings' durable stores the way it merges
    their stacks, so health renders every node's store gauges."""
    from repro.apps.kvstore import make_kvstore_factory
    from repro.ftcorba.properties import FTProperties
    from repro.simnet.sharded import ShardedEternalSystem
    from repro.store.memory import MemoryStore

    system = ShardedEternalSystem(
        rings=2, store_factory=lambda node_id: MemoryStore())
    assert system.wait_for(system.ring_formed, timeout=10.0)
    replicas = {}
    for name, sub in system.rings.items():
        replicas[name] = [f"{name}.s1", f"{name}.s2"]
        sub.register_factory("IDL:repro/KvStore:1.0",
                             make_kvstore_factory(4_000),
                             nodes=replicas[name])
        system.create_group(f"store.{name}", "IDL:repro/KvStore:1.0",
                            FTProperties(initial_replicas=2,
                                         checkpoint_interval=0.1),
                            nodes=replicas[name])
    system.run_for(0.5)
    series = {(name, tuple(sorted(labels.items()))): value
              for name, labels, value
              in parse_exposition(render_health(system))}

    for name, nodes in replicas.items():
        for node in nodes:
            key = (("group", f"store.{name}"), ("node", node))
            assert series[("eternal_store_checkpoints_written", key)] >= 1.0
            assert series[("eternal_store_bytes", key)] > 0
