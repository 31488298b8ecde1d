"""Integration: the out-of-band bulk lane under faults (recovery §5.1).

Large-state recovery ships checkpoint pages over the point-to-point bulk
lane while the totally ordered ``set_state`` carries only a page manifest.
These tests exercise the degraded modes end to end on the simulator:

* a sponsor dies mid-stripe and the target restripes onto survivors,
* every bulk frame is dropped on the floor and the target falls back to
  the paper's in-order full transfer (re-announce without ``bulk_ok``),
* small states and ``bulk_lane=False`` never engage the lane at all.

All fault scenarios run under ``strict_audit`` so the post-recovery
state digests are checked against the survivors.
"""

import pytest

from repro.bench.deployments import build_client_server, measure_recovery
from repro.core import bulk
from repro.core.config import EternalConfig
from repro.ftcorba.properties import ReplicationStyle
from repro.totem.wire import BulkFetch, BulkNack, BulkPage

LARGE = 256 * 1024          # well above bulk_min_bytes


def deploy(*, state_size=LARGE, server_replicas=4, eternal_config=None):
    return build_client_server(
        style=ReplicationStyle.ACTIVE,
        server_replicas=server_replicas,
        state_size=state_size,
        checkpoint_interval=0.5,
        eternal_config=eternal_config,
        warmup=0.2,
    )


def counters(deployment):
    return deployment.system.tracer.counters


def bulk_fetches(deployment):
    """Completed ``recovery.bulk`` spans: out-of-band fetches of a
    manifest's pages."""
    return sum(metric.count for _, _, metric
               in deployment.system.metrics.find("span.recovery.bulk"))


def bulk_fetch_open(deployment):
    return any(span.endswith("/bulk")
               for span in deployment.system.tracer.open_spans)


def records(deployment, category, event, **fields):
    """Every later ``category.event`` record with ``fields``."""
    seen = []

    def note(record):
        if (record.category == category and record.event == event
                and all(record.fields.get(k) == v
                        for k, v in fields.items())):
            seen.append(record)
    deployment.system.tracer.subscribe(note)
    return seen


def test_large_state_recovery_uses_bulk_lane(strict_audit):
    dep = deploy()
    measure_recovery(dep, "s1")
    c = counters(dep)
    assert bulk_fetches(dep) >= 1
    assert c.get("bulk.session_complete", 0) == 1
    assert c.get("bulk.oob.bytes", 0) > 0
    dep.system.run_for(0.3)
    assert (dep.server_servant("s1").get_state()
            == dep.server_servant("s2").get_state())


def tight_retransmit_budget(monkeypatch):
    monkeypatch.setattr(bulk, "RETRANSMIT_TIMEOUT", 0.01)
    monkeypatch.setattr(bulk, "MAX_RETRIES", 1)


def test_sponsor_death_mid_stripe_restripes_to_survivors(strict_audit,
                                                         monkeypatch):
    # A tight retransmit budget makes the bulk watchdog outrace the fault
    # detector: the dead sponsor is dropped from the session and its pages
    # restriped long before the membership change propagates.
    tight_retransmit_budget(monkeypatch)
    dep = deploy()
    system = dep.system
    dropped = records(dep, "bulk", "sponsor_dropped")
    system.kill_node("s1")
    system.run_for(0.05)
    system.restart_node("s1")
    assert system.wait_for(lambda: bulk_fetch_open(dep), timeout=5.0)
    system.kill_node("s2")                  # a sponsor, mid-stripe
    assert system.wait_for(
        lambda: dep.server_group.is_operational_on("s1"), timeout=10.0)
    c = counters(dep)
    assert c.get("bulk.sponsor_dropped", 0) >= 1
    assert any(r.fields["survivors"] > 0 for r in dropped)   # restriped
    assert c.get("bulk.session_complete", 0) >= 1
    system.run_for(0.3)
    assert (dep.server_servant("s1").get_state()
            == dep.server_servant("s3").get_state())


def test_all_bulk_frames_dropped_falls_back_to_inorder(strict_audit,
                                                      monkeypatch):
    tight_retransmit_budget(monkeypatch)
    dep = deploy()
    fallbacks = records(dep, "span", "span_end", outcome="bulk_fallback")
    dep.system.network.add_filter(
        lambda src, dst, payload, size: isinstance(
            payload, (BulkFetch, BulkPage, BulkNack)))
    recovery_time = measure_recovery(dep, "s1")
    assert recovery_time < 5.0
    c = counters(dep)
    assert c.get("bulk.session_failed", 0) >= 1
    assert len(fallbacks) >= 1          # re-announced without the lane
    assert c.get("bulk.session_complete", 0) == 0
    dep.system.run_for(0.3)
    assert (dep.server_servant("s1").get_state()
            == dep.server_servant("s2").get_state())


def test_small_state_stays_in_order():
    dep = deploy(state_size=2_000, server_replicas=2)
    measure_recovery(dep, "s1")
    assert bulk_fetches(dep) == 0 and not bulk_fetch_open(dep)
    assert counters(dep).get("bulk.oob.bytes", 0) == 0


def test_bulk_lane_disabled_by_config():
    dep = deploy(eternal_config=EternalConfig(bulk_lane=False))
    recovery_time = measure_recovery(dep, "s1")
    assert recovery_time < 1.0
    assert counters(dep).get("bulk.oob.bytes", 0) == 0
