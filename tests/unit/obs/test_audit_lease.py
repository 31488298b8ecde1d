"""Unit tests for the lease-window audit rule (synthetic streams).

The auditor shadows the leader-lease read fast path
(:mod:`repro.core.readfast`): every ``lease.read_served`` event must fall
inside the serving node's *installed* Totem ring.  Each test below feeds
a hand-built record stream straight into a live auditor and checks one
branch of the rule.
"""

from repro.obs.audit import LEASE_WINDOW, ConsistencyAuditor
from repro.runtime.trace import Tracer


def make_stream():
    tracer = Tracer(keep_records=True)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    auditor = ConsistencyAuditor().bind(tracer)
    return tracer, auditor, clock


def _install(tracer, node, ring_id, members):
    tracer.emit("totem", "install", node=node, ring_id=ring_id,
                members=tuple(members))


def _serve(tracer, node, ring_id, group="store"):
    tracer.emit("lease", "read_served", node=node, ring_id=ring_id,
                group=group, conn="c", request_id=1)


def test_serve_inside_installed_ring_passes():
    tracer, auditor, _ = make_stream()
    _install(tracer, "s1", 2, ["s1", "s2"])
    _serve(tracer, "s1", 2)
    assert auditor.findings == []


def test_serve_during_gather_flagged():
    tracer, auditor, _ = make_stream()
    _install(tracer, "s1", 2, ["s1", "s2"])
    tracer.emit("totem", "gather", node="s1")
    _serve(tracer, "s1", 2)
    (finding,) = auditor.findings
    assert finding.invariant == LEASE_WINDOW
    assert "GATHER" in finding.detail


def test_serve_under_stale_ring_flagged():
    tracer, auditor, _ = make_stream()
    _install(tracer, "s1", 2, ["s1", "s2"])
    _install(tracer, "s1", 3, ["s1", "s2"])
    _serve(tracer, "s1", 2)
    (finding,) = auditor.findings
    assert finding.invariant == LEASE_WINDOW
    assert "installed ring is 3" in finding.detail


def test_serve_by_node_outside_its_ring_flagged():
    tracer, auditor, _ = make_stream()
    _install(tracer, "s1", 2, ["s2", "s3"])
    _serve(tracer, "s1", 2)
    (finding,) = auditor.findings
    assert finding.invariant == LEASE_WINDOW
    assert "outside its own ring" in finding.detail


def test_newer_ring_excluding_server_revokes_lease():
    # Cross-node evidence: the server's own install was never observed,
    # but a survivor installed a newer ring that excludes it — its lease
    # was revoked when that ring became operational.
    tracer, auditor, _ = make_stream()
    _install(tracer, "s2", 5, ["s2", "s3"])
    _serve(tracer, "s1", 4)
    (finding,) = auditor.findings
    assert finding.invariant == LEASE_WINDOW
    assert "ring 5" in finding.detail


def test_newer_ring_including_server_is_no_evidence():
    # A newer ring that still contains the server proves nothing about
    # *when* the serve happened relative to the transition; the rule only
    # fires on exclusion.
    tracer, auditor, _ = make_stream()
    _install(tracer, "s2", 5, ["s1", "s2", "s3"])
    _serve(tracer, "s1", 4)
    assert auditor.findings == []
