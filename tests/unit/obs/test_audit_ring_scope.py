"""Auditor ring scoping: every shadow structure is keyed by the shard.

In a sharded deployment each ring is an independent ordering domain, so
invariant evidence is only comparable *within* a ring: two rings will
legitimately produce different order digests for the same (cfg, seq)
coordinates, re-use the same request ids, and run recoveries with
colliding transfer ids.  These tests feed the auditor synthetic
multi-ring streams (via ``ScopedTracer`` views, exactly how sharded
sub-systems emit) and assert that cross-ring coincidences never produce
findings — while a genuine divergence inside one ring is still caught
and names that ring.
"""

from repro.obs.audit import (
    DUPLICATE_DELIVERY,
    ORDER_DIGEST,
    STATE_DIGEST,
    ConsistencyAuditor,
    state_digest,
)
from repro.runtime.trace import Tracer


def make_sharded_stream():
    """One shared tracer + auditor, with per-ring scoped views — the
    wiring ShardedEternalSystem gives each sub-system."""
    tracer = Tracer(keep_records=True)
    clock = {"now": 0.0}
    tracer.bind_clock(lambda: clock["now"])
    auditor = ConsistencyAuditor().bind(tracer)
    ring_a = tracer.scoped(ring="rA")
    ring_b = tracer.scoped(ring="rB")
    return ring_a, ring_b, auditor


# ---------------------------------------------------------------------------
# order-digest
# ---------------------------------------------------------------------------

def test_same_order_coordinates_in_different_rings_never_compared():
    """(cfg, base, seq) collide across rings by construction — every
    ring starts its sequence numbers from the same place."""
    ring_a, ring_b, auditor = make_sharded_stream()
    ring_a.emit("audit", "order_digest", node="rA.s1", cfg="7:abcd1234",
                base=0, seq=32, digest="11111111")
    ring_b.emit("audit", "order_digest", node="rB.s1", cfg="7:abcd1234",
                base=0, seq=32, digest="22222222")
    assert auditor.finish() == []


def test_divergence_inside_one_ring_is_caught_and_names_the_ring():
    ring_a, ring_b, auditor = make_sharded_stream()
    # rB agrees with itself at the same coordinates — must stay clean.
    for node in ("rB.s1", "rB.s2"):
        ring_b.emit("audit", "order_digest", node=node, cfg="7:abcd1234",
                    base=0, seq=32, digest="feedface")
    ring_a.emit("audit", "order_digest", node="rA.s1", cfg="7:abcd1234",
                base=0, seq=32, digest="11111111")
    ring_a.emit("audit", "order_digest", node="rA.s2", cfg="7:abcd1234",
                base=0, seq=32, digest="deadbeef")
    (finding,) = auditor.findings
    assert finding.invariant == ORDER_DIGEST
    assert finding.ring == "rA"
    assert finding.node == "rA.s2"


def test_finding_in_one_ring_does_not_poison_the_other():
    """After a finding in rA, rB's shadow state must be untouched: its
    own agreeing digests at the same coordinates still pass."""
    ring_a, ring_b, auditor = make_sharded_stream()
    ring_a.emit("audit", "order_digest", node="rA.s1", cfg="7:abcd1234",
                base=0, seq=32, digest="11111111")
    ring_a.emit("audit", "order_digest", node="rA.s2", cfg="7:abcd1234",
                base=0, seq=32, digest="diverged")
    assert len(auditor.findings) == 1
    for node in ("rB.s1", "rB.s2"):
        ring_b.emit("audit", "order_digest", node=node, cfg="7:abcd1234",
                    base=0, seq=32, digest="33333333")
    assert len(auditor.findings) == 1        # still only rA's
    assert all(f.ring == "rA" for f in auditor.findings)


# ---------------------------------------------------------------------------
# state-digest
# ---------------------------------------------------------------------------

def test_colliding_transfer_ids_across_rings_never_compared():
    ring_a, ring_b, auditor = make_sharded_stream()
    ring_a.emit("audit", "state_digest", node="rA.s1", group="store",
                transfer="rec:store:x:e0:1", role="responder",
                digest=state_digest(b"ring A state"))
    ring_b.emit("audit", "state_digest", node="rB.s1", group="store",
                transfer="rec:store:x:e0:1", role="responder",
                digest=state_digest(b"ring B state"))
    assert auditor.finish() == []


def test_state_divergence_names_the_ring():
    ring_a, _, auditor = make_sharded_stream()
    ring_a.emit("audit", "state_digest", node="rA.s1", group="store",
                transfer="rec:store:x:e0:1", role="responder",
                digest=state_digest(b"good"))
    ring_a.emit("audit", "state_digest", node="rA.s2", group="store",
                transfer="rec:store:x:e0:1", role="responder",
                digest=state_digest(b"bad"))
    (finding,) = auditor.findings
    assert finding.invariant == STATE_DIGEST
    assert finding.ring == "rA"
    assert "ring=rA" in str(finding)


# ---------------------------------------------------------------------------
# duplicate-delivery
# ---------------------------------------------------------------------------

def test_request_id_reuse_across_rings_is_not_a_duplicate():
    """Bridged traffic aside, connections in different rings allocate
    request ids independently — identical (conn, request_id, kind)
    delivered once per ring is normal operation."""
    ring_a, ring_b, auditor = make_sharded_stream()
    for view, node in ((ring_a, "rA.s1"), (ring_b, "rB.s1")):
        view.emit("replication", "delivered", node=node, group="store",
                  conn="drv->store", request_id=7, kind="REQUEST")
    assert auditor.finish() == []


def test_double_delivery_inside_a_ring_is_still_caught():
    ring_a, _, auditor = make_sharded_stream()
    for _ in range(2):
        ring_a.emit("replication", "delivered", node="rA.s1", group="store",
                    conn="drv->store", request_id=7, kind="REQUEST")
    (finding,) = auditor.findings
    assert finding.invariant == DUPLICATE_DELIVERY
    assert finding.ring == "rA"
