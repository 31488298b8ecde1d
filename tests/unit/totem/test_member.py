"""Unit/behaviour tests for the Totem ring member state machine."""

from dataclasses import replace

import pytest

from repro.errors import NotInRing, TotemError
from repro.obs.audit import ConsistencyAuditor
from repro.runtime.trace import NULL_TRACER, Tracer
from repro.simnet.endpoint import Endpoint
from repro.simnet.faults import FaultInjector
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.totem.config import TotemConfig
from repro.totem import member as member_module
from repro.totem.member import (TOKEN_PROCESSING_TIME, MemberState,
                                TotemMember)
from repro.totem.messages import (DataMsg, FormMsg, HoldCancel, JoinMsg,
                                  Token)


class Ring:
    """A small harness around N ring members."""

    def __init__(self, node_ids=("A", "B", "C"), config=None, seed=0,
                 tracer=NULL_TRACER):
        self.scheduler = Scheduler()
        self.tracer = tracer
        if tracer is not NULL_TRACER:
            tracer.bind_clock(lambda: self.scheduler.now)
        self.network = Network(self.scheduler)
        self.faults = FaultInjector(self.network, seed=seed)
        self.config = config or TotemConfig()
        self.delivered = {n: [] for n in node_ids}
        self.views = {n: [] for n in node_ids}
        self.members = {}
        for node_id in node_ids:
            self._spawn(node_id)

    def _spawn(self, node_id, process=None):
        process = process or Process(self.scheduler, node_id)
        endpoint = Endpoint(process, self.network)
        self.members[node_id] = TotemMember(
            endpoint, self.config, tracer=self.tracer,
            on_deliver=lambda origin, payload, n=node_id:
                self.delivered[n].append((origin, payload)),
            on_view_change=lambda view, n=node_id:
                self.views[n].append(view),
        )
        return self.members[node_id]

    def respawn(self, node_id):
        """Re-launch a crashed node with a fresh (history-less) member."""
        process = self.network.process(node_id)
        process.restart()
        return self._spawn(node_id, process)

    def run(self, duration):
        self.scheduler.run_until(self.scheduler.now + duration)

    def all_operational(self, node_ids=None):
        nodes = node_ids or list(self.members)
        return all(self.members[n].operational for n in nodes)


def test_ring_forms_from_cold_start():
    ring = Ring()
    ring.run(0.1)
    assert ring.all_operational()
    views = {ring.members[n].view for n in ring.members}
    assert len(views) == 1
    assert set(next(iter(views)).members) == {"A", "B", "C"}


def test_single_node_ring():
    ring = Ring(node_ids=("solo",))
    ring.run(0.1)
    member = ring.members["solo"]
    assert member.operational
    member.multicast(b"note")
    ring.run(0.1)
    assert ring.delivered["solo"] == [("solo", b"note")]


def test_multicast_delivered_to_all_in_same_order():
    ring = Ring()
    ring.run(0.1)
    ring.members["A"].multicast(b"1")
    ring.members["B"].multicast(b"2")
    ring.members["C"].multicast(b"3")
    ring.members["A"].multicast(b"4")
    ring.run(0.2)
    sequences = [ring.delivered[n] for n in "ABC"]
    assert sequences[0] == sequences[1] == sequences[2]
    assert len(sequences[0]) == 4


def test_sender_receives_own_message():
    ring = Ring()
    ring.run(0.1)
    ring.members["A"].multicast(b"self")
    ring.run(0.1)
    assert ("A", b"self") in ring.delivered["A"]


def test_large_message_fragments_and_reassembles():
    ring = Ring()
    ring.run(0.1)
    payload = bytes(range(256)) * 40   # > 6 fragments
    ring.members["A"].multicast(payload)
    ring.run(0.2)
    for node_id in "ABC":
        assert ring.delivered[node_id] == [("A", payload)]


def test_multicast_before_ring_forms_is_queued():
    ring = Ring()
    ring.members["A"].multicast(b"early")
    ring.run(0.2)
    for node_id in "ABC":
        assert ring.delivered[node_id] == [("A", b"early")]


def test_crash_triggers_reformation_without_victim():
    ring = Ring()
    ring.run(0.1)
    ring.faults.crash("C")
    ring.run(0.2)
    assert ring.all_operational(["A", "B"])
    assert set(ring.members["A"].view.members) == {"A", "B"}
    assert ring.members["A"].view == ring.members["B"].view


def test_delivery_continues_after_crash():
    ring = Ring()
    ring.run(0.1)
    ring.faults.crash("C")
    ring.run(0.2)
    ring.members["A"].multicast(b"post")
    ring.run(0.1)
    assert ("A", b"post") in ring.delivered["A"]
    assert ("A", b"post") in ring.delivered["B"]


def test_fresh_rejoin_skips_old_traffic():
    ring = Ring()
    ring.run(0.1)
    ring.members["A"].multicast(b"before")
    ring.run(0.1)
    ring.faults.crash("C")
    ring.run(0.2)
    pre_crash = list(ring.delivered["C"])
    ring.respawn("C")
    ring.run(0.3)
    assert ring.members["C"].operational
    assert ring.delivered["C"] == pre_crash   # no replay of old traffic
    ring.members["B"].multicast(b"after")
    ring.run(0.1)
    assert ("B", b"after") in ring.delivered["C"]


def test_message_loss_is_repaired_by_retransmission():
    ring = Ring(seed=3)
    ring.run(0.1)
    ring.faults.set_loss_rate(0.15)
    for i in range(30):
        ring.members["A"].multicast(bytes([i]))
    ring.run(1.0)
    ring.faults.set_loss_rate(0.0)
    ring.run(0.5)
    for node_id in "ABC":
        assert [p for _, p in ring.delivered[node_id]] == \
            [bytes([i]) for i in range(30)]


def test_total_order_under_loss():
    ring = Ring(seed=11)
    ring.run(0.1)
    ring.faults.set_loss_rate(0.1)
    for i in range(10):
        ring.members["A"].multicast(b"A%d" % i)
        ring.members["B"].multicast(b"B%d" % i)
    ring.run(1.0)
    ring.faults.set_loss_rate(0.0)
    ring.run(0.5)
    assert ring.delivered["A"] == ring.delivered["B"] == ring.delivered["C"]
    assert len(ring.delivered["A"]) == 20


def test_view_change_notified_on_membership_change():
    ring = Ring()
    ring.run(0.1)
    initial_views = {n: len(ring.views[n]) for n in "AB"}
    ring.faults.crash("C")
    ring.run(0.3)
    for node_id in "AB":
        assert len(ring.views[node_id]) == initial_views[node_id] + 1
        assert set(ring.views[node_id][-1].members) == {"A", "B"}


def test_ring_ids_increase_across_reformations():
    ring = Ring()
    ring.run(0.1)
    first = ring.members["A"].ring_id
    ring.faults.crash("C")
    ring.run(0.3)
    assert ring.members["A"].ring_id > first


def test_ring_reformed_after_a_total_failure_is_a_new_ring():
    """Every member down at once, then re-launched: the host keeps the
    newest ring id it installed, so the re-formed ring is not ring 1 again
    and the strict auditor never sees one configuration key name two
    rings with different delivery histories."""
    tracer = Tracer(keep_records=False)
    auditor = ConsistencyAuditor().bind(tracer)
    ring = Ring(("A", "B"), tracer=tracer)
    ring.run(0.1)
    for i in range(40):
        ring.members["A"].multicast(f"before {i}".encode())
    ring.run(0.2)
    before = ring.members["A"].ring_id
    ring.faults.crash("A")
    ring.faults.crash("B")
    ring.run(0.05)
    ring.respawn("A")
    ring.respawn("B")
    ring.run(0.2)
    assert ring.all_operational()
    for i in range(40):
        ring.members["B"].multicast(f"after {i}".encode())
    ring.run(0.2)
    assert ring.members["A"].ring_id == ring.members["B"].ring_id > before
    auditor.finish(raise_on_findings=True)


def test_shutdown_member_rejects_multicast():
    ring = Ring()
    ring.run(0.1)
    ring.members["A"].shutdown()
    with pytest.raises(NotInRing):
        ring.members["A"].multicast(b"x")


def test_send_queue_overflow_guarded(monkeypatch):
    monkeypatch.setattr(member_module, "MAX_QUEUE", 5)
    ring = Ring()
    ring.run(0.1)
    ring.faults.partition([{"A"}, {"B", "C"}])   # A can't drain its queue
    # A's token is lost; it gathers forever and queues pile up
    with pytest.raises(TotemError):
        for i in range(10):
            ring.members["A"].multicast(b"x" * 10)


def test_partition_forms_two_rings():
    ring = Ring(node_ids=("A", "B", "C", "D"))
    ring.run(0.1)
    ring.faults.partition([{"A", "B"}, {"C", "D"}])
    ring.run(0.5)
    assert set(ring.members["A"].view.members) == {"A", "B"}
    assert set(ring.members["C"].view.members) == {"C", "D"}
    ring.members["A"].multicast(b"west")
    ring.members["C"].multicast(b"east")
    ring.run(0.2)
    assert ("A", b"west") in ring.delivered["B"]
    assert ("A", b"west") not in ring.delivered["C"]
    assert ("C", b"east") in ring.delivered["D"]


def test_partition_heal_remerges_ring():
    ring = Ring(node_ids=("A", "B", "C", "D"))
    ring.run(0.1)
    ring.faults.partition([{"A", "B"}, {"C", "D"}])
    ring.run(0.5)
    ring.faults.heal()
    ring.run(0.5)
    assert set(ring.members["A"].view.members) == {"A", "B", "C", "D"}
    ring.members["A"].multicast(b"joined")
    ring.run(0.2)
    assert ("A", b"joined") in ring.delivered["D"]


def test_no_spurious_retransmissions_in_steady_state():
    """The sender's own just-broadcast messages must not be treated as gaps
    (regression test for the retransmission-storm bug)."""
    from repro.runtime.trace import Tracer
    ring = Ring()
    tracer = Tracer(keep_records=False)
    tracer.bind_clock(lambda: ring.scheduler.now)
    for member in ring.members.values():
        member.tracer = tracer
    ring.run(0.1)
    for i in range(50):
        ring.members["A"].multicast(bytes([i]))
    ring.run(0.5)
    assert tracer.count("totem.retransmit") == 0


def test_rejoined_member_collects_safe_messages_from_its_join_point(
        monkeypatch):
    """Collection pops forward from a lower bound on the held sequence
    numbers; a fresh member's bound starts where it joined, not at 1."""
    monkeypatch.setattr(member_module, "RETAIN_SAFE_SLACK", 8)
    config = TotemConfig(frame_packing=False)
    ring = Ring(config=config)
    ring.run(0.1)
    for i in range(100):
        ring.members["A"].multicast(bytes([i]))
    ring.run(0.3)
    ring.faults.crash("C")
    ring.run(0.2)
    rejoined = ring.respawn("C")
    ring.delivered["C"].clear()
    ring.run(0.3)
    assert rejoined._held_low > 100
    for i in range(100):
        ring.members["B"].multicast(bytes([i]))
    ring.run(0.5)
    assert len(ring.delivered["C"]) == 100
    for member in ring.members.values():
        assert len(member._held) <= 8 + member_module.MAX_BURST + 4
        assert min(member._held) >= member._held_low


# ----------------------------------------------------------------------
# Token pacing: how long a visit keeps the token, and the retransmission
# grace that fast forwarding needs (PROTOCOL.md, "Token pacing")
# ----------------------------------------------------------------------

PACED = TotemConfig(token_hold=1e-3, token_timeout=0.25)


def _traced(ring):
    """Every member of ``ring`` traces into one record-keeping tracer."""
    tracer = Tracer()
    tracer.bind_clock(lambda: ring.scheduler.now)
    for member in ring.members.values():
        member.tracer = tracer
    return tracer


def _paced_ring(config=PACED):
    """A formed, quiet three-member ring with the live runtime's 1 ms hold,
    every member tracing into one record-keeping tracer."""
    ring = Ring(config=config)
    tracer = _traced(ring)
    ring.run(0.2)
    assert ring.all_operational()
    return ring, tracer


def _hop(ring, hold):
    """Seconds from a token receipt to the next member's, ``hold`` apart."""
    net = ring.network.config
    return (hold + net.frame_time(Token(0, 0, 0).size_bytes)
            + net.propagation_delay + net.per_frame_cpu)


def _idle_hop(ring):
    """Seconds between consecutive token visits on a quiet ring."""
    return _hop(ring, ring.config.token_hold)


def _busy_hop(ring):
    """Seconds between consecutive token visits while traffic flows."""
    return _hop(ring, TOKEN_PROCESSING_TIME)


def _hold_cancels(tracer):
    """How many ``totem.hold_cancel`` records each role has, by node."""
    roles = {"sent": [], "released": [], "noted": []}
    for record in tracer.find("totem", "hold_cancel"):
        roles[record.fields["role"]].append(record.fields["node"])
    return roles


def _times(tracer, event, since=0.0, **fields):
    return [r.time for r in tracer.find("totem", event)
            if r.time >= since
            and all(r.fields[k] == v for k, v in fields.items())]


def test_quiet_ring_keeps_the_configured_hold():
    ring, tracer = _paced_ring()
    before = tracer.count("totem.token")
    ring.run(1.0)
    visits = tracer.count("totem.token") - before
    assert abs(visits - 1.0 / _idle_hop(ring)) <= 1


def test_traffic_speeds_the_token_and_quiet_slows_it_again():
    ring, tracer = _paced_ring()
    hop = _idle_hop(ring)
    queued_at = ring.scheduler.now
    ring.members["B"].multicast(b"x")
    ring.run(0.05)
    sent_at, = _times(tracer, "frame", since=queued_at)
    delivered = _times(tracer, "deliver", since=queued_at)
    assert len(delivered) == 3
    # Nobody slept on the token B needed: the quiet hold in progress ended
    # when B queued, and every hop since was a busy one.
    assert max(delivered) - queued_at < 4 * _busy_hop(ring) < hop
    visits = _times(tracer, "token", since=sent_at)
    gaps = [b - a for a, b in zip(visits, visits[1:])]
    # A full rotation after the send moves at the processing time ...
    assert all(gap < 0.2e-3 for gap in gaps[:3])
    # ... and two quiet rotations later every hop waits token_hold again.
    assert all(gap == pytest.approx(hop) for gap in gaps[6:])
    assert len(gaps) > 12


def test_member_draining_a_backlog_keeps_the_hold():
    ring, tracer = _paced_ring()
    queued_at = ring.scheduler.now
    ring.members["B"].multicast(b"one")
    ring.members["B"].multicast(b"two")
    ring.run(0.05)
    sent_at, = _times(tracer, "frame", since=queued_at)     # one packed frame
    after = [t for t in _times(tracer, "token", since=queued_at)
             if t > sent_at]
    assert after[0] - sent_at == pytest.approx(_idle_hop(ring))
    assert after[1] - after[0] < 0.2e-3     # the next member has no backlog


def _divert_first_frame_to(ring, node_id):
    """Drop the first original data frame addressed to ``node_id``; the
    caught frame is returned through the list."""
    caught = []

    def divert(src, dst, payload, size):
        if dst == node_id and isinstance(payload, DataMsg) and not caught:
            caught.append(payload)
            return True
        return False

    ring.network.add_filter(divert)
    return caught


def test_token_ahead_of_its_frame_requests_no_retransmission():
    ring, tracer = _paced_ring()
    caught = _divert_first_frame_to(ring, "B")

    def frame_arrives_late(record):
        # B has just been visited by the token that sequenced the frame.
        if (caught and record.event == "token"
                and record.fields["node"] == "B"
                and record.fields["seq"] == caught[0].seq):
            ring.scheduler.call_after(
                30e-6, ring.members["B"].endpoint.deliver, "A", caught[0])

    tracer.subscribe(frame_arrives_late)
    ring.members["A"].multicast(b"late")
    ring.run(0.05)
    assert ring.delivered["B"] == [("A", b"late")]
    assert tracer.count("totem.retransmit") == 0


def test_dropped_frame_is_recovered_on_the_next_visit():
    ring, tracer = _paced_ring()
    queued_at = ring.scheduler.now
    _divert_first_frame_to(ring, "B")
    ring.members["A"].multicast(b"lost")
    ring.run(0.05)
    assert ring.delivered["B"] == [("A", b"lost")]
    assert tracer.count("totem.retransmit") == 1
    # One rotation of grace, asked on the next visit, served by the next
    # holder — all at the processing time, well inside one idle rotation.
    sent_at = min(_times(tracer, "frame", since=queued_at))
    recovered_at, = _times(tracer, "deliver", since=queued_at, node="B")
    assert recovered_at - sent_at < 3 * _idle_hop(ring)


# ----------------------------------------------------------------------
# The forward-time send: what is queued while an empty-handed visit holds
# the token rides that visit (PROTOCOL.md, token-visit step 6)
# ----------------------------------------------------------------------

def _queue_during_hold(ring, tracer, node_id, payloads, *, after, at=None):
    """On ``node_id``'s next token visit, queue ``payloads`` ``after``
    seconds into the hold — there, or at member ``at``.  Returns the
    visit's token record (through the list) once it has happened."""
    visit = []

    def on_visit(record):
        if (not visit and record.event == "token"
                and record.fields["node"] == node_id):
            visit.append(record)
            for payload in payloads:
                ring.scheduler.call_after(
                    after, ring.members[at or node_id].multicast, payload)

    tracer.subscribe(on_visit)
    return visit


def test_payload_queued_during_an_empty_hold_rides_that_visit():
    ring, tracer = _paced_ring()
    visit = _queue_during_hold(ring, tracer, "B", [b"late"], after=0.3e-3)
    ring.run(0.05)
    received = visit[0].fields["seq"]
    frame, = tracer.find("totem", "frame")
    assert frame.fields["node"] == "B"
    assert frame.fields["seq"] == received + 1
    # It left at once — the payload released the token B was parked on —
    # not when the hold expired, let alone a rotation later.
    assert frame.time == pytest.approx(visit[0].time + 0.3e-3)
    assert _hold_cancels(tracer) == {"sent": [], "released": ["B"],
                                     "noted": []}
    assert _times(tracer, "token", since=visit[0].time, node="B")[1] \
        > frame.time
    # The next member saw the post-drain sequence number with B's own
    # frame already accounted for in the watermark.
    at_c = next(r for r in tracer.find("totem", "token")
                if r.time > frame.time)
    assert at_c.fields["node"] == "C"
    assert (at_c.fields["seq"], at_c.fields["aru"]) == (received + 1,
                                                        received + 1)
    for node in ring.members:
        assert ring.delivered[node] == [("B", b"late")]
    assert tracer.count("totem.retransmit") == 0


def test_forward_time_send_snapshots_the_token_as_sent():
    ring, tracer = _paced_ring()
    visit = _queue_during_hold(ring, tracer, "B", [b"late"], after=0.3e-3)
    member = ring.members["B"]
    ring.scheduler.run_while(lambda: not tracer.count("totem.frame"), 0.05)
    received = visit[0].fields["seq"]
    token, successor = member._sent_token
    assert successor == "C"
    # The loss-repair copy is the token as forwarded: a retransmission
    # must not hand the successor a sequence number B has already used.
    assert (token.seq, token.aru, token.aru_id) == (received + 1,
                                                    received + 1, "")
    assert member.delivered_aru == received + 1


def test_forward_time_send_keeps_a_laggards_watermark():
    """The aru rule is re-applied after the late send, not bypassed: a
    watermark another member lowered stays that member's."""
    ring, tracer = _paced_ring()
    member = ring.members["B"]
    received = member.delivered_aru
    token = Token(member.ring_id, received, received - 1, aru_id="A",
                  ring_key=member._ring_key)
    member.multicast(b"late")
    member._forward_token(token, "C", True)
    assert (token.seq, token.aru, token.aru_id) == (received + 1,
                                                    received - 1, "A")


def test_forward_time_send_respects_the_burst_window(monkeypatch):
    monkeypatch.setattr(member_module, "MAX_BURST", 2)
    ring, tracer = _paced_ring(TotemConfig(
        token_hold=1e-3, token_timeout=0.25, frame_packing=False))
    visit = _queue_during_hold(ring, tracer, "B",
                               [b"1", b"2", b"3", b"4", b"5"], after=0.3e-3)
    ring.run(0.05)
    forwarded = visit[0].time + 0.3e-3      # the first payload's release
    frames = _times(tracer, "frame", node="B")
    assert len(frames) == 5
    assert frames[:2] == [pytest.approx(forwarded)] * 2
    assert all(t > forwarded for t in frames[2:])
    assert [p for _origin, p in ring.delivered["A"]] == \
        [b"1", b"2", b"3", b"4", b"5"]


def test_visit_that_sent_at_receipt_does_not_send_again_at_forward():
    ring, tracer = _paced_ring()
    ring.members["B"].multicast(b"first")       # goes out at receipt
    visit = _queue_during_hold(ring, tracer, "B", [b"second"], after=5e-6)
    ring.run(0.05)
    first, second = _times(tracer, "frame", node="B")
    assert first == visit[0].time
    # Queued inside the (processing-time) hold of a visit that sent: it
    # waits for B's next visit and goes out there, at receipt.
    next_visit = _times(tracer, "token", since=visit[0].time, node="B")[1]
    assert second == next_visit
    assert ring.delivered["A"] == [("B", b"first"), ("B", b"second")]


# ----------------------------------------------------------------------
# Hold cancel: nobody sleeps on a token somebody needs (PROTOCOL.md,
# "Hold cancel")
# ----------------------------------------------------------------------

def _drop_hold_cancels(ring):
    ring.network.add_filter(
        lambda src, dst, payload, size: isinstance(payload, HoldCancel))


def test_multicast_at_a_non_holder_cancels_the_quiet_hold():
    ring, tracer = _paced_ring()
    visit = _queue_during_hold(ring, tracer, "A", [b"wake"], after=0.3e-3,
                               at="C")
    ring.run(0.05)
    queued_at = visit[0].time + 0.3e-3
    delivered = _times(tracer, "deliver", since=queued_at)
    assert len(delivered) == 3
    # The cancel reaches A, the token makes two busy hops to C, the frame
    # reaches everyone: a hop-and-frame time per member, where waiting out
    # the holds took the rest of A's and all of B's.
    assert max(delivered) - queued_at < 4 * _busy_hop(ring) < _idle_hop(ring)
    assert _hold_cancels(tracer) == {"sent": ["C"], "released": ["A"],
                                     "noted": ["B"]}
    frame, = tracer.find("totem", "frame")
    assert (frame.fields["node"], frame.fields["seq"]) \
        == ("C", visit[0].fields["seq"] + 1)
    assert tracer.count("totem.retransmit") == 0


def test_lost_hold_cancel_costs_the_hold_and_nothing_else():
    ring, tracer = _paced_ring()
    _drop_hold_cancels(ring)
    visit = _queue_during_hold(ring, tracer, "A", [b"wake"], after=0.3e-3,
                               at="C")
    ring.run(0.05)
    for node in ring.members:
        assert ring.delivered[node] == [("C", b"wake")]
    # Never retransmitted, nobody released: the token got to C by expiry
    # of A's hold and of B's.
    assert _hold_cancels(tracer) == {"sent": ["C"], "released": [],
                                     "noted": []}
    frame, = tracer.find("totem", "frame")
    assert frame.time == pytest.approx(visit[0].time + 2 * _idle_hop(ring))


def test_backlog_hold_is_not_cancelled():
    ring, tracer = _paced_ring()
    queued_at = ring.scheduler.now
    member = ring.members["B"]
    member.multicast(b"one")
    member.multicast(b"two")
    ring.scheduler.run_while(lambda: not tracer.count("totem.frame"), 0.05)
    sent_at = ring.scheduler.now
    ring.scheduler.call_after(0.3e-3, member.endpoint.deliver, "A",
                              HoldCancel(member.ring_id, "A"))
    ring.run(0.05)
    after = [t for t in _times(tracer, "token", since=queued_at)
             if t > sent_at]
    assert after[0] - sent_at == pytest.approx(_idle_hop(ring))
    roles = _hold_cancels(tracer)
    assert "B" in roles["noted"] and "B" not in roles["released"]


def test_hold_cancel_from_another_ring_or_a_stranger_is_ignored():
    ring, tracer = _paced_ring()
    member = ring.members["A"]
    strays = [HoldCancel(member.ring_id + 1, "B"),
              HoldCancel(member.ring_id, "Z"),
              HoldCancel(member.ring_id, "A")]
    visit = []

    def on_visit(record):
        if (not visit and record.event == "token"
                and record.fields["node"] == "A"):
            visit.append(record)
            for stray in strays:
                ring.scheduler.call_after(0.3e-3, member.endpoint.deliver,
                                          stray.sender, stray)

    tracer.subscribe(on_visit)
    ring.run(0.05)
    assert tracer.count("totem.hold_cancel") == 0
    at_b = _times(tracer, "token", since=visit[0].time, node="B")[0]
    assert at_b - visit[0].time == pytest.approx(_idle_hop(ring))


def test_one_hold_cancel_per_quiet_episode_however_much_is_queued():
    ring, tracer = _paced_ring()
    _queue_during_hold(ring, tracer, "A", [b"1", b"2", b"3"], after=0.3e-3,
                       at="C")
    ring.run(0.05)
    assert [p for _origin, p in ring.delivered["A"]] == [b"1", b"2", b"3"]
    assert _hold_cancels(tracer) == {"sent": ["C"], "released": ["A"],
                                     "noted": ["B"]}
    # Quiet again two rotations later: the next payload is a new episode.
    ring.members["C"].multicast(b"4")
    ring.run(0.05)
    assert len(_hold_cancels(tracer)["released"]) == 2
    assert len(_hold_cancels(tracer)["sent"]) <= 2


def test_member_that_noted_a_cancel_sends_none_of_its_own():
    ring, tracer = _paced_ring()
    _queue_during_hold(ring, tracer, "A", [b"first"], after=0.3e-3, at="C")
    # B queues after C's cancel has reached it and before the token has.
    _queue_during_hold(ring, tracer, "A", [b"second"], after=0.4e-3, at="B")
    ring.run(0.05)
    assert ring.delivered["A"] == [("B", b"second"), ("C", b"first")]
    assert _hold_cancels(tracer) == {"sent": ["C"], "released": ["A"],
                                     "noted": ["B"]}


def test_reply_to_a_frame_just_received_sends_no_cancel():
    """A data frame is news that the ring is awake — its token is coming
    at the processing time — so a member that answers it from the
    delivery callback has no hold to cancel, whatever its last visit
    saw."""
    ring, tracer = _paced_ring()
    member = ring.members["C"]
    deliver = member.on_deliver

    def answer(origin, payload):
        deliver(origin, payload)
        if payload == b"ask":
            member.multicast(b"answer")

    member.on_deliver = answer
    _queue_during_hold(ring, tracer, "A", [b"ask"], after=0.3e-3)
    ring.run(0.05)
    assert ring.delivered["A"] == [("A", b"ask"), ("C", b"answer")]
    assert _hold_cancels(tracer) == {"sent": [], "released": ["A"],
                                     "noted": []}


def test_default_config_ring_never_parks_and_never_cancels():
    """``token_hold`` at the processing time means no hold is the long
    one: a simulated deployment run through a kill/restart schedule emits
    no ``HoldCancel`` — what keeps Figure 6 bit-identical."""
    from repro.bench.deployments import build_client_server
    from repro.ftcorba.properties import ReplicationStyle
    from repro.scenarios import (ExpectConsistent, ExpectProgress, Kill,
                                 Restart, Run, Scenario, WaitOperational)

    deployment = build_client_server(style=ReplicationStyle.ACTIVE,
                                     server_replicas=2, state_size=1_000,
                                     warmup=0.2)
    Scenario(
        Run(0.1),
        Kill("s2"),
        ExpectProgress("driver", min_acks=100, within=0.5),
        Restart("s2"),
        WaitOperational("store", "s2"),
        Run(0.3),
        ExpectConsistent("store", ["s1", "s2"]),
    ).execute(deployment)
    assert deployment.system.tracer.count("totem.token") > 1000
    assert deployment.system.tracer.count("totem.hold_cancel") == 0


def _watch_timers(ring, node_id):
    """Record every timer ``node_id``'s host hands out from now on; the
    returned function lists the callbacks of those still pending."""
    process = ring.members[node_id].endpoint.process
    handed_out = []
    schedule = process.call_after

    def call_after(delay, fn, *args):
        handle = schedule(delay, fn, *args)
        handed_out.append((handle, fn.__name__))
        return handle

    process.call_after = call_after
    return lambda: sorted(name for handle, name in handed_out
                          if not handle.cancelled
                          and handle in ring.scheduler._heap)


G, R, O, S = (MemberState.GATHER, MemberState.RECOVERY,
              MemberState.OPERATIONAL, MemberState.STOPPED)

#: What B (not the leader) has pending once it has taken each edge: the
#: new phase's own timers, and nothing the old phase armed.
EDGE_TIMERS = {
    (O, G): ["_join_tick", "_on_gather_deadline"],
    (G, R): ["_on_recovery_timeout"],
    (R, O): ["_on_token_timeout"],
    (R, G): ["_join_tick", "_on_gather_deadline"],
    (G, S): [],
    (R, S): [],
    (O, S): [],
}


def _join_from(ring, src, dst, **news):
    """Deliver ``src``'s JOIN to ``dst``, with ``news`` changing fields."""
    join = replace(ring.members[src]._make_join(), **news)
    ring.members[dst].endpoint.deliver(src, join)


@pytest.mark.parametrize("edge", list(EDGE_TIMERS),
                         ids=lambda edge: f"{edge[0].value}-{edge[1].value}")
@pytest.mark.parametrize("hold", [PACED.token_hold, TOKEN_PROCESSING_TIME])
def test_no_timer_outlives_its_phase(hold, edge):
    old, new = edge
    ring, tracer = _paced_ring(TotemConfig(token_hold=hold,
                                           token_timeout=0.25))
    member = ring.members["B"]
    pending = _watch_timers(ring, "B")
    # Into the old phase with its timers pending: operational mid-hold,
    # gathering, or flushing the FORM.
    ring.scheduler.run_while(lambda: "_forward_token" not in pending(), 0.05)
    if old is not O:
        _join_from(ring, "C", "B")
    if old is R:
        ring.scheduler.run_while(lambda: member.state is G, 0.5)
    assert member.state is old and pending()

    if new is S:
        member.shutdown()
    elif new is G:
        # A JOIN with news: one identical to C's recorded JOIN would be
        # admitted, not restart gather.
        _join_from(ring, "C", "B", fresh=True)
    else:
        ring.scheduler.run_while(lambda: member.state is old, 0.5)
    assert member.state is new
    assert pending() == EDGE_TIMERS[edge]
    assert member._parked is None


# ----------------------------------------------------------------------
# Membership paths no other scenario takes: each driven by drop filters
# ----------------------------------------------------------------------

def _is_commit(payload, phase=None):
    return (isinstance(payload, Token) and payload.commit_phase > 0
            and phase in (None, payload.commit_phase))


def test_gather_leader_that_loses_its_own_form_forms_again():
    """The leader waits for its own FORM like everyone else: a lost
    loopback copy (a real datagram on the live runtime) costs one
    recovery deadline, not the ring."""
    ring = Ring()
    lost = []

    def drop_own_form(src, dst, payload, size):
        if isinstance(payload, FormMsg) and src == dst == "A" and not lost:
            lost.append(payload)
            return True
        return False

    ring.network.add_filter(drop_own_form)
    ring.run(0.5)
    assert lost
    assert ring.all_operational()


def test_recovery_that_never_installs_times_out_and_gathers_again():
    ring = Ring()
    tracer = _traced(ring)

    def drop_commits(src, dst, payload, size):
        return _is_commit(payload)

    ring.network.add_filter(drop_commits)
    ring.scheduler.run_while(
        lambda: not tracer.count("totem.recovery_timeout"), 1.0)
    assert tracer.count("totem.recovery_timeout")
    assert tracer.count("totem.install") == 0
    ring.network.remove_filter(drop_commits)
    ring.run(0.3)
    assert ring.all_operational()


def test_commit_token_ahead_of_the_flush_waits_for_it():
    ring = Ring()
    ring.run(0.1)
    member = ring.members["B"]
    starved = []

    def starve_b(src, dst, payload, size):
        # B loses A's frame and every repair of it, and the token that
        # would request one: the ring re-forms with the frame to flush.
        if dst == "B" and isinstance(payload, DataMsg):
            starved.append(payload)
            return True
        return bool(starved) and isinstance(payload, Token) \
            and not payload.commit_phase

    ring.network.add_filter(starve_b)
    ring.members["A"].multicast(b"x")
    assert ring.scheduler.run_while(
        lambda: member._stashed_commit is None, 1.0)
    assert member.state is R
    assert member.delivered_aru < member._pending_form.flush_seq
    ring.network.remove_filter(starve_b)
    ring.run(0.2)
    assert member._stashed_commit is None
    assert ring.all_operational()
    assert ring.delivered["B"] == [("A", b"x")]


def test_install_pass_lost_for_good_ends_in_token_timeout():
    # The token timeout outlasts the leader's four commit retries, one
    # gather_timeout apart; the others' recovery deadline outlasts both.
    ring = Ring(config=TotemConfig(token_timeout=0.045))
    tracer = _traced(ring)
    leader = ring.members["A"]
    sent = []

    def drop_install_pass(src, dst, payload, size):
        if src == "A" and _is_commit(payload, phase=2):
            sent.append(payload)
            return True
        return False

    ring.network.add_filter(drop_install_pass)
    ring.scheduler.run_while(
        lambda: not tracer.count("totem.token_timeout"), 1.0)
    assert len(sent) == 5                # the pass and its four retries
    assert leader.state is G
    assert [r.fields["node"] for r in tracer.find("totem", "install")] \
        == ["A"]
    assert tracer.count("totem.recovery_timeout") == 0
    ring.network.remove_filter(drop_install_pass)
    ring.run(0.3)
    assert ring.all_operational()


def test_commit_token_of_a_sibling_ring_is_ignored():
    ring = Ring()
    sent = []

    def drop_commits(src, dst, payload, size):
        if src == "B" and _is_commit(payload):
            sent.append(payload)
        return _is_commit(payload)

    ring.network.add_filter(drop_commits)
    member = ring.members["B"]
    ring.scheduler.run_while(lambda: member.state is not R, 0.5)
    form = member._pending_form
    # Same ring id, a divergent member set: the collision ring_key is for.
    sibling_key = TotemMember._form_ring_key(
        replace(form, members=form.members[:2]))
    member.endpoint.deliver("A", Token(form.ring_id, form.flush_seq,
                                       form.flush_seq, ring_key=sibling_key,
                                       commit_phase=1))
    assert member.state is R
    assert member._stashed_commit is None and sent == []
    ring.network.remove_filter(drop_commits)
    ring.run(0.3)
    assert ring.all_operational()


def test_duplicate_install_pass_kicks_the_ring_once():
    ring = Ring()
    returned = []

    def keep_install_pass(src, dst, payload, size):
        if dst == "A" and _is_commit(payload, phase=2):
            returned.append(replace(payload, rtr=list(payload.rtr)))
        return False

    ring.network.add_filter(keep_install_pass)
    ring.run(0.1)
    assert ring.all_operational() and returned
    pending = _watch_timers(ring, "A")
    ring.members["A"].endpoint.deliver("C", returned[0])
    assert "_on_token_frame" not in pending()


def test_member_left_out_of_a_form_keeps_gathering():
    ring = Ring()
    member = ring.members["C"]
    left_out = []

    def hide_c_from_a(src, dst, payload, size):
        if src == "C" and dst == "A" and isinstance(payload, JoinMsg):
            return True
        if (dst == "C" and isinstance(payload, FormMsg)
                and "C" not in payload.members):
            left_out.append(payload)
            return True
        return False

    ring.run(0.1)
    ring.network.add_filter(hide_c_from_a)
    _join_from(ring, "B", "A")          # a re-formation C's JOINs miss
    ring.scheduler.run_while(lambda: not left_out, 0.5)
    member.endpoint.deliver("A", left_out[0])
    assert member.state is G and member._pending_form is None
    ring.network.remove_filter(hide_c_from_a)
    ring.run(0.5)
    assert ring.all_operational()
    assert member.view.members == ("A", "B", "C")


def test_token_from_a_superseded_ring_is_ignored():
    ring = Ring()
    old = []

    def keep_a_token(src, dst, payload, size):
        if dst == "A" and isinstance(payload, Token) \
                and not payload.commit_phase:
            old[:] = [replace(payload, rtr=list(payload.rtr))]
        return False

    ring.network.add_filter(keep_a_token)
    ring.run(0.5)
    ring.network.remove_filter(keep_a_token)
    ring.faults.crash("C")
    ring.run(0.1)
    leader = ring.members["A"]
    assert leader.operational and old[0].ring_key != leader._ring_key
    # Rotation counts restart with every ring: only the key tells.
    last_rotation = leader._last_token_rot
    assert old[0].rotations > last_rotation
    tracer = _traced(ring)
    leader.endpoint.deliver("B", old[0])
    assert tracer.count("totem.token") == 0
    assert leader._last_token_rot == last_rotation


# ----------------------------------------------------------------------
# One round per membership change: a JOIN that says nothing new is
# admitted, and the leader forms on consensus (PROTOCOL.md §5.1)
# ----------------------------------------------------------------------

def _forms_sent(ring):
    """Every FORM put on the wire, as (sender, ring id, members)."""
    sent = []

    def note(src, dst, payload, size):
        if isinstance(payload, FormMsg) and dst == src:
            sent.append((src, payload.ring_id, payload.members))
        return False

    ring.network.add_filter(note)
    return sent


def _hold_in_recovery(ring):
    """Drop every commit token, so members that take the FORM stay in
    recovery; returns the filter for removal."""
    def drop_commits(src, dst, payload, size):
        return _is_commit(payload)

    ring.network.add_filter(drop_commits)
    return drop_commits


def test_identical_join_in_recovery_is_admitted_and_the_leader_resends():
    ring = Ring()
    tracer = _traced(ring)
    forms = _forms_sent(ring)
    drop_commits = _hold_in_recovery(ring)
    ring.scheduler.run_while(
        lambda: not all(m.state is R for m in ring.members.values()), 0.5)
    leader, other = ring.members["A"], ring.members["C"]
    assert forms == [("A", 1, ("A", "B", "C"))]
    gathers = tracer.count("totem.gather")
    # B's beacon, identical to what both recorded, crossed the FORM.
    for member in (leader, other):
        member.endpoint.deliver("B", member._joins["B"])
    assert leader.state is R and other.state is R
    assert tracer.count("totem.gather") == gathers
    ring.run(1e-3)
    # Only the leader answers, with the FORM it is flushing.
    assert forms == [("A", 1, ("A", "B", "C"))] * 2
    # A JOIN with news (B has heard of a D) still restarts gather.
    _join_from(ring, "B", "C", candidates=("A", "B", "C", "D"))
    assert other.state is G
    ring.network.remove_filter(drop_commits)
    ring.run(0.3)
    assert ring.all_operational()


@pytest.mark.parametrize("loser", ["C", "A"], ids=["member", "leader"])
def test_member_that_lost_the_form_installs_in_the_same_round(loser):
    ring = Ring()
    tracer = _traced(ring)
    lost = []

    def drop_one_form(src, dst, payload, size):
        if isinstance(payload, FormMsg) and dst == loser and not lost:
            lost.append(payload)
            return True
        return False

    ring.network.add_filter(drop_one_form)
    ring.scheduler.run_while(lambda: not ring.all_operational(), 0.5)
    assert lost and ring.all_operational()
    # The loser's next beacon reached the FORM's leader (or, the leader
    # being the loser, the FORM's next member), which sent the FORM again:
    # no gather round after each member's first, one ring, no deadline
    # ran out.
    assert tracer.count("totem.gather") == 0
    assert tracer.count("totem.recovery_timeout") == 0
    installs = tracer.find("totem", "install")
    assert {r.fields["ring_id"] for r in installs} == {lost[0].ring_id}
    assert ring.scheduler.now < ring.config.join_interval \
        + 2 * ring.config.gather_timeout


def test_fresh_simnet_ring_installs_before_the_gather_timeout():
    ring = Ring()
    tracer = _traced(ring)
    ring.scheduler.run_while(lambda: not ring.all_operational(), 0.5)
    assert ring.scheduler.now < ring.config.gather_timeout
    form, = tracer.find("totem", "form")
    assert form.fields["members"] == ("A", "B", "C")


def test_after_a_kill_gather_waits_for_the_deadline_and_drops_only_it():
    ring = Ring(node_ids=("A", "B", "C", "D"))
    ring.run(0.1)
    tracer = _traced(ring)
    ring.faults.crash("B")
    ring.run(0.2)
    assert ring.all_operational(["A", "C", "D"])
    # Every survivor's view still names B, whose JOIN never comes: no
    # consensus, so the leader forms at the deadline, without B alone.
    form, = tracer.find("totem", "form")
    assert form.fields["members"] == ("A", "C", "D")
    gathered = min(_times(tracer, "gather", node="A"))
    assert form.time - gathered >= ring.config.gather_timeout


def test_live_member_whose_join_trails_by_a_tenth_of_a_ms_is_kept():
    ring = Ring()
    ring.run(0.1)
    tracer = _traced(ring)

    def delay_bs_joins(src, dst, payload, size):
        if src == "B" and isinstance(payload, JoinMsg):
            ring.scheduler.call_after(
                1e-4, ring.members[dst].endpoint.deliver, src, payload)
            return True
        return False

    ring.network.add_filter(delay_bs_joins)
    _join_from(ring, "C", "A")          # disturbs A, and A the rest
    ring.run(0.1)
    assert ring.all_operational()
    form = next(tracer.find("totem", "form"))
    assert form.fields["members"] == ("A", "B", "C")
    assert form.time < ring.config.gather_timeout + next(
        tracer.find("totem", "gather")).time


def test_a_form_never_lets_a_member_keep_or_deliver_past_its_flush():
    """Sequences past a FORM's flush belong to the old ring and the new
    ring numbers them anew: a member drops the old frames it holds there,
    and refuses a FORM whose flush ends below what it has delivered."""
    ring = Ring()
    ring.run(0.1)
    member = ring.members["B"]
    aru = member.delivered_aru
    stranger = JoinMsg("D", 0, 0, frozenset(), True, candidates=("D",))

    def old_frame(seq):
        return DataMsg(member.ring_id, seq, "A", ("A", seq), 0, 1, b"old")

    member.endpoint.deliver("D", stranger)
    member.endpoint.deliver("A", old_frame(aru + 2))     # behind a gap
    assert member.state is G and aru + 2 in member._held
    form = FormMsg(ring_id=member.ring_id + 1, leader="A",
                   members=("A", "B", "C"), flush_seq=aru, base_seq=aru,
                   holders={})
    member.endpoint.deliver("A", form)
    assert member.state is R and max(member._held, default=aru) <= aru

    member.endpoint.deliver("D", replace(stranger, delivered_aru=1))
    member.endpoint.deliver("A", old_frame(aru + 1))     # delivered
    assert member.state is G and member.delivered_aru == aru + 1
    member.endpoint.deliver("A", replace(form, ring_id=form.ring_id + 1))
    assert member.state is G


def test_member_relaunched_before_the_token_timeout_rejoins_with_the_ring():
    """A process re-launched inside the token timeout sends a JOIN that
    looks like an earlier one of its first gather; the ring, which still
    believes it alive, must gather with it, and it must not form alone."""
    ring = Ring()
    ring.run(0.1)
    tracer = _traced(ring)
    ring.faults.crash("C")
    ring.run(ring.config.token_timeout / 4)
    ring.respawn("C").tracer = tracer
    ring.run(0.3)
    assert ring.all_operational()
    assert {ring.members[n].view for n in "ABC"} == {ring.members["A"].view}
    assert ring.members["A"].view.members == ("A", "B", "C")
    assert [f.fields["members"] for f in tracer.find("totem", "form")] \
        == [("A", "B", "C")]
