"""Conformance suite for the :mod:`repro.runtime` interfaces.

Every assertion here runs against *both* substrates — the discrete-event
simulator and the asyncio/UDP live runtime — so the protocol stack can
treat them interchangeably.  The harness hides the one real difference:
how time passes (running the event heap vs. awaiting the wall clock).

The live parametrization carries the ``live`` marker: it opens real
loopback sockets and sleeps real milliseconds.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.runtime.timers import PeriodicTimer
from repro.totem.wire import register_wire_type


@dataclass(frozen=True)
class Ping:
    value: str


@dataclass(frozen=True)
class Pong:
    value: str


class PingSub(Ping):
    pass


# The live transport's binary codec carries only registered frame types;
# give the conformance payloads extension codecs (exact class preserved,
# which the MRO-dispatch assertions below depend on).
for _tag, _cls in ((64, Ping), (65, Pong), (66, PingSub)):
    register_wire_type(
        _tag, _cls,
        lambda out, obj: out.write_string(obj.value),
        lambda inp, c=_cls: c(inp.read_string()),
    )


class SimHarness:
    """Scheduler + modelled Ethernet + Endpoint transports."""

    def __init__(self, node_ids):
        from repro.simnet.endpoint import Endpoint
        from repro.simnet.network import Network
        from repro.simnet.process import Process
        from repro.simnet.scheduler import Scheduler

        self.scheduler = Scheduler()
        self.network = Network(self.scheduler)
        self.hosts = {}
        self.transports = {}
        for node_id in node_ids:
            host = Process(self.scheduler, node_id)
            self.hosts[node_id] = host
            self.transports[node_id] = Endpoint(host, self.network)

    def run_until(self, predicate, timeout=1.0):
        return self.scheduler.run_while(lambda: not predicate(), timeout)

    def advance(self, duration):
        self.scheduler.run_until(self.scheduler.now + duration)

    def close(self):
        pass


class LiveHarness:
    """asyncio loop + loopback UDP sockets + UdpTransport."""

    def __init__(self, node_ids):
        from repro.live.clock import LiveScheduler
        from repro.live.transport import UdpTransport, bind_udp_socket
        from repro.runtime.host import BaseHost

        self.loop = asyncio.new_event_loop()
        self.scheduler = LiveScheduler(self.loop)
        self.hosts = {}
        self.transports = {}
        peers = {}
        socks = {node_id: bind_udp_socket() for node_id in node_ids}
        for node_id, sock in socks.items():
            peers[node_id] = sock.getsockname()
        for node_id in node_ids:
            host = BaseHost(self.scheduler, node_id)
            transport = UdpTransport(host, socks[node_id], peers)
            transport.open(self.loop)
            self.hosts[node_id] = host
            self.transports[node_id] = transport

    def run_until(self, predicate, timeout=2.0):
        async def poll():
            deadline = self.loop.time() + timeout
            while not predicate():
                if self.loop.time() >= deadline:
                    return bool(predicate())
                await asyncio.sleep(0.002)
            return True
        return self.loop.run_until_complete(poll())

    def advance(self, duration):
        self.loop.run_until_complete(asyncio.sleep(duration))

    def close(self):
        for transport in self.transports.values():
            transport.close()
        self.loop.close()


HARNESSES = {"simnet": SimHarness, "live": LiveHarness}


@pytest.fixture(params=[pytest.param("simnet"),
                        pytest.param("live", marks=pytest.mark.live)])
def harness(request):
    h = HARNESSES[request.param](["x", "y", "z"])
    yield h
    h.close()


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------

def test_broadcast_reaches_every_node_including_sender(harness):
    got = {n: [] for n in harness.transports}
    for node_id, transport in harness.transports.items():
        transport.register(Ping, lambda src, p, n=node_id: got[n].append(src))
    harness.transports["x"].broadcast(Ping("hello"), 20)
    assert harness.run_until(lambda: all(len(v) == 1 for v in got.values()))
    assert {srcs[0] for srcs in got.values()} == {"x"}


def test_unicast_reaches_only_the_destination(harness):
    got = {n: [] for n in harness.transports}
    for node_id, transport in harness.transports.items():
        transport.register(Ping, lambda src, p, n=node_id: got[n].append(p))
    harness.transports["x"].unicast("y", Ping("direct"), 20)
    assert harness.run_until(lambda: len(got["y"]) == 1)
    harness.advance(0.05)     # give a mis-delivery time to show up
    assert got["x"] == [] and got["z"] == []
    assert got["y"][0].value == "direct"


def test_dispatch_by_exact_type_then_mro(harness):
    got = []
    transport = harness.transports["y"]
    transport.register(Ping, lambda src, p: got.append(("base", p.value)))
    transport.register(Pong, lambda src, p: got.append(("pong", p.value)))
    harness.transports["x"].unicast("y", PingSub("sub"), 20)
    harness.transports["x"].unicast("y", Pong("pong"), 20)
    assert harness.run_until(lambda: len(got) == 2)
    assert sorted(got) == [("base", "sub"), ("pong", "pong")]
    transport.register(PingSub, lambda src, p: got.append(("exact", p.value)))
    harness.transports["x"].unicast("y", PingSub("again"), 20)
    assert harness.run_until(lambda: len(got) == 3)
    assert got[-1] == ("exact", "again")


def test_unregister_stops_delivery(harness):
    got = []
    harness.transports["y"].register(Ping, lambda src, p: got.append(p))
    harness.transports["y"].unregister(Ping)
    harness.transports["x"].unicast("y", Ping("gone"), 20)
    harness.advance(0.05)
    assert got == []


def test_declared_size_above_mtu_is_rejected(harness):
    transport = harness.transports["x"]
    oversize = transport.mtu_payload + 1
    with pytest.raises(NetworkError):
        transport.broadcast(Ping("big"), oversize)
    with pytest.raises(NetworkError):
        transport.unicast("y", Ping("big"), oversize)


def test_mtu_payload_matches_ethernet_model(harness):
    # Both substrates present the same 1500-byte payload budget, so the
    # ring member fragments identically and Figure-6 style curves compare.
    assert harness.transports["x"].mtu_payload == 1500


def test_crashed_host_receives_nothing(harness):
    got = []
    harness.transports["y"].register(Ping, lambda src, p: got.append(p))
    harness.hosts["y"].crash()
    harness.transports["x"].broadcast(Ping("too late"), 20)
    harness.advance(0.05)
    assert got == []


# ---------------------------------------------------------------------------
# Clock / scheduler
# ---------------------------------------------------------------------------

def test_clock_starts_near_zero_and_advances(harness):
    t0 = harness.scheduler.now
    assert t0 >= 0.0
    harness.advance(0.05)
    assert harness.scheduler.now >= t0 + 0.05


def test_call_after_runs_in_delay_order(harness):
    fired = []
    harness.scheduler.call_after(0.03, fired.append, "third")
    harness.scheduler.call_after(0.01, fired.append, "first")
    harness.scheduler.call_after(0.02, fired.append, "second")
    assert harness.run_until(lambda: len(fired) == 3)
    assert fired == ["first", "second", "third"]


def test_cancelled_timer_never_fires(harness):
    fired = []
    handle = harness.scheduler.call_after(0.01, fired.append, "no")
    handle.cancel()
    harness.scheduler.cancel(None)          # None is a no-op
    harness.advance(0.05)
    assert fired == []


def test_host_call_after_is_incarnation_guarded(harness):
    fired = []
    host = harness.hosts["x"]
    host.call_after(0.01, fired.append, "dropped")
    host.crash()
    host.restart()
    host.call_after(0.01, fired.append, "kept")
    assert harness.run_until(lambda: "kept" in fired)
    harness.advance(0.05)
    assert fired == ["kept"]


def test_periodic_timer_ticks_and_stops(harness):
    ticks = []
    timer = PeriodicTimer(harness.scheduler, 0.02,
                          lambda: ticks.append(harness.scheduler.now))
    assert harness.run_until(lambda: len(ticks) >= 3, timeout=2.0)
    timer.stop()
    seen = len(ticks)
    harness.advance(0.06)
    assert len(ticks) == seen
