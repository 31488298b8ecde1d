"""The sharded facade's contract, on both substrates.

:class:`repro.core.sharded.ShardedCore` is written once; the simulated
and the live facade only say how to build one ring.  Every assertion
here therefore runs against *both* — ``ShardedEternalSystem`` on the
simulated clock and ``LiveShardedSystem`` on loopback UDP — the way
``tests/unit/runtime/test_conformance.py`` runs the runtime interfaces.
The harness hides the one real difference: how time passes.

The live parametrization carries the ``live`` marker: it opens real
loopback sockets and waits real milliseconds.
"""

from __future__ import annotations

import pytest

from repro.apps.kvstore import make_kvstore_factory
from repro.apps.packet_driver import PacketDriverServant
from repro.bench.deployments import DRIVER_TYPE, KVSTORE_TYPE
from repro.core.identifiers import OpKind
from repro.errors import ObjectGroupError
from repro.ftcorba.checkpointable import Checkpointable
from repro.ftcorba.properties import FTProperties
from repro.giop.ior import IOR

TEMPLATE = ("m", "c", "s1", "s2")
ONESHOT_TYPE = "IDL:repro/OneShot:1.0"
TIMEOUT = 20.0          # simulated or wall-clock seconds; never reached


class SimHarness:
    """Two simulated rings; time passes by running the event heap."""

    def __init__(self):
        from repro.simnet.sharded import ShardedEternalSystem
        self.system = ShardedEternalSystem(rings=2, node_template=TEMPLATE)

    def wait(self, predicate, timeout=TIMEOUT):
        return self.system.wait_for(predicate, timeout)

    def advance(self, duration):
        self.system.run_for(duration)

    def close(self):
        pass


class LiveHarness:
    """Two UDP rings on one private loop; time passes by awaiting."""

    def __init__(self):
        from repro.live.clock import new_event_loop
        from repro.live.sharded import LiveShardedSystem
        self.loop = new_event_loop()
        self.system = LiveShardedSystem(rings=2, node_template=TEMPLATE,
                                        loop=self.loop)

    def wait(self, predicate, timeout=TIMEOUT):
        return self.loop.run_until_complete(
            self.system.wait_for(predicate, timeout))

    def advance(self, duration):
        self.loop.run_until_complete(self.system.run_for(duration))

    def close(self):
        self.system.close()
        self.loop.close()


HARNESSES = {"simnet": SimHarness, "live": LiveHarness}


@pytest.fixture(params=[pytest.param("simnet"),
                        pytest.param("live", marks=pytest.mark.live)])
def shard(request):
    """A formed two-ring deployment under the cluster-wide auditor; any
    §5.1 finding fails the test at teardown."""
    h = HARNESSES[request.param]()
    try:
        auditor = h.system.attach_auditor()
        assert h.wait(h.system.ring_formed), "the rings never formed"
        yield h
        auditor.finish(raise_on_findings=True)
    finally:
        h.close()


def _props(replicas):
    return FTProperties(initial_replicas=replicas, min_replicas=1,
                        fault_monitoring_interval=0.5)


def _deploy_store(h, name, ring):
    """A 2-replica kvstore on ``ring``'s server nodes (factory only there,
    so a killed replica comes back on its own node)."""
    servers = [f"{ring}.s1", f"{ring}.s2"]
    h.system.ring(ring).register_factory(
        KVSTORE_TYPE, make_kvstore_factory(2_000), nodes=servers)
    store = h.system.create_group(name, KVSTORE_TYPE, _props(2),
                                  nodes=servers)
    assert h.wait(lambda: all(store.is_operational_on(n) for n in servers))
    return store


def _deploy_driver(h, name, ring, store):
    """A closed-loop packet driver on ``ring``'s client node."""
    node = f"{ring}.c"
    iogr = store.iogr().stringify()
    h.system.ring(ring).register_factory(
        DRIVER_TYPE, lambda: PacketDriverServant(iogr), nodes=[node])
    group = h.system.create_group(name, DRIVER_TYPE, _props(1), nodes=[node])
    assert h.wait(lambda: (group.servant_on(node) is not None
                           and group.servant_on(node).acked > 0)), \
        f"driver on {ring} never started streaming"
    return group.servant_on(node)


def test_rings_form_and_stacks_list_every_node(shard):
    system = shard.system
    assert system.ring_formed()
    assert sorted(system.rings) == ["r0", "r1"]
    assert sorted(system.stacks) == sorted(
        f"{ring}.{suffix}" for ring in ("r0", "r1") for suffix in TEMPLATE)
    for name, sub in system.rings.items():
        assert sub.ring_name == name
        assert sub.ring_formed()
        for node_id in sub.stacks:
            assert system.ring_of_node(node_id) is sub
            assert system.stack(node_id) is sub.stacks[node_id]
            assert system.mechanisms(node_id).gateway is sub.gateway_port


def test_hashed_and_pinned_groups_resolve_identically_from_every_ring(shard):
    system = shard.system
    system.register_factory(KVSTORE_TYPE, make_kvstore_factory(10))
    hashed_owner = system.placement.owner_of("hashed")
    other = "r1" if hashed_owner == "r0" else "r0"
    system.create_group("hashed", KVSTORE_TYPE, _props(1))
    # Pin a group *against* its hash owner, so the pin is what answers.
    pinned_ring = "r1" if system.placement.owner_of("pinned") == "r0" else "r0"
    system.create_group("pinned", KVSTORE_TYPE, _props(1), ring=pinned_ring)
    assert system.resolve_ring("hashed") == hashed_owner != other
    assert system.resolve_ring("pinned") == pinned_ring
    # Every ring's gateway port asks the same resolver: a request routes
    # the same way whichever ring it starts in.
    for sub in system.rings.values():
        resolve = sub.gateway_port.bridge.resolve_ring
        assert resolve("hashed") == hashed_owner
        assert resolve("pinned") == pinned_ring
        assert resolve("never-deployed") == \
            system.placement.owner_of("never-deployed")


class OneShotClient(Checkpointable):
    """Fires exactly one oneway ``echo`` at its target (no reply to
    bridge back, so the bridge sees exactly one envelope)."""

    type_id = ONESHOT_TYPE

    def __init__(self, target_ior):
        self._target_ior = target_ior
        self.fired = 0

    def start(self):
        if not self.fired:
            self.fired = 1
            self._eternal_container.connect(
                IOR.from_string(self._target_ior)).oneway("echo", 7)

    def get_state(self):
        return {"fired": self.fired}

    def set_state(self, state):
        self.fired = state["fired"]


def test_cross_ring_invocation_is_bridged_exactly_once(shard):
    system = shard.system
    captured = []
    inner = system.bridge.forward

    def spy(source, target, envelope):
        captured.append((source, target, envelope))
        inner(source, target, envelope)
    system.bridge.forward = spy

    store = _deploy_store(shard, "store", "r1")
    iogr = store.iogr().stringify()
    system.register_factory(ONESHOT_TYPE, lambda: OneShotClient(iogr),
                            ring="r0")
    system.create_group("client", ONESHOT_TYPE, _props(1), nodes=["r0.c"])
    replicas = [store.servant_on("r1.s1"), store.servant_on("r1.s2")]
    assert shard.wait(lambda: all(s.echo_count == 1 for s in replicas)), \
        "the cross-ring invocation never executed"
    assert system.bridge.forwarded == 1
    assert system.bridge.duplicates == 0
    (source, target, envelope), = captured
    assert (source, target, envelope.kind) == ("r0", "r1", OpKind.REQUEST)

    # A client retransmission: the issuing replica re-multicasts the same
    # envelope into its own ring (what ``_retransmit_tick`` does).  r0's
    # gateway hands it over again; the bridge must count it as a duplicate
    # and keep it out of r1.
    system.mechanisms("r0.c").multicast(envelope)
    assert shard.wait(lambda: system.bridge.duplicates == 1), \
        "the retransmission never reached the bridge"
    shard.advance(0.2)
    assert system.bridge.forwarded == 1
    assert [s.echo_count for s in replicas] == [1, 1]


def test_kill_and_restart_in_r0_recovers_while_r1_keeps_acking(shard):
    system = shard.system
    stores = {ring: _deploy_store(shard, f"store.{ring}", ring)
              for ring in ("r0", "r1")}
    drivers = {ring: _deploy_driver(shard, f"driver.{ring}", ring,
                                    stores[ring])
               for ring in ("r0", "r1")}
    assert system.bridge.forwarded == 0     # placement-local steady state

    system.kill_node("r0.s2")
    assert not system.stack("r0.s2").process.alive
    at_kill = drivers["r1"].acked
    shard.advance(0.3)
    assert drivers["r1"].acked > at_kill, "r0's fault stalled r1"
    assert system.ring("r1").ring_formed()

    system.restart_node("r0.s2")
    assert shard.wait(lambda: stores["r0"].is_operational_on("r0.s2"),
                      timeout=30.0), "killed replica never recovered"
    acked = {ring: d.acked for ring, d in drivers.items()}
    assert shard.wait(lambda: all(d.acked > acked[ring]
                                  for ring, d in drivers.items())), \
        "a ring stopped serving after the recovery"
    # The shared fixture's auditor (one for the whole cluster) raises at
    # teardown on any finding from the re-synchronisation.


def test_group_id_lives_on_exactly_one_ring(shard):
    system = shard.system
    system.register_factory(KVSTORE_TYPE, make_kvstore_factory(10))
    system.create_group("g", KVSTORE_TYPE, _props(1), ring="r0")
    with pytest.raises(ObjectGroupError, match="'r0'"):
        system.create_group("g", KVSTORE_TYPE, _props(1), ring="r1")
    assert system.resolve_ring("g") == "r0"
    # No second copy was deployed on the other ring.
    assert "g" not in system.ring("r1").replication_manager.groups
    assert "g" in system.ring("r0").replication_manager.groups


def test_failed_create_leaves_no_pin(shard):
    system = shard.system
    hash_owner = system.placement.owner_of("h")
    other = "r1" if hash_owner == "r0" else "r0"
    # No factory for the type anywhere: the owning ring's Replication
    # Manager cannot place a single replica and raises.
    with pytest.raises(ObjectGroupError):
        system.create_group("h", KVSTORE_TYPE, _props(1), ring=other)
    assert "h" not in system._pinned
    assert system.resolve_ring("h") == hash_owner
    # ... and the id is still free to deploy.
    system.register_factory(KVSTORE_TYPE, make_kvstore_factory(10))
    system.create_group("h", KVSTORE_TYPE, _props(1), ring=other)
    assert system.resolve_ring("h") == other
