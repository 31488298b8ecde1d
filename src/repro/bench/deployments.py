"""Canned deployments for benchmarks and integration tests.

The standard topology mirrors the paper's experiment (§6): a packet-driver
client streaming two-way invocations at a replicated server, plus a manager
node.  Builders return a :class:`ClientServerDeployment` exposing the
handles the experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.kvstore import KvStoreServant, make_kvstore_factory
from repro.apps.packet_driver import PacketDriverServant
from repro.core.config import EternalConfig
from repro.core.system import GroupHandle
from repro.ftcorba.properties import FTProperties, ReplicationStyle
from repro.orb.servant import operation
from repro.simnet.network import ETHERNET_100MBPS, NetworkConfig
from repro.simnet.system import EternalSystem
from repro.totem.config import TotemConfig

KVSTORE_TYPE = "IDL:repro/KvStore:1.0"
DRIVER_TYPE = "IDL:repro/PacketDriver:1.0"


def make_weighted_kvstore_factory(payload_size: int, echo_duration: float,
                                  jitter: float = 0.0):
    """A kvstore factory whose ``echo`` costs ``echo_duration`` simulated
    seconds — used to model realistic (1999-era ORB) operation costs in the
    overhead experiment.

    ``jitter`` (a fraction, e.g. 0.1) spreads each call's duration
    deterministically over ±jitter around the mean, breaking the phase lock
    between a serial client and the token rotation so that mean latency
    reflects the average token wait rather than a beat artifact.  The
    sequence is a pure function of the invocation count, so active replicas
    stay deterministic.
    """

    class WeightedKvStore(KvStoreServant):
        def _echo_duration(self) -> float:
            if jitter <= 0:
                return echo_duration
            phase = (self.echo_count * 2654435761) % 1000 / 999.0
            return echo_duration * (1.0 - jitter + 2.0 * jitter * phase)

        @operation(duration=echo_duration)
        def echo(self, token: int) -> int:
            self.echo_count += 1
            return token

        def _operation_duration(self, name: str) -> float:
            if name == "echo":
                return self._echo_duration()
            return super()._operation_duration(name)

    def factory() -> KvStoreServant:
        return WeightedKvStore(payload_size)

    return factory


@dataclass
class ClientServerDeployment:
    """A running system: replicated kvstore server + packet-driver client."""

    system: EternalSystem
    server_group: GroupHandle
    client_group: GroupHandle
    server_nodes: List[str]
    client_nodes: List[str]
    #: Simulated instant of the last injected kill (set by fault drivers).
    kill_time: float = 0.0

    @property
    def driver(self) -> PacketDriverServant:
        for node in self.client_nodes:
            servant = self.client_group.servant_on(node)
            if servant is not None:
                return servant
        raise LookupError("no live packet driver replica")

    def server_servant(self, node: str) -> Optional[KvStoreServant]:
        return self.server_group.servant_on(node)


def build_client_server(
    *,
    style: ReplicationStyle = ReplicationStyle.ACTIVE,
    server_replicas: int = 2,
    client_replicas: int = 1,
    state_size: int = 1000,
    checkpoint_interval: float = 0.1,
    echo_duration: Optional[float] = None,
    echo_jitter: float = 0.0,
    eternal_config: Optional[EternalConfig] = None,
    network_config: NetworkConfig = ETHERNET_100MBPS,
    totem_config: Optional[TotemConfig] = None,
    seed: int = 0,
    warmup: float = 0.1,
    keep_trace_records: bool = False,
    telemetry=None,
    profiling=None,
    store_factory=None,
    scribble_every: int = 0,
    scribble_fraction: float = 0.1,
) -> ClientServerDeployment:
    """Deploy the paper's measurement topology and warm it up.

    Nodes: one manager (``m``), ``client_replicas`` client nodes (``c*``),
    ``server_replicas`` server nodes (``s*``).  The kvstore server group is
    replicated in ``style`` with ``state_size`` bytes of application-level
    state; the packet-driver client streams ``echo`` invocations at it.

    ``scribble_every`` > 0 mixes a ``scribble(scribble_fraction)`` write
    into the stream every that many echo replies, dirtying a rotating
    fraction of the server's bulk state — the workload under which delta
    checkpointing earns its keep.

    ``store_factory`` gives each node a durable store (see
    :mod:`repro.store`) that survives kill/restart — the cold-restart
    experiments pass ``lambda node_id: MemoryStore()``.
    """
    server_nodes = [f"s{i + 1}" for i in range(server_replicas)]
    client_nodes = [f"c{i + 1}" for i in range(client_replicas)]
    node_ids = ["m"] + client_nodes + server_nodes
    system = EternalSystem(
        node_ids,
        seed=seed,
        network_config=network_config,
        totem_config=totem_config,
        eternal_config=eternal_config,
        keep_trace_records=keep_trace_records,
        telemetry=telemetry,
        profiling=profiling,
        store_factory=store_factory,
    )
    if echo_duration is None:
        server_factory = make_kvstore_factory(state_size)
    else:
        server_factory = make_weighted_kvstore_factory(
            state_size, echo_duration, jitter=echo_jitter
        )
    system.register_factory(KVSTORE_TYPE, server_factory, nodes=server_nodes)
    server_group = system.create_group(
        "store", KVSTORE_TYPE,
        FTProperties(
            replication_style=style,
            initial_replicas=server_replicas,
            min_replicas=1,
            checkpoint_interval=checkpoint_interval,
        ),
        nodes=server_nodes,
    )
    system.run_for(0.05)
    iogr = server_group.iogr().stringify()
    system.register_factory(
        DRIVER_TYPE,
        lambda: PacketDriverServant(iogr, scribble_every=scribble_every,
                                    scribble_fraction=scribble_fraction),
        nodes=client_nodes)
    client_group = system.create_group(
        "driver", DRIVER_TYPE,
        FTProperties(
            replication_style=ReplicationStyle.ACTIVE,
            initial_replicas=client_replicas,
            min_replicas=1,
        ),
        nodes=client_nodes,
    )
    system.run_for(warmup)
    return ClientServerDeployment(
        system=system,
        server_group=server_group,
        client_group=client_group,
        server_nodes=server_nodes,
        client_nodes=client_nodes,
    )


def measure_recovery(deployment: ClientServerDeployment, node: str,
                     *, downtime: float = 0.05,
                     timeout: float = 10.0) -> float:
    """Kill the server replica on ``node``, re-launch it, and return the
    paper's recovery-time metric: re-launch → reinstatement (operational).

    Returns the recovery time in simulated seconds (raises on timeout).
    """
    system = deployment.system
    system.kill_node(node)
    system.run_for(downtime)
    relaunched_at = system.now
    system.restart_node(node)
    ok = system.wait_for(
        lambda: deployment.server_group.is_operational_on(node),
        timeout=timeout,
    )
    if not ok:
        raise TimeoutError(f"replica on {node} did not recover within "
                           f"{timeout}s (simulated)")
    return system.now - relaunched_at
