"""What the live runtime deploys, and how it puts load on it.

:data:`LIVE_APPS` maps the ``--app`` CLI choices to the servant under test
and the closed-loop client (:mod:`repro.apps.packet_driver`) that streams
at it.  :func:`deploy` stands one of them up on one ring — server group,
then driver group(s), then load flowing — for the ``live`` CLI (once per
ring) and the ``live-throughput`` arms alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

from repro.apps.counter import CounterServant
from repro.apps.kvstore import KvStoreServant, make_kvstore_factory
from repro.apps.packet_driver import (ClosedLoopDriver, PacketDriverServant,
                                      ReadMixDriver)
from repro.ftcorba.properties import FTProperties


@dataclass(frozen=True)
class LiveApp:
    """One servant the live CLI can deploy, and how to drive it."""

    type_id: str
    #: State size in bytes -> zero-argument servant factory.
    make_factory: Callable[[int], Callable[[], Any]]
    #: Reads the comparable progress value out of a servant instance, so
    #: the CLI can print cross-replica consistency at the end of a run.
    progress_of: Callable[[Any], Any]
    #: Target IOGR -> the closed-loop client streaming at it.
    make_driver: Callable[[str], ClosedLoopDriver]


LIVE_APPS = {
    # The counter's whole state is one integer: the state size is ignored.
    "counter": LiveApp(
        type_id=CounterServant.type_id,
        make_factory=lambda _state_size: CounterServant,
        progress_of=lambda servant: servant.value,
        make_driver=lambda iogr: ClosedLoopDriver(iogr, "increment"),
    ),
    "kvstore": LiveApp(
        type_id=KvStoreServant.type_id,
        make_factory=make_kvstore_factory,
        progress_of=lambda servant: servant.echo_count,
        make_driver=PacketDriverServant,
    ),
    "kvstore-read": LiveApp(
        type_id=KvStoreServant.type_id,
        make_factory=make_kvstore_factory,
        progress_of=lambda servant: sorted(
            (k, v) for k, v in servant.data.items()
            if isinstance(k, str) and k.startswith("k")),
        make_driver=ReadMixDriver,
    ),
}


#: Replies every driver must have before :func:`deploy` calls load flowing.
WARMUP_ACKS = 20


async def deploy(system, app: LiveApp, nodes: Sequence[str], *,
                 state_size: int, drivers: int = 1,
                 suffix: str = "") -> Tuple[Any, List[ClosedLoopDriver]]:
    """Deploy ``app`` on ``nodes`` of ``system`` (one ring, or a sharded
    facade that pins the groups to the ring hosting ``nodes``): the rest
    of ``nodes`` replicate the server, the first hosts ``drivers``
    closed-loop clients; ``suffix`` keeps the group ids of several
    deployments on one facade apart.  Returns the server group's handle
    and the driver servants once each has :data:`WARMUP_ACKS` replies;
    raises :class:`RuntimeError` naming the step that did not finish."""
    driver_node, servers = nodes[0], list(nodes[1:])

    def props(replicas: int) -> FTProperties:
        return FTProperties(initial_replicas=replicas, min_replicas=1,
                            fault_monitoring_interval=0.5)

    async def expect(predicate, timeout: float, failure: str) -> None:
        if not await system.wait_for(predicate, timeout=timeout):
            raise RuntimeError(failure)

    system.register_factory(app.type_id, app.make_factory(state_size),
                            nodes=servers)
    group = system.create_group(f"app{suffix}", app.type_id,
                                props(len(servers)), nodes=servers)
    await expect(lambda: all(group.is_operational_on(n) for n in servers),
                 15.0, f"app group never became operational on {servers}")
    iogr = group.iogr().stringify()
    system.register_factory(ClosedLoopDriver.type_id,
                            lambda: app.make_driver(iogr),
                            nodes=[driver_node])
    groups = [system.create_group(f"driver{i}{suffix}",
                                  ClosedLoopDriver.type_id, props(1),
                                  nodes=[driver_node])
              for i in range(drivers)]

    def servants() -> List[Any]:
        return [g.servant_on(driver_node) for g in groups]

    await expect(lambda: all(d is not None and d.acked >= WARMUP_ACKS
                             for d in servants()),
                 20.0, f"no load flowing from {driver_node} (some driver "
                       f"got <{WARMUP_ACKS} replies in 20 s)")
    return group, servants()
