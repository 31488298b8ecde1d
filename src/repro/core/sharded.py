"""Sharded deployments: many Totem rings, one facade, either substrate.

One Totem ring serialises all of its traffic through one token
rotation, so aggregate throughput is bounded no matter how many nodes
join.  :class:`ShardedCore` breaks that bound by running N independent
:class:`~repro.core.system.SystemCore` sub-systems — each with its own
medium, its own token rotation, its own managers — on one shared
scheduler, behind:

* a consistent-hashing placement layer
  (:class:`repro.core.placement.HashRing`) mapping object groups to
  rings, with explicit pins taking precedence, so clients resolve
  placement *before* dispatch and the common case never crosses rings;
* a cross-ring :class:`~repro.core.gateway.GatewayBridge` for the
  uncommon case, with per-target-ring duplicate suppression keyed on
  the interceptor's operation ids;
* one shared observability plane (tracer, metrics, telemetry,
  profiler) whose records carry ``ring=<name>`` labels, so per-ring
  health and audit scoping fall out of the trace stream.

The substrate is a ring factory: ``ShardedEternalSystem``
(:mod:`repro.simnet.sharded`) builds simulated rings on one simulated
clock, ``LiveShardedSystem`` (:mod:`repro.live.sharded`) builds UDP
rings on one asyncio loop; everything below is written once.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.gateway import GatewayBridge, RingGatewayPort
from repro.core.placement import HashRing
from repro.core.system import (GroupHandle, NodeStack, ObservedSystem,
                               SystemCore)
from repro.errors import ObjectGroupError, SimulationError, UnknownNode
from repro.ftcorba.properties import FTProperties
from repro.store.base import DurableStore
from repro.totem.config import TotemConfig

#: Default node layout inside each ring: one manager + two servers.
DEFAULT_NODE_TEMPLATE: Sequence[str] = ("m", "s1", "s2")


def ring_label(index: int) -> str:
    """The canonical shard name for ring ``index`` (``r0``, ``r1``, ...)."""
    return f"r{index}"


class ShardedCore(ObservedSystem):
    """N independent rings behind one placement + routing layer.

    Every ring gets the node ids ``<ring>.<suffix>`` for each suffix in
    ``node_template`` (the first suffix hosts that ring's managers) and a
    :class:`TotemConfig` whose ``ring_name`` namespaces its order digests
    and rotation spans in the shared trace stream.
    """

    def _init_sharded(
        self,
        rings: int,
        node_template: Sequence[str],
        build_ring: Callable[..., SystemCore],
        totem_config: TotemConfig,
        **plane,
    ) -> None:
        """Build ``rings`` sub-systems with ``build_ring(index, node_ids,
        **ring_kwargs)`` — the substrate's single-ring constructor with the
        facade's own arguments bound; ``plane`` goes to ``_init_plane``.
        The subclass constructor sets ``self.scheduler`` first: every
        ring's events interleave on that one clock."""
        if rings < 1:
            raise SimulationError("need at least one ring")
        if not node_template:
            raise SimulationError("need at least one node per ring")
        # One observability plane for the whole cluster.  Each ring adopts
        # it through a scoped tracer view stamping ``ring=<name>``.
        self._init_plane(**plane)
        # Placement: hash by default, explicit pins win.  Both sides of the
        # resolver are deterministic, so every client routes identically.
        self.placement = HashRing()
        self._pinned: Dict[str, str] = {}
        self.rings: Dict[str, SystemCore] = {}
        self.bridge = GatewayBridge(self.resolve_ring, self.rings)
        for index in range(rings):
            name = ring_label(index)
            self.rings[name] = build_ring(
                index, [f"{name}.{suffix}" for suffix in node_template],
                totem_config=replace(totem_config, ring_name=name),
                shared_observability=self, ring_name=name,
                # Built before the ring, so the very first stacks install
                # it the same way every rebuild after a restart does.
                gateway_port=RingGatewayPort(self.bridge, name))
            self.placement.add_shard(name)

    # ------------------------------------------------------------------
    # Placement and routing
    # ------------------------------------------------------------------

    def resolve_ring(self, group_id: str) -> Optional[str]:
        """The ring owning ``group_id``: its pin if deployed explicitly,
        else the consistent-hash owner."""
        pinned = self._pinned.get(group_id)
        if pinned is not None:
            return pinned
        return self.placement.owner_of(group_id)

    def ring(self, name: str) -> SystemCore:
        try:
            return self.rings[name]
        except KeyError:
            raise SimulationError(f"no ring named {name!r}") from None

    def ring_of_node(self, node_id: str) -> SystemCore:
        for sub in self.rings.values():
            if node_id in sub.stacks:
                return sub
        raise UnknownNode(node_id)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def register_factory(self, type_id: str, factory: Callable,
                         *, version: int = 0,
                         ring: Optional[str] = None,
                         nodes: Optional[List[str]] = None) -> None:
        """Register a servant factory on every ring, or just one: ``ring``,
        or the ring hosting ``nodes`` (then on those nodes only)."""
        if ring is None and nodes:
            ring = self.ring_of_node(nodes[0]).ring_name
        targets = [self.ring(ring)] if ring else self.rings.values()
        for sub in targets:
            sub.register_factory(type_id, factory, version=version,
                                 nodes=nodes)

    def create_group(self, group_id: str, type_id: str,
                     properties: Optional[FTProperties] = None,
                     nodes: Optional[List[str]] = None,
                     ring: Optional[str] = None) -> GroupHandle:
        """Deploy a group onto its placement-resolved ring (or pin it to
        ``ring`` / the ring hosting ``nodes``).  The returned handle is
        bound to the owning sub-system, so all introspection stays
        ring-scoped."""
        owner = self._pinned.get(group_id)
        if owner is not None:
            # One group id, one ring: a second copy elsewhere would also
            # re-route every client of the first.
            raise ObjectGroupError(
                f"group {group_id!r} already exists on ring {owner!r}")
        if ring is None and nodes:
            ring = self.ring_of_node(nodes[0]).ring_name
        if ring is None:
            ring = self.placement.owner_of(group_id)
        sub = self.ring(ring)
        for node_id in nodes or ():
            if node_id not in sub.stacks:
                raise SimulationError(
                    f"node {node_id!r} is not in ring {ring!r}; groups "
                    f"cannot span rings"
                )
        handle = sub.create_group(group_id, type_id, properties, nodes)
        # Pinned only once deployed: a create that raised leaves routing
        # on the hash owner.
        self._pinned[group_id] = ring
        return handle

    def ring_formed(self) -> bool:
        """True when every ring has formed (all live members operational
        in one view, per ring)."""
        return all(sub.ring_formed() for sub in self.rings.values())

    # ------------------------------------------------------------------
    # Faults (routed to the owning ring)
    # ------------------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        self.ring_of_node(node_id).kill_node(node_id)

    def restart_node(self, node_id: str) -> None:
        self.ring_of_node(node_id).restart_node(node_id)

    # ------------------------------------------------------------------
    # Introspection (node ids are globally unique: ``<ring>.<suffix>``)
    # ------------------------------------------------------------------

    @property
    def stacks(self) -> Dict[str, NodeStack]:
        """All rings' stacks in one mapping (telemetry polls this)."""
        merged = {}
        for sub in self.rings.values():
            merged.update(sub.stacks)
        return merged

    @property
    def stores(self) -> Dict[str, DurableStore]:
        """All rings' durable stores in one mapping (health renders it)."""
        merged = {}
        for sub in self.rings.values():
            merged.update(sub.stores)
        return merged

    def stack(self, node_id: str) -> NodeStack:
        return self.ring_of_node(node_id).stack(node_id)

    def mechanisms(self, node_id: str):
        return self.ring_of_node(node_id).mechanisms(node_id)

    def close_stores(self) -> None:
        for sub in self.rings.values():
            sub.close_stores()
