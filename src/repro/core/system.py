"""Substrate-independent assembly of an Eternal deployment.

:class:`SystemCore` wires one protocol stack per node (host → transport →
Totem ring member → Replication/Recovery Mechanisms) plus the managers on
a designated manager node, without committing to a substrate.  Two
subclasses provide the world the stacks run in:

* :class:`repro.simnet.system.EternalSystem` — the deterministic
  discrete-event simulator;
* :class:`repro.live.system.LiveSystem` — asyncio over real UDP sockets
  and the wall clock.

Several such systems, one per Totem ring, sit behind one
:class:`repro.core.sharded.ShardedCore`; what a ring and that facade
share — the observability plane — is :class:`ObservedSystem`.

Typical use::

    system = EternalSystem(["n1", "n2", "n3"])
    system.register_factory("IDL:Counter:1.0", CounterServant)
    group = system.create_group("counter", "IDL:Counter:1.0",
                                FTProperties(initial_replicas=2))
    system.run_for(0.05)              # let the ring form and deploy
    ...
    system.kill_node("n2")            # fault injection
    system.restart_node("n2")         # re-launch; recovery synchronizes it
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.config import EternalConfig
from repro.core.managers import (
    EvolutionManager,
    ReplicationManager,
    ResourceManager,
)
from repro.core.replication import ReplicationMechanisms
from repro.errors import SimulationError, UnknownNode
from repro.ftcorba.fault_notifier import FaultNotifier
from repro.ftcorba.generic_factory import FactoryRegistry
from repro.ftcorba.properties import FTProperties
from repro.giop.ior import IOR
from repro.obs.exporters import export_chrome_trace, export_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import ProfilingConfig, SpanResourceProfiler
from repro.obs.telemetry import TelemetryConfig, TelemetryPlane
from repro.runtime.interfaces import Host, Transport
from repro.runtime.trace import Tracer
from repro.store.base import DurableStore
from repro.totem.config import TotemConfig
from repro.totem.member import TotemMember


class ObservedSystem:
    """One observability plane on one scheduler: what a single-ring
    :class:`SystemCore` and a multi-ring
    :class:`~repro.core.sharded.ShardedCore` have in common.

    The subclass constructor sets ``self.scheduler`` before calling
    :meth:`_init_plane`, so the sampler can start immediately.  A ring of
    a sharded facade builds no plane of its own: it adopts the facade's
    (``_init_core(shared_observability=facade)``), and the facade keeps
    the lifecycle — clock binding, sampler start, teardown.
    """

    auditor = None    # set by attach_auditor()

    def _init_plane(self, *, keep_trace_records: bool,
                    telemetry: Optional[TelemetryConfig] = None,
                    profiling: Optional[ProfilingConfig] = None) -> None:
        self.tracer = Tracer(keep_records=keep_trace_records)
        self.tracer.bind_clock(lambda: self.now)
        # The metrics registry rides the trace stream: every completed
        # span becomes a latency sample, with or without record
        # retention.
        self.metrics = MetricsRegistry()
        self.metrics.bind(self.tracer)
        # The telemetry plane (flight recorder + metrics history) rides
        # the same stream and polls ``self.stacks``.
        self.telemetry = TelemetryPlane(
            telemetry or TelemetryConfig(),
            tracer=self.tracer, metrics=self.metrics,
            clock=lambda: self.now,
        )
        self.telemetry.bind_system(self)
        if self.telemetry.enabled:
            self.telemetry.start_sampler(self.scheduler)
        # Span-scoped resource attribution (CPU/alloc per phase) is a
        # third subscriber on the same stream; inert — never
        # subscribed — unless its config enables it, so the default
        # hot path pays nothing.
        self.profiler = SpanResourceProfiler(
            profiling or ProfilingConfig(), metrics=self.metrics,
        ).attach(self.tracer)

    @property
    def now(self) -> float:
        return self.scheduler.now

    def attach_auditor(self, auditor=None):
        """Subscribe an online consistency auditor to this system's trace
        stream (see :mod:`repro.obs.audit`).  Creates one unless an
        instance is supplied.  On a sharded facade it is one auditor for
        the whole cluster: records carry ``ring=`` labels, so its shadow
        state (and findings) are ring-scoped."""
        if auditor is None:
            from repro.obs.audit import ConsistencyAuditor
            auditor = ConsistencyAuditor()
        self.auditor = auditor.bind(self.tracer)
        if self.telemetry.enabled:
            # A consistency violation is exactly when the recent past
            # matters: findings trigger a flight-recorder dump.
            self.auditor.on_finding = self.telemetry.flight.record_finding
        return self.auditor

    def export_trace(self, path: str, *, fmt: str = "chrome") -> int:
        """Export the retained trace to ``path``.

        ``fmt="chrome"`` writes Chrome ``trace_event`` JSON (open in
        ``chrome://tracing`` or Perfetto); ``fmt="jsonl"`` writes one JSON
        object per record.  Returns the number of events/records written
        (requires the system to have been built with
        ``keep_trace_records=True``).
        """
        if fmt == "chrome":
            return export_chrome_trace(self.tracer.records, path)
        if fmt == "jsonl":
            return export_jsonl(self.tracer.records, path)
        raise ValueError(f"unknown trace format {fmt!r}")


class NodeStack:
    """One node's live protocol stack (rebuilt from scratch on restart)."""

    def __init__(self, system: "SystemCore", process: Host) -> None:
        self.system = system
        self.process = process
        self.endpoint: Optional[Transport] = None
        self.totem: Optional[TotemMember] = None
        self.mechanisms: Optional[ReplicationMechanisms] = None
        self.build()
        process.on_restart(self.build)

    @property
    def node_id(self) -> str:
        return self.process.node_id

    def build(self) -> None:
        """(Re)construct the stack: a fresh transport, a fresh ring member
        (which joins the ring as a history-less member), and fresh empty
        mechanisms.  Replica re-placement is the Replication Manager's job."""
        system = self.system
        first_build = self.mechanisms is None
        self.endpoint = system._make_transport(self.process)
        self.totem = TotemMember(
            self.endpoint, system.totem_config,
            on_deliver=lambda origin, payload: None,   # mechanisms rebind
            tracer=system.tracer,
        )
        self.mechanisms = ReplicationMechanisms(
            self.totem,
            system.factories.factory_for(self.node_id),
            system.eternal_config,
            announce_epoch=(0 if first_build
                            else self.process.next_announce_epoch()),
            tracer=system.tracer,
            # The store outlives the stack, like a disk outlives a process:
            # cached at the system level, re-adopted on every rebuild.
            store=system._store_for(self.node_id),
        )
        if system.gateway_port is not None:
            # Sharded deployment: re-install the cross-ring gateway port on
            # every rebuild, so a restarted node resumes forwarding duty.
            self.mechanisms.gateway = system.gateway_port
        if self.node_id == system.manager_node:
            system._attach_managers(self.mechanisms)


class GroupHandle:
    """Convenience handle over one deployed object group."""

    def __init__(self, system: "SystemCore", group_id: str) -> None:
        self.system = system
        self.group_id = group_id

    def iogr(self) -> IOR:
        """The group's published reference (clients connect to this)."""
        info = self._info()
        from repro.ftcorba.object_group import GROUP_PORT
        from repro.orb.objectkey import make_key
        return IOR(
            type_id=info.type_id,
            host=self.group_id,
            port=GROUP_PORT,
            object_key=make_key("RootPOA", self.group_id.encode("ascii")),
        )

    def _info(self):
        for stack in self.system.stacks.values():
            if not stack.process.alive or stack.mechanisms is None:
                continue
            info = stack.mechanisms.groups.get(self.group_id)
            if info is not None:
                return info
        raise SimulationError(f"no live node knows group {self.group_id!r}")

    def operational_nodes(self) -> List[str]:
        return self._info().operational_nodes()

    def member_nodes(self) -> List[str]:
        return self._info().member_nodes

    def primary_node(self) -> Optional[str]:
        return self._info().primary_node

    def is_operational_on(self, node_id: str) -> bool:
        stack = self.system.stacks[node_id]
        if not stack.process.alive or stack.mechanisms is None:
            return False
        binding = stack.mechanisms.bindings.get(self.group_id)
        return binding is not None and binding.operational

    def servant_on(self, node_id: str):
        """The live servant instance on a node (test/bench introspection)."""
        stack = self.system.stacks[node_id]
        binding = stack.mechanisms.bindings.get(self.group_id)
        return binding.container.servant if binding else None

    def binding_on(self, node_id: str):
        stack = self.system.stacks[node_id]
        return stack.mechanisms.bindings.get(self.group_id)

    def connect_from(self, node_id: str):
        """A proxy to this group from a replica container hosted on
        ``node_id`` (any group's container on that node works — the proxy
        rides its ORB and Interceptor, so the invocations are ordered and
        deduplicated like all application traffic).

        Convenience for tests and interactive exploration; applications
        normally connect from inside their servants via
        ``self._eternal_container.connect(ior)``.
        """
        stack = self.system.stacks[node_id]
        for binding in stack.mechanisms.bindings.values():
            if binding.container.instantiated:
                return binding.container.connect(self.iogr())
        raise SimulationError(
            f"no instantiated replica container on {node_id!r} to "
            f"connect from"
        )


class SystemCore(ObservedSystem):
    """A complete deployment of the Eternal system over some substrate.

    Subclasses own the substrate (clock, hosts, transports, fault
    injection) and call :meth:`_init_core` then :meth:`_add_stack` per
    node; everything else — deployment, group handles, introspection,
    trace export — is shared.
    """

    # Subclasses must define: ``scheduler``, ``_make_transport``,
    # ``kill_node``, ``restart_node``, and a way to advance time
    # (``run_for``/``wait_for`` — synchronous in the simulator, ``async``
    # in the live runtime).

    def _init_core(
        self,
        node_ids: List[str],
        *,
        totem_config: Optional[TotemConfig],
        eternal_config: Optional[EternalConfig],
        manager_node: Optional[str],
        keep_trace_records: bool,
        telemetry: Optional[TelemetryConfig] = None,
        profiling: Optional[ProfilingConfig] = None,
        store_factory: Optional[Callable[[str], "DurableStore"]] = None,
        shared_observability: Optional[ObservedSystem] = None,
        ring_name: str = "",
        gateway_port=None,
    ) -> None:
        if not node_ids:
            raise SimulationError("need at least one node")
        #: Shard identity of this (sub-)system in a multi-ring deployment
        #: ("" for the classic single-ring case); health/top group per-ring
        #: stats by it via ``stack.system.ring_name``.
        self.ring_name = ring_name
        if shared_observability is not None:
            # A ring of a sharded facade: adopt the facade's plane.  The
            # scoped tracer stamps every record with this ring's name.
            shared = shared_observability
            self.tracer = (shared.tracer.scoped(ring=ring_name)
                           if ring_name else shared.tracer)
            self.metrics = shared.metrics
            self.telemetry = shared.telemetry
            self.profiler = shared.profiler
        else:
            self._init_plane(keep_trace_records=keep_trace_records,
                             telemetry=telemetry, profiling=profiling)
        self.totem_config = totem_config or TotemConfig()
        self.eternal_config = eternal_config or EternalConfig()
        self.factories = FactoryRegistry()
        self.manager_node = manager_node or node_ids[0]
        self.fault_notifier = FaultNotifier()
        self.replication_manager: Optional[ReplicationManager] = None
        self.evolution_manager: Optional[EvolutionManager] = None
        self.resource_manager = ResourceManager(self.factories)
        # Cross-ring gateway port of a ring of a sharded facade;
        # NodeStack.build installs it on every mechanisms instance,
        # including rebuilds after a restart.
        self.gateway_port = gateway_port
        # Durable stores persist at the system level — a node's journal
        # survives any number of kill/restart cycles of its process, the
        # way a disk survives a power cycle.  ``store_factory(node_id)``
        # creates one per node lazily; None means fully volatile (the
        # pre-store behaviour).
        self.store_factory = store_factory
        self.stores: Dict[str, "DurableStore"] = {}
        self.stacks: Dict[str, NodeStack] = {}

    def _add_stack(self, process: Host) -> NodeStack:
        stack = NodeStack(self, process)
        self.stacks[process.node_id] = stack
        return stack

    def _store_for(self, node_id: str) -> Optional["DurableStore"]:
        if self.store_factory is None:
            return None
        store = self.stores.get(node_id)
        if store is None:
            store = self.store_factory(node_id)
            store.bind_tracer(self.tracer, node_id)
            self.stores[node_id] = store
        return store

    def close_stores(self) -> None:
        for store in self.stores.values():
            store.close()

    def _make_transport(self, process: Host) -> Transport:
        """Build the substrate's transport for one host (called on every
        stack build, including rebuilds after a restart)."""
        raise NotImplementedError

    def _attach_managers(self, mechanisms: ReplicationMechanisms) -> None:
        """(Re)bind the managers to the manager node's current stack."""
        previous = self.replication_manager
        self.replication_manager = ReplicationManager(
            mechanisms, self.factories, self.resource_manager,
            self.fault_notifier,
        )
        if previous is not None:
            self.replication_manager.groups = previous.groups
        self.evolution_manager = EvolutionManager(self.replication_manager)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def register_factory(self, type_id: str, factory: Callable,
                         *, version: int = 0,
                         nodes: Optional[List[str]] = None) -> None:
        """Make ``factory`` available for creating replicas of ``type_id``
        (on all nodes by default)."""
        target_nodes = nodes if nodes is not None else list(self.stacks)
        self.factories.register_everywhere(target_nodes, type_id, factory,
                                           version)

    def create_group(self, group_id: str, type_id: str,
                     properties: Optional[FTProperties] = None,
                     nodes: Optional[List[str]] = None) -> GroupHandle:
        """Deploy a replicated object group; returns its handle.

        The deployment becomes effective when the GroupUpdate envelope is
        delivered (let the system run briefly)."""
        self.replication_manager.create_group(
            group_id, type_id, properties or FTProperties(), nodes
        )
        return GroupHandle(self, group_id)

    # ------------------------------------------------------------------
    # Time and faults (substrate-specific)
    # ------------------------------------------------------------------

    def kill_node(self, node_id: str) -> None:
        raise NotImplementedError

    def restart_node(self, node_id: str) -> None:
        raise NotImplementedError

    def hang_replica(self, group_id: str, node_id: str) -> None:
        """Inject a replica-hang fault: the servant stops completing
        operations while its process stays alive.  Detected by the
        pull-based fault monitor at the group's fault monitoring interval."""
        binding = self.stack(node_id).mechanisms.bindings.get(group_id)
        if binding is None or binding.container.servant is None:
            raise SimulationError(
                f"no live replica of {group_id!r} on {node_id!r}"
            )
        binding.container.servant._hung_for_test = True
        self.tracer.emit("fault", "replica_hang", node=node_id,
                         group=group_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stack(self, node_id: str) -> NodeStack:
        try:
            return self.stacks[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def mechanisms(self, node_id: str) -> ReplicationMechanisms:
        return self.stack(node_id).mechanisms

    def ring_formed(self) -> bool:
        """True when every live node's ring member is operational in the
        same view."""
        live = [s for s in self.stacks.values() if s.process.alive]
        if not live:
            return False
        views = {s.totem.ring_id for s in live}
        return (len(views) == 1
                and all(s.totem.operational for s in live)
                and all(set(s.totem.members) ==
                        {t.node_id for t in live} for s in live))
