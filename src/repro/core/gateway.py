"""Cross-ring invocation bridging for sharded deployments.

Placement (:mod:`repro.core.placement`) makes the common case local: a
client driver is deployed into the same Totem ring as the group it
drives, so its invocations never leave that ring's total order.  The
uncommon case — a proxy on ring A invoking a group placed on ring B —
still has to work.  The bridge below handles it without any new wire
protocol:

* Inside ring A the request is an ordinary :class:`IiopEnvelope`
  multicast; every member delivers it, finds no local binding for the
  target group, and hands it to its :class:`RingGatewayPort`.
* The port forwards only from the elected **gateway node** — the lowest
  live member of the installed ring view — so one ordered stream of
  deliveries produces one forward, not N.
* The :class:`GatewayBridge` (one per sharded facade, shared by all
  rings) suppresses duplicates per target ring with the interceptor's
  own operation identifiers (:class:`~repro.core.identifiers.
  DuplicateFilter` over ``envelope.operation_id`` — connection,
  request id, REQUEST/REPLY kind), then re-multicasts the envelope into
  the target ring through any live stack there.  Replies traverse the
  same path in reverse: a REPLY's target group is the *client's* group,
  unplaced on the serving ring, so it bridges back symmetrically.

Exactly-once at the target is therefore enforced twice: once at the
bridge (a re-forward after gateway failover, or a client
retransmission of an already-bridged request, is dropped before it
enters the target ring) and once by the target replicas' own duplicate
filters — the paper's §2.1 at-most-once guarantee is never delegated
to the bridge alone.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.core.envelope import IiopEnvelope
from repro.core.identifiers import DuplicateFilter
from repro.runtime.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.replication import ReplicationMechanisms
    from repro.core.system import SystemCore


class RingGatewayPort:
    """One ring's view of the bridge (installed on every stack's
    mechanisms; see ``ReplicationMechanisms.gateway``)."""

    def __init__(self, bridge: "GatewayBridge", ring_name: str) -> None:
        self.bridge = bridge
        self.ring_name = ring_name

    def on_unplaced_iiop(self, envelope: IiopEnvelope,
                         mechanisms: "ReplicationMechanisms") -> None:
        """An ordered IIOP delivery found no local binding on this node.

        Most members simply ignore it (some other node of this ring hosts
        the group, or the group is foreign); only the elected gateway node
        of an installed view forwards foreign traffic to the bridge.
        """
        target = self.bridge.resolve_ring(envelope.target_group)
        if target is None or target == self.ring_name:
            return
        members = mechanisms.totem.members
        if not members or min(members) != mechanisms.node_id:
            return
        self.bridge.forward(self.ring_name, target, envelope)


class GatewayBridge:
    """Routes envelopes between rings with per-target duplicate
    suppression (see the module docstring)."""

    def __init__(self, resolve_ring: Callable[[str], Optional[str]],
                 systems: Dict[str, "SystemCore"],
                 *, tracer: Tracer = NULL_TRACER) -> None:
        self.resolve_ring = resolve_ring
        self.tracer = tracer
        # The facade's own ring table (name -> sub-system), shared rather
        # than copied: a ring's port exists before the ring does.
        self._systems = systems
        # One filter per *target* ring, keyed on the interceptor's
        # operation ids.  It lives at the bridge — not on any node — so
        # it survives gateway-node churn within the source ring.
        self._filters: Dict[str, DuplicateFilter] = {}
        self.forwarded = 0
        self.duplicates = 0

    def _injector(self, ring_name: str) -> Optional["ReplicationMechanisms"]:
        """A live stack of the target ring to multicast through (lowest
        node id for determinism)."""
        system = self._systems.get(ring_name)
        if system is None:
            return None
        for node_id in sorted(system.stacks):
            stack = system.stacks[node_id]
            if stack.process.alive and stack.mechanisms is not None:
                return stack.mechanisms
        return None

    def forward(self, source: str, target: str,
                envelope: IiopEnvelope) -> None:
        mechanisms = self._injector(target)
        if mechanisms is None:
            # Nobody alive to inject through: drop *without* recording the
            # operation id, so a client retransmission can succeed once
            # the target ring has members again.
            return
        shadow = self._filters.setdefault(target, DuplicateFilter())
        if shadow.seen_before(envelope.operation_id):
            self.duplicates += 1
            self.tracer.emit("gateway", "duplicate", source=source,
                             target=target, group=envelope.target_group,
                             request_id=envelope.request_id,
                             kind=envelope.kind.name)
            return
        self.forwarded += 1
        self.tracer.emit("gateway", "forward", source=source, target=target,
                         group=envelope.target_group,
                         request_id=envelope.request_id,
                         kind=envelope.kind.name,
                         trace=envelope.trace_id)
        mechanisms.multicast(envelope)
