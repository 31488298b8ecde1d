"""Online consistency auditing over the trace stream.

The paper's guarantee is *strong replica consistency* — but the test suite
can only assert it after the fact, by comparing servant states once a
scenario has quiesced.  :class:`ConsistencyAuditor` instead subscribes to
the live trace stream (the same stream spans, metrics, and exporters ride)
and continuously verifies the invariants the §5.1 protocol is supposed to
maintain *while the simulation runs*:

* **state-digest** — every responder to one recovery ``get_state()``
  captures its application state independently; the digests emitted at the
  capture/``set_state``/checkpoint boundaries must agree for one transfer
  within one group.  A disagreement is a replica that diverged *before*
  the fault, which offline convergence checks can never see (the divergent
  state is simply transferred onward).
* **order-digest** — every Totem member maintains a rolling hash over the
  sequence of delivered message ids and publishes it at fixed delivery
  intervals; members of the same ring configuration must publish identical
  hashes at identical positions (total-order agreement, checked at
  runtime rather than assumed).
* **duplicate-delivery** — the same Eternal operation identifier must
  never be handed to a servant twice within one replica incarnation (§2.1
  at-most-once); the auditor shadows the duplicate filters with an
  independent one fed from ``replication.delivered`` records.
* **recovery-window** — between the ``get_state()`` synchronization point
  and reinstatement, a recovering replica must execute no normal
  invocation (§5.1 step (vi) enqueues them), and a fabricated
  ``set_state()`` may only be applied inside such a window (or as a warm
  backup's announced checkpoint application) — i.e. inside a quiesced
  window.
* **span-structure** — recovery spans must nest correctly: no completed
  child outside its parent's interval and no ``span_end`` without a start.

Violations surface as structured :class:`AuditFinding` records carrying
the offending group/node/span/message identifiers, are counted by
invariant in the health exposition (``eternal_audit_findings_total``),
and can be promoted to hard test failures with the ``strict_audit``
pytest fixture (see ``tests/conftest.py``) or
:meth:`ConsistencyAuditor.finish` with ``raise_on_findings=True``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.identifiers import ConnectionKey, DuplicateFilter, OpKind, OperationId
from repro.obs.spans import SPAN_CATEGORY, SpanTracker
from repro.runtime.trace import TraceRecord, Tracer

AUDIT_CATEGORY = "audit"

# Invariant identifiers (the ``invariant`` field of findings and the
# ``invariant`` label of ``eternal_audit_findings_total``).
STATE_DIGEST = "state-digest"
ORDER_DIGEST = "order-digest"
DUPLICATE_DELIVERY = "duplicate-delivery"
RECOVERY_WINDOW = "recovery-window"
SET_STATE_WINDOW = "set-state-window"
SPAN_STRUCTURE = "span-structure"
LEASE_WINDOW = "lease-window"

INVARIANTS = (STATE_DIGEST, ORDER_DIGEST, DUPLICATE_DELIVERY,
              RECOVERY_WINDOW, SET_STATE_WINDOW, SPAN_STRUCTURE,
              LEASE_WINDOW)


def state_digest(*blobs: bytes) -> str:
    """Short, stable content digest used for cross-replica comparison."""
    h = hashlib.blake2b(digest_size=8)
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


class AuditViolation(AssertionError):
    """Raised by :meth:`ConsistencyAuditor.finish` in hard-fail mode."""


@dataclass(frozen=True)
class AuditFinding:
    """One detected invariant violation.

    ``ring`` names the shard whose stream produced the evidence (empty
    string for a single-ring deployment): every shadow structure the
    auditor keeps is keyed by it, so a violation in one ring can neither
    poison nor be masked by another ring's state.
    """

    invariant: str
    time: float
    detail: str
    group: Optional[str] = None
    node: Optional[str] = None
    span_id: Optional[str] = None
    message_id: Optional[str] = None
    ring: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - display helper
        where = " ".join(f"{k}={v}" for k, v in (
            ("ring", self.ring or None), ("group", self.group),
            ("node", self.node), ("span", self.span_id),
            ("message", self.message_id),
        ) if v is not None)
        return f"[{self.time:.6f}] {self.invariant}: {self.detail} ({where})"


@dataclass
class _RecoveryWindow:
    """An open quiesced window on one (node, group)."""

    transfer: str
    opened_at: float
    kind: str                     # "recovery" | "failover"
    set_state_applied: bool = False


class ConsistencyAuditor:
    """Streaming invariant checker over trace records.

    Feed it live (``auditor.bind(tracer)`` or
    ``EternalSystem.attach_auditor()``) or after the fact
    (:meth:`from_records`).  Call :meth:`finish` once the scenario is done
    to run the end-of-stream checks (span structure) and obtain the final
    findings list.
    """

    def __init__(self) -> None:
        self.findings: List[AuditFinding] = []
        self.records_scanned = 0
        self._finished = False
        # Every shadow structure below is keyed by the ring (shard) label
        # first — "" in single-ring deployments — so invariant evidence
        # from one ring can never be compared against another's.
        # state-digest: (ring, group, transfer) -> node -> digest
        self._digests: Dict[Tuple[str, str, str], Dict[str, str]] = {}
        # order-digest: (ring, cfg, base, seq) -> (node, digest)
        self._order: Dict[Tuple[str, str, int, int], Tuple[str, str]] = {}
        self._order_checked = 0
        # duplicate-delivery: one shadow filter per replica incarnation
        self._delivered: Dict[Tuple[str, str, str], DuplicateFilter] = {}
        # recovery windows: (ring, node, group) -> open window
        self._windows: Dict[Tuple[str, str, str], _RecoveryWindow] = {}
        # warm backups: announced checkpoint applications pending on
        # (ring, node, group); capped — a stale grant must not mask real
        # violations forever.
        self._checkpoint_grants: Dict[Tuple[str, str, str], int] = {}
        # lease-window: per-node installed ring (None while in GATHER),
        # plus every ring membership ever installed by anyone in the same
        # shard — the evidence for judging lease.read_served events.
        self._node_ring: Dict[Tuple[str, str], Optional[int]] = {}
        self._ring_members: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        self._spans = SpanTracker()
        #: Called with each new AuditFinding the moment it is flagged
        #: (the telemetry plane hooks this to dump the flight recorder).
        self.on_finding: Optional[Callable[[AuditFinding], None]] = None
        # Span ids already open when we subscribed mid-stream: their ends
        # are legitimate, not orphans.
        self._preexisting_spans: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, tracer: Tracer) -> "ConsistencyAuditor":
        """Subscribe to a tracer's live record stream.

        Spans already open at this moment (the tracer tracks them) will
        close without us having seen their start — remember them so the
        structural check does not flag their ends as orphans.
        """
        if tracer.open_spans is not None:
            self._preexisting_spans = frozenset(tracer.open_spans)
        tracer.subscribe(self.observe, kinds=self.KINDS)
        return self

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]
                     ) -> "ConsistencyAuditor":
        """Replay a retained trace through a fresh auditor (not finished)."""
        auditor = cls()
        for record in records:
            auditor.observe(record)
        return auditor

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.findings

    def findings_by_invariant(self) -> Dict[str, List[AuditFinding]]:
        out: Dict[str, List[AuditFinding]] = {}
        for finding in self.findings:
            out.setdefault(finding.invariant, []).append(finding)
        return out

    def _flag(self, invariant: str, time: float, detail: str,
              **ids: Optional[str]) -> None:
        finding = AuditFinding(invariant=invariant, time=time,
                               detail=detail, **ids)
        self.findings.append(finding)
        if self.on_finding is not None:
            self.on_finding(finding)

    def summary(self) -> str:
        """One-paragraph human summary (examples, demo, CLI)."""
        status = "OK" if self.ok else "VIOLATED"
        lines = [f"audit: {status} — {self.records_scanned} records, "
                 f"{len(self._digests)} state transfers, "
                 f"{self._order_checked} order checkpoints, "
                 f"{len(self.findings)} finding(s)"]
        for finding in self.findings:
            lines.append(f"  {finding}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Streaming checks
    # ------------------------------------------------------------------

    #: The record kinds :meth:`observe` reads, one per branch.
    KINDS = (SPAN_CATEGORY,
             "audit.state_digest", "audit.order_digest",
             "replication.delivered", "replication.binding_created",
             "replication.binding_destroyed",
             "recovery.sync_point", "recovery.failover_begin",
             "recovery.cold_seed_restore", "recovery.recovered",
             "recovery.checkpoint_logged",
             "replica.executed", "replica.set_state",
             "totem.install", "totem.gather",
             "lease.read_served")

    def observe(self, record: TraceRecord) -> None:
        """Consume one trace record (subscriber entry point; bound to
        :attr:`KINDS`, and fed every record by :meth:`from_records`)."""
        self.records_scanned += 1
        category = record.category
        if category == SPAN_CATEGORY:
            self._spans.feed(record)
        elif category == AUDIT_CATEGORY:
            if record.event == "state_digest":
                self._on_state_digest(record)
            elif record.event == "order_digest":
                self._on_order_digest(record)
        elif category == "replication":
            if record.event == "delivered":
                self._on_delivered(record)
            elif record.event in ("binding_created", "binding_destroyed"):
                self._on_binding_reset(record)
        elif category == "recovery":
            self._on_recovery_event(record)
        elif category == "replica":
            if record.event == "executed":
                self._on_executed(record)
            elif record.event == "set_state":
                self._on_set_state(record)
        elif category == "totem":
            if record.event == "install":
                ring = self._ring_of(record)
                node = record.fields.get("node", "")
                ring_id = int(record.fields.get("ring_id", 0))
                self._node_ring[(ring, node)] = ring_id
                self._ring_members[(ring, ring_id)] = tuple(
                    record.fields.get("members", ()))
            elif record.event == "gather":
                self._node_ring[
                    (self._ring_of(record), record.fields.get("node", ""))
                ] = None
        elif category == "lease":
            if record.event == "read_served":
                self._on_read_served(record)

    @staticmethod
    def _ring_of(record: TraceRecord) -> str:
        """The shard label stamped on the record ("" when single-ring)."""
        return str(record.fields.get("ring", ""))

    # -- state digests -----------------------------------------------------

    def _on_state_digest(self, record: TraceRecord) -> None:
        fields = record.fields
        ring = self._ring_of(record)
        group = fields.get("group", "")
        transfer = fields.get("transfer", "")
        node = fields.get("node", "")
        digest = fields.get("digest", "")
        per_node = self._digests.setdefault((ring, group, transfer), {})
        disagreeing = sorted(
            f"{other}={other_digest}"
            for other, other_digest in per_node.items()
            if other_digest != digest
        )
        per_node[node] = digest
        if disagreeing:
            self._flag(
                STATE_DIGEST, record.time,
                f"state digest {digest} from {node} "
                f"({fields.get('role', '?')}) disagrees with "
                f"{', '.join(disagreeing)}",
                group=group, node=node, span_id=transfer, ring=ring,
            )

    # -- delivery-order digests --------------------------------------------

    def _on_order_digest(self, record: TraceRecord) -> None:
        fields = record.fields
        ring = self._ring_of(record)
        key = (ring, str(fields.get("cfg", "")), int(fields.get("base", 0)),
               int(fields.get("seq", 0)))
        node = fields.get("node", "")
        digest = str(fields.get("digest", ""))
        self._order_checked += 1
        reference = self._order.get(key)
        if reference is None:
            self._order[key] = (node, digest)
            return
        ref_node, ref_digest = reference
        if digest != ref_digest:
            self._flag(
                ORDER_DIGEST, record.time,
                f"delivery-order hash diverged at config {key[1]} "
                f"seq {key[3]}: {node}={digest} vs {ref_node}={ref_digest}",
                node=node, message_id=f"seq:{key[3]}", ring=ring,
            )

    # -- duplicate suppression ---------------------------------------------

    def _on_delivered(self, record: TraceRecord) -> None:
        fields = record.fields
        ring = self._ring_of(record)
        node = fields.get("node", "")
        group = fields.get("group", "")
        op = OperationId(
            ConnectionKey.from_str(fields.get("conn", "->")),
            int(fields.get("request_id", -1)),
            OpKind[fields.get("kind", "REQUEST")],
        )
        shadow = self._delivered.setdefault((ring, node, group),
                                            DuplicateFilter())
        if shadow.seen_before(op):
            self._flag(
                DUPLICATE_DELIVERY, record.time,
                f"operation {op.kind.name} {fields.get('conn')}#"
                f"{op.request_id} delivered twice to the servant",
                group=group, node=node, ring=ring,
                message_id=f"{fields.get('conn')}#{op.request_id}"
                           f"/{op.kind.name}",
            )

    def _on_binding_reset(self, record: TraceRecord) -> None:
        """A replica incarnation began or ended: restart its shadows."""
        key = (self._ring_of(record), record.fields.get("node", ""),
               record.fields.get("group", ""))
        self._delivered.pop(key, None)
        self._windows.pop(key, None)
        self._checkpoint_grants.pop(key, None)

    # -- quiesced windows ---------------------------------------------------

    def _on_recovery_event(self, record: TraceRecord) -> None:
        fields = record.fields
        key = (self._ring_of(record), fields.get("node", ""),
               fields.get("group", ""))
        if record.event == "sync_point":
            self._windows[key] = _RecoveryWindow(
                transfer=fields.get("transfer", ""),
                opened_at=record.time, kind="recovery",
            )
        elif record.event == "failover_begin":
            self._windows[key] = _RecoveryWindow(
                transfer="failover", opened_at=record.time, kind="failover",
            )
        elif record.event == "cold_seed_restore":
            # A cold-boot seed restores itself from its durable journal:
            # set_state and the log replay's executions are the recovery
            # mechanism itself, inside a window nobody else is alive to
            # quiesce (new deliveries are enqueued until it closes).
            self._windows[key] = _RecoveryWindow(
                transfer=fields.get("transfer", ""),
                opened_at=record.time, kind="coldboot",
            )
        elif record.event == "recovered":
            self._windows.pop(key, None)
        elif record.event == "checkpoint_logged":
            grants = self._checkpoint_grants.get(key, 0)
            self._checkpoint_grants[key] = min(grants + 1, 2)

    def _on_executed(self, record: TraceRecord) -> None:
        fields = record.fields
        key = (self._ring_of(record), fields.get("node", ""),
               fields.get("group", ""))
        window = self._windows.get(key)
        if window is not None and window.kind != "coldboot":
            self._flag(
                RECOVERY_WINDOW, record.time,
                f"operation {fields.get('operation', '?')!r} executed "
                f"inside the {window.kind} window opened at "
                f"{window.opened_at:.6f} (messages must be enqueued "
                f"until state assignment completes)",
                group=key[2], node=key[1], span_id=window.transfer,
                ring=key[0],
            )

    def _on_set_state(self, record: TraceRecord) -> None:
        fields = record.fields
        key = (self._ring_of(record), fields.get("node", ""),
               fields.get("group", ""))
        window = self._windows.get(key)
        if window is not None:
            window.set_state_applied = True
            return
        grants = self._checkpoint_grants.get(key, 0)
        if grants > 0:
            self._checkpoint_grants[key] = grants - 1
            return
        self._flag(
            SET_STATE_WINDOW, record.time,
            "set_state applied outside a quiesced window (no recovery "
            "sync point, no failover, no announced checkpoint)",
            group=key[2], node=key[1], ring=key[0],
        )

    # -- lease windows -----------------------------------------------------

    def _on_read_served(self, record: TraceRecord) -> None:
        """A fast read may only be served *inside* the serving node's
        installed ring: the node must hold an installed membership, it
        must match the ring the lease claims, and no node may have
        installed a newer ring that excludes the server (Totem's timeout
        ordering guarantees the stale leaseholder notices its revocation
        first — a serve after such an install means that ordering was
        violated)."""
        fields = record.fields
        ring = self._ring_of(record)
        node = fields.get("node", "")
        served_ring = int(fields.get("ring_id", 0))
        group = fields.get("group")
        if (ring, node) in self._node_ring:
            installed = self._node_ring[(ring, node)]
            if installed is None:
                self._flag(
                    LEASE_WINDOW, record.time,
                    "fast read served while the node was in GATHER "
                    "(no installed ring — lease revoked)",
                    group=group, node=node, ring=ring,
                )
                return
            if installed != served_ring:
                self._flag(
                    LEASE_WINDOW, record.time,
                    f"fast read served under ring {served_ring} but the "
                    f"node's installed ring is {installed}",
                    group=group, node=node, ring=ring,
                )
                return
            members = self._ring_members.get((ring, installed), ())
            if members and node not in members:
                self._flag(
                    LEASE_WINDOW, record.time,
                    f"fast read served by a node outside its own ring "
                    f"{installed} membership {members}",
                    group=group, node=node, ring=ring,
                )
                return
        # Cross-node ordering: a newer installed ring that excludes the
        # server means its lease was already revoked when the new ring
        # became operational.  (Judged even when the server's own install
        # predates our subscription.)  Strictly scoped to the same shard:
        # ring ids of independent shards share a number space but nothing
        # else, so only installs from this shard's stream are evidence.
        for (shard, ring_id), members in self._ring_members.items():
            if shard != ring:
                continue
            if ring_id > served_ring and members and node not in members:
                self._flag(
                    LEASE_WINDOW, record.time,
                    f"fast read served under ring {served_ring} after "
                    f"ring {ring_id} (which excludes the server) was "
                    f"installed",
                    group=group, node=node, ring=ring,
                )
                return

    # ------------------------------------------------------------------
    # End-of-stream checks
    # ------------------------------------------------------------------

    def finish(self, *, raise_on_findings: bool = False
               ) -> List[AuditFinding]:
        """Run the structural end-of-stream checks and return all findings.

        Idempotent.  Unfinished spans are *not* violations (a node killed
        mid-recovery legitimately abandons its spans); malformed structure
        — ends without starts, children outside their parent's interval —
        is.
        """
        if not self._finished:
            self._finished = True
            for record in self._spans.orphan_ends:
                span_id = str(record.fields.get("span"))
                if span_id in self._preexisting_spans:
                    continue
                self._flag(
                    SPAN_STRUCTURE, record.time,
                    "span_end without a matching span_start",
                    span_id=span_id,
                )
            for span in self._spans.nesting_violations():
                self._flag(
                    SPAN_STRUCTURE, span.end if span.end is not None
                    else span.start,
                    f"span {span.name} [{span.start:.6f}, {span.end:.6f}] "
                    f"escapes its parent {span.parent_id}",
                    group=span.attrs.get("group"),
                    node=span.attrs.get("node"),
                    span_id=span.span_id,
                )
        if raise_on_findings and self.findings:
            raise AuditViolation(self.summary())
        return self.findings
