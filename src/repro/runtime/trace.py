"""Structured event tracing and counters.

Substrate-independent: both the simulator and the live runtime bind their
clock via :meth:`Tracer.bind_clock`.

Benches and tests observe the system through a :class:`Tracer`: every layer
emits ``(time, category, event, fields)`` records and bumps named counters.
The Figure-6 bench, for instance, counts ``totem.frame`` events to verify that
recovery time grows with the number of multicast frames carrying the state.
A quantity that is only ever read as a count is a bare counter
(:meth:`Tracer.add`), not a record: no record is built and no subscriber
runs.  README's record inventory names the reader of every record kind and
counter the program writes.

The tracer is also the transport for the observability layer in
:mod:`repro.obs`: span lifecycles travel as ordinary records in the ``span``
category (see :mod:`repro.obs.spans`), so exporters, the metrics registry,
and the timeline tools all read one stream.

Filtering semantics (see :meth:`Tracer.emit`): **counters always
update**; a muted ``category.event`` stream (:meth:`Tracer.set_muted_events`)
produces no record for any consumer — retention and subscribers alike —
while its counter keeps counting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced event.

    ``slots=True`` matters at trace volume: it removes the per-instance
    ``__dict__``, so allocating — and, for records retained by the flight
    recorder, later destroying — a record touches two heap objects instead
    of three.  Eviction from a full flight ring frees records long after
    they went cache-cold, where per-object cost dominates the plane's
    overhead budget (see :mod:`repro.obs.telemetry`).
    """

    time: float
    category: str
    event: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"[{self.time:.6f}] {self.category}.{self.event} {kv}"


class Tracer:
    """Collects trace records and counters.

    Record retention can be disabled entirely for long benches with
    ``keep_records=False`` — subscribers still see every (unmuted) record
    live; counters always update.
    """

    def __init__(self, *, keep_records: bool = True) -> None:
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        self._keep_records = keep_records
        self._muted: frozenset = frozenset()
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._now: Callable[[], float] = lambda: 0.0
        #: Span ids currently open on this trace stream; maintained by
        #: :class:`repro.obs.spans.SpanEmitter` so that cross-component
        #: spans end exactly once (``None`` disables the bookkeeping).
        self.open_spans: Optional[Set[str]] = set()

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Attach the simulation clock so records carry simulated time."""
        self._now = now

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Register a live callback invoked for every emitted record.

        Subscribers see the same filtered stream retention does: muted
        events are delivered to no one.
        """
        self._subscribers.append(fn)

    def set_muted_events(self, events) -> None:
        """Mute individual ``category.event`` record streams: no record
        is created, retained, or delivered to subscribers; the counter
        keeps counting.  Built for provably consumer-less high-volume events on the live hot
        path, where building and fanning out a record that every
        subscriber ignores is pure overhead."""
        self._muted = frozenset(events)

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record an event and bump its counter (``category.event``).

        The counter updates unconditionally.  The record itself is produced
        only if the event is not muted, and is then both retained (when
        ``keep_records``) and fanned out to every subscriber — the mute
        applies uniformly to retention and subscription.
        """
        key = f"{category}.{event}"
        self.counters[key] += 1
        if key in self._muted:
            return
        if not self._keep_records and not self._subscribers:
            return
        record = TraceRecord(self._now(), category, event, fields)
        if self._keep_records:
            self.records.append(record)
        for fn in self._subscribers:
            fn(record)

    def scoped(self, **extra: Any) -> "ScopedTracer":
        """A view of this tracer whose emits carry ``extra`` fields.

        Built for multi-ring deployments: each ring's stacks emit through
        ``tracer.scoped(ring="r3")`` so every record in the shared stream
        names its ring without any protocol layer knowing about shards.
        """
        return ScopedTracer(self, **extra)

    def count(self, key: str) -> int:
        """Counter value for ``category.event`` (0 if never emitted)."""
        return self.counters.get(key, 0)

    def add(self, key: str, amount: int) -> None:
        """Bump an arbitrary named counter by ``amount`` (e.g. bytes sent)."""
        self.counters[key] += amount

    def find(self, category: str, event: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate retained records matching category (and optionally event)."""
        for record in self.records:
            if record.category != category:
                continue
            if event is not None and record.event != event:
                continue
            yield record

    def clear(self) -> None:
        """Drop retained records and reset all counters."""
        self.records.clear()
        self.counters.clear()
        if self.open_spans is not None:
            self.open_spans.clear()


class ScopedTracer:
    """A delegating view of a :class:`Tracer` that stamps extra fields.

    ``emit`` injects the scope fields via ``setdefault`` — an explicit
    field from the emitting component always wins — and everything else
    (subscription, counters, retained records, span bookkeeping, clock
    binding) is the parent's, so one shared stream serves all scopes.
    Scoped counters still land in the parent's flat namespace: per-scope
    accounting belongs to the metrics registry, which reads the injected
    fields off each record.
    """

    __slots__ = ("_parent", "_extra")

    def __init__(self, parent: Tracer, **extra: Any) -> None:
        self._parent = parent
        self._extra = extra

    @property
    def parent(self) -> Tracer:
        return self._parent

    @property
    def scope_fields(self) -> Dict[str, Any]:
        return dict(self._extra)

    def emit(self, category: str, event: str, **fields: Any) -> None:
        for key, value in self._extra.items():
            fields.setdefault(key, value)
        self._parent.emit(category, event, **fields)

    def scoped(self, **extra: Any) -> "ScopedTracer":
        merged = dict(self._extra)
        merged.update(extra)
        return ScopedTracer(self._parent, **merged)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._parent, name)


class NullTracer(Tracer):
    """A tracer that records nothing, counts nothing, notifies no one.

    Components constructed without an explicit tracer share the
    :data:`NULL_TRACER` instance; a genuinely inert subclass guarantees the
    singleton accumulates no state across unrelated components or tests
    (the previous shared ``Tracer(keep_records=False)`` silently collected
    counters from every use site).
    """

    def __init__(self) -> None:
        super().__init__(keep_records=False)
        self.open_spans = None      # no span bookkeeping either

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Discard the event entirely (not even counters update)."""

    def add(self, key: str, amount: int) -> None:
        """Discard the counter bump."""

    def subscribe(self, fn: Callable[[TraceRecord], None]) -> None:
        """Ignore the subscription: a null tracer never emits records."""


NULL_TRACER = NullTracer()
"""The shared do-nothing tracer for components created without one."""
