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

Routing (see :meth:`Tracer.emit`): **counters always update**; a record
is built only when a subscriber reads its kind or the tracer retains
records.  Each subscriber declares the kinds it reads, or the kinds it
skips (:meth:`Tracer.subscribe`), and each ``(category, event)`` has one
cached route: its counter key, the subscribers that read it, and whether
it is retained.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator,
                    List, Optional, Set, Tuple)


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


Subscriber = Callable[[TraceRecord], None]

#: One kind's route: its counter key, the subscribers that read it, and
#: whether the tracer retains its records.
Route = Tuple[str, Tuple[Subscriber, ...], bool]


def _names(entries: FrozenSet[str], category: str, key: str) -> bool:
    """Whether ``entries`` (``"category"`` or ``"category.event"``
    spellings) cover the kind ``key`` of ``category``."""
    return category in entries or key in entries


class Tracer:
    """Collects trace records and counters.

    Record retention can be disabled entirely for long benches with
    ``keep_records=False`` — subscribers still see every record of the
    kinds they read; counters always update.
    """

    def __init__(self, *, keep_records: bool = True) -> None:
        self.records: List[TraceRecord] = []
        self.counters: Counter = Counter()
        self._keep_records = keep_records
        #: (subscriber, kinds it reads or None for all, kinds it skips)
        self._subscribers: List[Tuple[Subscriber, Optional[FrozenSet[str]],
                                      FrozenSet[str]]] = []
        self._routes: Dict[Tuple[str, str], Route] = {}
        self._now: Callable[[], float] = lambda: 0.0
        #: Span ids currently open on this trace stream; maintained by
        #: :class:`repro.obs.spans.SpanEmitter` so that cross-component
        #: spans end exactly once (``None`` disables the bookkeeping).
        self.open_spans: Optional[Set[str]] = set()

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Attach the simulation clock so records carry simulated time."""
        self._now = now

    def subscribe(self, fn: Subscriber, *,
                  kinds: Optional[Iterable[str]] = None,
                  skip: Iterable[str] = ()) -> None:
        """Register a live callback for the records it reads.

        ``kinds`` names the kinds ``fn`` reads and ``skip`` the kinds it
        does not, each entry ``"category"`` or ``"category.event"`` (as
        ``telemetry.FLIGHT_EXCLUDE`` is spelled); with neither, ``fn``
        reads every kind.  Subscribers run in subscription order.
        """
        self._subscribers.append(
            (fn, None if kinds is None else frozenset(kinds), frozenset(skip)))
        self._routes.clear()

    def _route(self, category: str, event: str) -> Route:
        """The cached route of one record kind (built on first use)."""
        route = self._routes.get((category, event))
        if route is None:
            key = f"{category}.{event}"
            readers = tuple(
                fn for fn, kinds, skip in self._subscribers
                if (kinds is None or _names(kinds, category, key))
                and not _names(skip, category, key))
            route = self._routes[category, event] = (
                key, readers, self._keep_records)
        return route

    def emit(self, category: str, event: str, **fields: Any) -> None:
        """Record an event and bump its counter (``category.event``).

        The counter updates unconditionally.  The record itself is built
        only if the tracer retains records or a subscriber reads its
        kind; it is then retained (when ``keep_records``) and handed to
        each subscriber that reads the kind.
        """
        route = self._routes.get((category, event))
        if route is None:
            route = self._route(category, event)
        key, readers, keep = route
        self.counters[key] += 1
        if not (readers or keep):
            return
        record = TraceRecord(self._now(), category, event, fields)
        if keep:
            self.records.append(record)
        for fn in readers:
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
    field from the emitting component always wins, and a kind no one
    reads gets none, since it builds no record — and everything else
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
        parent = self._parent
        _, readers, keep = (parent._routes.get((category, event))
                            or parent._route(category, event))
        if readers or keep:
            for key, value in self._extra.items():
                fields.setdefault(key, value)
        parent.emit(category, event, **fields)

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

    def subscribe(self, fn: Subscriber, *,
                  kinds: Optional[Iterable[str]] = None,
                  skip: Iterable[str] = ()) -> None:
        """Ignore the subscription: a null tracer never emits records."""


NULL_TRACER = NullTracer()
"""The shared do-nothing tracer for components created without one."""
