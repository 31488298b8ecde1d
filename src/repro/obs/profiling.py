"""Profiling and resource attribution: *why* a phase costs what it costs.

The telemetry plane (:mod:`repro.obs.telemetry`) answers "how long"; this
module answers "why" — it attributes host resources (CPU time, heap
allocations, and in live mode syscalls) to the protocol phases the span
layer already names, so hot-path work can proceed on evidence:

* :class:`SpanResourceProfiler` — an opt-in tracer subscriber that stamps
  every completed span (§5.1 recovery steps i–vi, Totem rotations and
  reassembly, RPC round-trips, checkpoint/delta encode) with the
  ``time.thread_time_ns`` CPU consumed between its start and end records
  and the net heap growth over the same interval, aggregated per phase
  name into :class:`PhaseCost` and exported as ``profile.*`` counters in
  the metrics registry (sampled into ``/metrics/history`` and rendered by
  ``python -m repro top``);
* :class:`StackSampler` — a threading-based sampling profiler emitting
  collapsed/folded stacks for flame graphs (``flamegraph.pl`` or
  speedscope ingest the ``.folded`` output directly), with each sample
  tagged by the phase that was open when it was taken;
* :class:`InSituProbe` — the one audited code path for overhead gates:
  it patches designated methods to accumulate their own wall-clock cost
  inside a run, which is how both the ``obs-overhead`` and the
  ``prof-overhead`` benches derive interference-immune overhead ratios
  (see :func:`repro.bench.sweeps.run_obs_overhead_point` for why plain
  on/off A-B wall deltas do not work on shared hardware);
* :class:`ProfileSession` — the CLI-facing bundle: one config handed to
  every deployment in a sweep, one sampler following whichever system is
  currently running, one merged cost table and ``.folded`` artifact out.

Measurement notes.  CPU is ``thread_time_ns`` of the emitting thread —
both substrates run the protocol on a single thread (the simulator's
driver loop, the live runtime's asyncio loop), so the delta between a
span's start and end records is exactly the CPU the interval consumed,
immune to wall-clock interference from other processes.  The *inclusive*
delta counts nested spans too; *self* CPU is derived by charging the CPU
between consecutive span events to the innermost span open at the time,
which survives the out-of-LIFO span ends the §5.1 protocol produces
(spans may start on one component and end on another).  Allocation cost
is the net ``sys.getallocatedblocks()`` delta — a call whose cost scales
with heap size on CPython >= 3.11 (it walks obmalloc's arenas), which is
why :data:`DEFAULT_ALLOC_SPANS` restricts the probes to the rare
recovery/failover spans unless a deep dive asks for more — plus net
traced bytes when :attr:`ProfilingConfig.alloc_trace` has started
``tracemalloc``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.obs.spans import END_EVENT, SPAN_CATEGORY, START_EVENT
from repro.runtime.trace import TraceRecord, Tracer

#: Folded-stack root used for samples taken while no span was open.
UNATTRIBUTED = "(no-span)"

#: Phase-table ordering: the §5.1 recovery steps in protocol order, then
#: the ring and RPC phases; anything else follows, sorted by CPU.
PHASE_ORDER = (
    "recovery.total", "recovery.announce", "recovery.quiesce",
    "recovery.capture", "recovery.xfer", "recovery.bulk",
    "recovery.apply", "recovery.assign", "recovery.drain",
    "failover.total", "failover.restore", "failover.replay",
    "totem.rotation", "totem.reassembly", "rpc.roundtrip",
)

#: Tracer-counter prefix for the live transport's syscall accounting
#: (see :class:`repro.live.transport.UdpTransport`).
SYSCALL_PREFIX = "live.sys."

#: Default allocation-probe granularity: the rare per-recovery spans only.
#: ``sys.getallocatedblocks`` walks obmalloc's arenas on CPython >= 3.11,
#: so its cost scales with heap size (~1 us small heap, tens of us at
#: production heaps) — cheap enough per *recovery*, ruinous per Totem
#: rotation.  ``ProfileSession`` (the dedicated ``profile`` command)
#: overrides this to ``None`` (probe every span) because a deep-dive
#: run's own overhead is not gated.
DEFAULT_ALLOC_SPANS: Tuple[str, ...] = ("recovery.", "failover.")


@dataclass(frozen=True)
class ProfilingConfig:
    """Tuning for one system's span-resource profiler.

    Disabled (the default) the profiler never subscribes to the tracer —
    the hot path pays nothing, which the ``prof-overhead`` bench proves
    and CI gates.  Enabled, every span start/end record costs one
    ``thread_time_ns`` read plus (when the span name passes
    ``alloc_spans``) one ``sys.getallocatedblocks`` call, and the per-node
    ``profile.node_*`` series are fed alongside the per-phase ones.

    ``alloc_spans`` is the allocation-probe *granularity* knob: ``None``
    measures allocations on every span; a tuple of name prefixes
    restricts the probes to matching spans.  The default is
    :data:`DEFAULT_ALLOC_SPANS` (recovery/failover spans only) because
    ``sys.getallocatedblocks`` is O(heap arenas) on CPython >= 3.11 —
    per-rotation alloc probes on a production heap would blow any
    percent-level budget, which the ``prof-overhead`` bench would catch.

    ``alloc_trace=True`` additionally starts ``tracemalloc`` (if not
    already tracing) so spans also report net traced bytes; it is the
    expensive option (~2x interpreter-wide allocation cost) and exists
    for deep dives, not for always-on attribution.
    """

    enabled: bool = False
    alloc_spans: Optional[Tuple[str, ...]] = DEFAULT_ALLOC_SPANS
    alloc_trace: bool = False
    sample_interval: float = 0.005


@dataclass
class PhaseCost:
    """Accumulated resource cost of one span name (phase)."""

    spans: int = 0
    #: Sum of span durations on the *system* clock (simulated seconds in
    #: the simulator, wall seconds live).
    wall_s: float = 0.0
    #: Inclusive CPU: thread CPU between start and end records (nested
    #: spans count toward their ancestors too).
    cpu_ns: int = 0
    #: Exclusive CPU: charged to the innermost open span only.
    self_cpu_ns: int = 0
    #: Net heap blocks allocated over the span (allocations minus frees).
    alloc_blocks: int = 0
    #: Net tracemalloc bytes (0 unless ``alloc_trace`` was on).
    alloc_bytes: int = 0

    def merge(self, other: "PhaseCost") -> None:
        self.spans += other.spans
        self.wall_s += other.wall_s
        self.cpu_ns += other.cpu_ns
        self.self_cpu_ns += other.self_cpu_ns
        self.alloc_blocks += other.alloc_blocks
        self.alloc_bytes += other.alloc_bytes


class SpanResourceProfiler:
    """Tracer subscriber attributing CPU and allocations to span phases.

    Span lifecycles arrive as ordinary ``span`` records (see
    :mod:`repro.obs.spans`); on ``span_start`` the profiler snapshots the
    emitting thread's CPU clock and the heap, on ``span_end`` it books the
    deltas under the span's *name* — so every ``recovery.capture`` across
    every transfer folds into one :class:`PhaseCost`.  Exclusive (self)
    CPU uses interval accounting: the CPU between two consecutive span
    events belongs to whichever span was innermost-open during it, which
    needs no LIFO discipline and therefore tolerates the protocol's
    cross-component span ends.

    When a metrics registry is supplied, completed spans also bump
    ``profile.{spans,cpu_ns,alloc_blocks}{phase=...}`` counters and — for
    spans carrying a ``node`` attr — ``profile.node_cpu_ns`` /
    ``profile.node_alloc_blocks`` per-node counters, which the telemetry
    plane samples into ``/metrics/history`` (the ``top`` CPU%% column).
    """

    def __init__(self, config: ProfilingConfig, *, metrics=None) -> None:
        self.config = config
        self.metrics = metrics
        self.phases: Dict[str, PhaseCost] = {}
        #: span_id -> (name, node, start_time, cpu0, blocks0, traced0, cost)
        self._open: Dict[str, tuple] = {}
        #: Innermost-open tracking for self-CPU and sampler phase tags;
        #: appended/removed on the emitting thread, read (last element
        #: only) by the sampler thread — both operations are atomic under
        #: the GIL, so no lock is needed.
        self._stack: List[tuple] = []
        self._mark = 0
        self._started_tracemalloc = False
        # Config hoisted to attributes: observe_span runs per span event.
        self._alloc_spans = config.alloc_spans
        # Counter export is deferred: the hot path accumulates into plain
        # lists ([spans, cpu_ns, alloc_blocks, *exported]) and
        # :meth:`flush_to_metrics` reconciles the registry counters —
        # per-span registry updates (label-key resolution + 5 inc calls)
        # cost more than the measurement itself.
        self._phase_acc: Dict[str, List[int]] = {}
        self._node_acc: Dict[str, List[int]] = {}
        self._phase_counters: Dict[str, tuple] = {}
        self._node_counters: Dict[str, tuple] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def attach(self, tracer: Tracer) -> "SpanResourceProfiler":
        """Subscribe to ``tracer`` (no-op — and no cost — when disabled)."""
        if self.config.enabled:
            if self.config.alloc_trace and not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
            tracer.subscribe(self.observe_record, kinds=(SPAN_CATEGORY,))
        return self

    def release(self) -> None:
        """Stop ``tracemalloc`` if this profiler started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    # -- hot path ----------------------------------------------------------

    def observe_record(self, record: TraceRecord) -> None:
        """Live trace subscriber (installed by :meth:`attach`, which
        subscribes it to span records only).  Kept as a two-level
        dispatch so the overhead bench can probe :meth:`observe_span` —
        the real per-span cost — on its own."""
        self.observe_span(record)

    def observe_span(self, record: TraceRecord) -> None:
        """Per-span-event bookkeeping (the profiler's actual hot path).

        The stack entries are ``(span_id, name, PhaseCost)`` so the
        interval self-CPU charge and the end-of-span booking both reach
        their accumulator without a dict lookup.
        """
        fields = record.fields
        span_id = fields.get("span")
        if span_id is None:
            return
        cpu_now = time.thread_time_ns()
        stack = self._stack
        if stack:
            # Interval accounting: everything since the previous span
            # event ran inside the currently-innermost span.
            stack[-1][2].self_cpu_ns += cpu_now - self._mark
        self._mark = cpu_now
        event = record.event
        if event == START_EVENT:
            if span_id in self._open:
                return
            name = fields.get("name") or span_id
            cost = self.phases.get(name)
            if cost is None:
                cost = self.phases[name] = PhaseCost()
            if (self._alloc_spans is None
                    or name.startswith(self._alloc_spans)):
                blocks0 = sys.getallocatedblocks()
                traced0 = (tracemalloc.get_traced_memory()[0]
                           if tracemalloc.is_tracing() else None)
            else:
                blocks0 = traced0 = None
            self._open[span_id] = (name, fields.get("node"), record.time,
                                   cpu_now, blocks0, traced0, cost)
            stack.append((span_id, name, cost))
        elif event == END_EVENT:
            opened = self._open.pop(span_id, None)
            if opened is None:
                return
            name, node, t0, cpu0, blocks0, traced0, cost = opened
            if stack:
                if stack[-1][0] == span_id:
                    stack.pop()
                else:   # out-of-LIFO end (cross-component span)
                    for i in range(len(stack) - 1, -1, -1):
                        if stack[i][0] == span_id:
                            del stack[i]
                            break
            cost.spans += 1
            cost.wall_s += record.time - t0
            cpu_ns = cpu_now - cpu0
            cost.cpu_ns += cpu_ns
            alloc_blocks = 0
            if blocks0 is not None:
                alloc_blocks = sys.getallocatedblocks() - blocks0
                cost.alloc_blocks += alloc_blocks
                if traced0 is not None and tracemalloc.is_tracing():
                    cost.alloc_bytes += (tracemalloc.get_traced_memory()[0]
                                         - traced0)
            # Deferred counter export: clamped-positive running totals
            # (counters are monotone; the raw net deltas live in cost).
            acc = self._phase_acc.get(name)
            if acc is None:
                acc = self._phase_acc[name] = [0, 0, 0, 0, 0, 0]
            acc[0] += 1
            if cpu_ns > 0:
                acc[1] += cpu_ns
            if alloc_blocks > 0:
                acc[2] += alloc_blocks
            if node is not None:
                nacc = self._node_acc.get(node)
                if nacc is None:
                    nacc = self._node_acc[node] = [0, 0, 0, 0]
                if cpu_ns > 0:
                    nacc[0] += cpu_ns
                if alloc_blocks > 0:
                    nacc[1] += alloc_blocks

    def flush_to_metrics(self) -> None:
        """Reconcile the registry's ``profile.*`` counters with the
        accumulated totals (called off the hot path — the telemetry
        plane's sampler tick / ``/metrics/history`` handler, or directly
        before reading the registry)."""
        metrics = self.metrics
        if metrics is None:
            return
        for name, acc in self._phase_acc.items():
            counters = self._phase_counters.get(name)
            if counters is None:
                counters = self._phase_counters[name] = (
                    metrics.counter("profile.spans", phase=name),
                    metrics.counter("profile.cpu_ns", phase=name),
                    metrics.counter("profile.alloc_blocks", phase=name),
                )
            for i in range(3):
                delta = acc[i] - acc[i + 3]
                if delta:
                    counters[i].inc(delta)
                    acc[i + 3] = acc[i]
        for node, nacc in self._node_acc.items():
            counters = self._node_counters.get(node)
            if counters is None:
                counters = self._node_counters[node] = (
                    metrics.counter("profile.node_cpu_ns", node=node),
                    metrics.counter("profile.node_alloc_blocks", node=node),
                )
            for i in range(2):
                delta = nacc[i] - nacc[i + 2]
                if delta:
                    counters[i].inc(delta)
                    nacc[i + 2] = nacc[i]

    # -- queries -----------------------------------------------------------

    def current_phase(self) -> Optional[str]:
        """The innermost currently-open span name (sampler tag); safe to
        call from any thread."""
        stack = self._stack
        try:
            return stack[-1][1]
        except IndexError:
            return None


def merge_phase_costs(
    sources: Iterable[Mapping[str, PhaseCost]],
) -> Dict[str, PhaseCost]:
    """Fold several per-system phase-cost maps into one (sweep totals)."""
    merged: Dict[str, PhaseCost] = {}
    for phases in sources:
        for name, cost in phases.items():
            into = merged.get(name)
            if into is None:
                merged[name] = into = PhaseCost()
            into.merge(cost)
    return merged


# ---------------------------------------------------------------------------
# Sampling stack profiler (collapsed/folded output)
# ---------------------------------------------------------------------------

def fold_frames(frame, *, max_depth: int = 64) -> Tuple[str, ...]:
    """Collapse a Python frame chain into root-first ``file:qualname``
    frame names (the unit of the folded-stack format)."""
    stack: List[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        stack.append(f"{os.path.basename(code.co_filename)}:{name}")
        frame = frame.f_back
        depth += 1
    stack.reverse()
    return tuple(stack)


def render_folded(samples: Mapping[Tuple[str, Tuple[str, ...]], int]) -> str:
    """Render ``{(phase, stack): count}`` as collapsed/folded stack lines.

    One line per distinct stack — ``phase;frame;frame;... count`` — in
    deterministic (sorted) order, ending with a newline when non-empty:
    exactly what ``flamegraph.pl`` and speedscope consume.  The phase tag
    is the root frame, so a flame graph groups samples by protocol phase
    before code location.
    """
    lines = []
    for (phase, stack), count in sorted(samples.items()):
        frames = (phase,) + tuple(stack)
        lines.append(f"{';'.join(frames)} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


class StackSampler:
    """Threading-based sampling profiler (simnet- and live-safe).

    A daemon thread wakes every ``interval`` wall-clock seconds and
    captures the *target* thread's Python stack via
    ``sys._current_frames()`` — no sys.settrace, no interpreter slowdown
    between samples, safe alongside both the simulator's synchronous
    driver loop and the live asyncio loop (neither is interrupted; the
    GIL serializes the walk).  Each sample is tagged with the phase the
    ``phase_provider`` reports (normally
    :meth:`SpanResourceProfiler.current_phase`), so samples land in the
    protocol phase that was open when they were taken.

    :meth:`start`/:meth:`stop` are idempotent and thread-safe; sample
    counts are kept under a lock so :meth:`snapshot` can run while
    sampling continues.
    """

    def __init__(self, *, interval: float = 0.005,
                 phase_provider: Optional[Callable[[], Optional[str]]] = None,
                 target_thread_id: Optional[int] = None,
                 max_depth: int = 64) -> None:
        self.interval = interval
        self._provider = phase_provider
        self._target = target_thread_id
        self._max_depth = max_depth
        self._samples: Counter = Counter()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples_taken = 0

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Begin sampling (no-op if already running).  The target thread
        defaults to the caller's — start from the thread that runs the
        protocol."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            if self._target is None:
                self._target = threading.get_ident()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-stack-sampler", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (no-op if stopped)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of the target thread now; returns 1 if a stack
        was captured (callable from any thread, e.g. to guarantee a
        non-empty profile on very short runs)."""
        target = self._target
        if target is None:
            target = threading.get_ident()
        frame = sys._current_frames().get(target)
        if frame is None:
            return 0
        stack = fold_frames(frame, max_depth=self._max_depth)
        phase: Optional[str] = None
        provider = self._provider
        if provider is not None:
            try:
                phase = provider()
            except Exception:
                phase = None
        with self._lock:
            self._samples[(phase or UNATTRIBUTED, stack)] += 1
            self.samples_taken += 1
        return 1

    def snapshot(self) -> Dict[Tuple[str, Tuple[str, ...]], int]:
        """A consistent copy of the sample counts."""
        with self._lock:
            return dict(self._samples)

    def folded(self) -> str:
        """The samples as collapsed/folded stack text."""
        return render_folded(self.snapshot())

    def write_folded(self, path: str) -> int:
        """Write the ``.folded`` artifact; returns the line count."""
        text = self.folded()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0 if not text else text.count("\n")


# ---------------------------------------------------------------------------
# In-situ overhead probe (the one audited overhead-measurement path)
# ---------------------------------------------------------------------------

class InSituProbe:
    """Accumulates the wall-clock time spent *inside* designated methods.

    Overhead gates need the instrumented plane's own share of a run, not
    an on/off A-B delta (shared-hardware interference swings A-B wall
    clocks by far more than a percent-level budget; the probe puts
    numerator and denominator inside the same run, where interference
    cancels to first order — see the ``obs-overhead`` bench docstring).
    The probe patches each target method on its *class* so it must be
    installed **before** the measured system is built: tracer
    subscriptions capture bound methods at subscribe time.

    The wrapper's own two clock reads per call are charged *to* the
    probed plane — a slight over-count, which is the conservative
    direction for a budget gate.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.seconds = 0.0
        self.calls = 0
        self._patched: List[Tuple[type, str, Any]] = []

    def patch(self, cls: type, method_name: str) -> "InSituProbe":
        """Wrap ``cls.method_name`` to accumulate its wall-clock cost."""
        original = getattr(cls, method_name)
        probe = self
        clock = self._clock

        def timed(*args: Any, **kwargs: Any):
            t0 = clock()
            try:
                return original(*args, **kwargs)
            finally:
                probe.seconds += clock() - t0
                probe.calls += 1

        timed.__wrapped__ = original
        setattr(cls, method_name, timed)
        self._patched.append((cls, method_name, original))
        return self

    def restore(self) -> None:
        """Put every patched method back (reverse order)."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "InSituProbe":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def overhead_ratio(self, run_seconds: float) -> float:
        """``run / (run - probed)``: what the run cost relative to what it
        would have cost without the time provably spent in the probed
        methods.  Exactly 1.0 when nothing was probed (the off gate)."""
        remainder = run_seconds - self.seconds
        if remainder <= 0:
            return float("inf")
        return run_seconds / remainder


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def phase_table_rows(
    phases: Mapping[str, PhaseCost],
) -> List[Tuple[str, PhaseCost]]:
    """Order phases for display: protocol order first, the rest by CPU."""
    rows: List[Tuple[str, PhaseCost]] = [
        (name, phases[name]) for name in PHASE_ORDER if name in phases
    ]
    known = set(PHASE_ORDER)
    rows.extend(sorted(
        ((name, cost) for name, cost in phases.items() if name not in known),
        key=lambda item: -item[1].cpu_ns,
    ))
    return rows


def render_cost_table(phases: Mapping[str, PhaseCost], *,
                      syscalls: Optional[Mapping[str, int]] = None,
                      wall_label: str = "wall") -> str:
    """Render the per-phase cost table (wall vs CPU vs allocs), plus the
    live transport's syscall accounting when ``syscalls`` is given."""
    header = (f"{'phase':22s} {'spans':>6s} {wall_label + '_ms':>10s} "
              f"{'cpu_ms':>10s} {'self_ms':>10s} {'allocs':>10s} "
              f"{'alloc_kB':>9s}")
    lines = [header, "-" * len(header)]
    for name, cost in phase_table_rows(phases):
        lines.append(
            f"{name:22s} {cost.spans:6d} {cost.wall_s * 1000:10.3f} "
            f"{cost.cpu_ns / 1e6:10.3f} {cost.self_cpu_ns / 1e6:10.3f} "
            f"{cost.alloc_blocks:10d} {cost.alloc_bytes / 1000:9.1f}"
        )
    if not phases:
        lines.append("(no spans completed)")
    if syscalls is not None:
        lines.append("")
        lines.append("live transport syscalls:")
        if syscalls:
            for key in sorted(syscalls):
                lines.append(f"  {key:28s} {syscalls[key]:>12d}")
            recvfrom = syscalls.get(SYSCALL_PREFIX + "recv_datagrams", 0)
            batches = syscalls.get(SYSCALL_PREFIX + "recv_batches", 0)
            if batches:
                lines.append(f"  {'(datagrams per wakeup)':28s} "
                             f"{recvfrom / batches:>12.2f}")
        else:
            lines.append("  (none recorded — simulated transport?)")
    return "\n".join(lines)


def syscall_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """Extract the live transport's syscall counters from a tracer's
    counter map (empty under the simulated transport)."""
    return {key: int(value) for key, value in counters.items()
            if key.startswith(SYSCALL_PREFIX)}


class ProfileSession:
    """One CLI profiling run: config + sampler + merged results.

    A sweep builds several systems; the session hands each the same
    :class:`ProfilingConfig`, tracks every system's profiler, and keeps
    one wall-clock :class:`StackSampler` whose phase tags follow the
    *most recently attached* system (sweeps run their deployments
    sequentially, so that is the one executing).

    Unlike the bare config default, a session probes allocations on
    *every* span (``alloc_spans=None``) — a ``profile`` run exists to
    attribute cost, so it accepts the O(heap) alloc-probe price that the
    always-on default avoids.
    """

    def __init__(self, *, sample_interval: float = 0.005,
                 alloc_trace: bool = False) -> None:
        self.config = ProfilingConfig(
            enabled=True, alloc_spans=None, alloc_trace=alloc_trace,
            sample_interval=sample_interval,
        )
        self._profilers: List[SpanResourceProfiler] = []
        self.sampler = StackSampler(interval=sample_interval,
                                    phase_provider=self._current_phase)

    def _current_phase(self) -> Optional[str]:
        if not self._profilers:
            return None
        return self._profilers[-1].current_phase()

    def attach(self, system) -> None:
        """Adopt a freshly built system's profiler (its config must be
        this session's — pass ``profiling=session.config`` at build)."""
        self._profilers.append(system.profiler)

    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        """Stop sampling and release any profiler-started tracemalloc."""
        self.sampler.stop()
        for profiler in self._profilers:
            profiler.release()

    def merged_phases(self) -> Dict[str, PhaseCost]:
        return merge_phase_costs(p.phases for p in self._profilers)

    def write_folded(self, path: str) -> int:
        """Write the ``.folded`` artifact (guaranteeing at least one
        sample so short runs still produce a valid file)."""
        if self.sampler.samples_taken == 0:
            self.sampler.sample_once()
        return self.sampler.write_folded(path)

    def render_table(self, *, syscalls: Optional[Mapping[str, int]] = None,
                     wall_label: str = "wall") -> str:
        return render_cost_table(self.merged_phases(), syscalls=syscalls,
                                 wall_label=wall_label)
