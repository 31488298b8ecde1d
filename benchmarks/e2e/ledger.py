"""Self-time ledger: timing wrappers the benchmark installs around each
layer's entry points, from outside the program.

Every wrapped call is a span ``(layer, entry, node, start, end, parent)``.
A span's *self time* is its duration minus the part its child spans cover,
so the self times of all spans sum to the time spent under any wrapper and
a layer is charged only for work no deeper layer claimed.  The system runs
on one thread, so one stack of open spans is the whole context.
"""

from __future__ import annotations

import json
import operator
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Key = Tuple[str, str]           # (layer, entry point)

# Open-span record: [id, parent id, key, node, start, child seconds, tag].
_ID, _PARENT, _KEY, _NODE, _START, _CHILD, _TAG = range(7)


class Ledger:
    """Accumulates self time and call counts per ``(layer, entry)`` and
    keeps the first ``max_spans`` spans for the trace file."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = 200_000) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: Invocation id the driver is working on, stamped on new spans.
        self.tag: Any = None
        #: ``(layer, entry)`` whose start times are kept per node.
        self.watch: set = set()
        self._stack: List[list] = []
        self._next_id = 0
        self.recording = True
        self._node_getters: Dict[type, Callable[[Any], Any]] = {}
        self._layer_cache: Dict[Optional[str], Optional[str]] = {}
        self.module_layers: List[Tuple[str, str]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far and record again (open spans
        stay open and are charged from now)."""
        self.recording = True
        self.self_s: Dict[Key, float] = defaultdict(float)
        self.calls: Dict[Key, int] = defaultdict(int)
        self.tallies: Dict[Key, int] = defaultdict(int)
        self.marks: Dict[Tuple[str, str, Any], List[float]] = \
            defaultdict(list)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        now = self.clock()
        for frame in self._stack:
            frame[_START] = now
            frame[_CHILD] = 0.0

    # ------------------------------------------------------------------
    # Span accounting
    # ------------------------------------------------------------------

    def enter(self, key: Key, node: Any = None) -> list:
        stack = self._stack
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent_id = parent[_ID]
            if node is None:
                node = parent[_NODE]
        self._next_id += 1
        frame = [self._next_id, parent_id, key, node, self.clock(), 0.0,
                 self.tag]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close ``frame``.  Spans opened after it and still open (a
        wrapper that exits out of order) end at the same instant, so no
        interval is ever charged twice; closing a span twice is a no-op."""
        if frame[_KEY] is None:
            return
        end = self.clock()
        stack = self._stack
        recording = self.recording
        while stack:
            top = stack.pop()
            key = top[_KEY]
            top[_KEY] = None
            if recording:
                duration = end - top[_START]
                self.self_s[key] += duration - top[_CHILD]
                self.calls[key] += 1
                if stack:
                    stack[-1][_CHILD] += duration
                if key in self.watch:
                    self.marks[key + (top[_NODE],)].append(top[_START])
                if len(self.spans) < self.max_spans:
                    self.spans.append((top[_ID], top[_PARENT], key[0], key[1],
                                       top[_NODE], top[_START], end,
                                       top[_TAG]))
                else:
                    self.spans_dropped += 1
            if top is frame:
                return

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Keep what was recorded; later spans are timed but not kept."""
        self.recording = False

    def wrap(self, fn: Callable, layer: str, entry: str, *,
             method: bool = False,
             probe: Optional[Callable[..., None]] = None,
             tally: Optional[Callable[[Any], int]] = None,
             tag: Optional[Callable[..., Any]] = None) -> Callable:
        """A timing wrapper around ``fn``.  ``method`` reads the span's
        node off ``args[0]``; ``probe(*args)`` runs before the call;
        ``tally(result)`` is added to ``tallies[(layer, entry)]``;
        ``tag(*args)`` names the invocation this span and its children
        work on."""
        key = (layer, entry)
        enter, exit_ = self.enter, self.exit
        node_of = self.node_of

        if probe is None and tally is None and tag is None:
            if method:
                def wrapper(*args, **kwargs):
                    frame = enter(key, node_of(args[0]))
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        exit_(frame)
            else:
                def wrapper(*args, **kwargs):
                    frame = enter(key)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        exit_(frame)
        else:
            def wrapper(*args, **kwargs):
                outer_tag = self.tag
                if tag is not None:
                    self.tag = tag(*args)
                if probe is not None:
                    probe(*args)
                frame = enter(key, node_of(args[0]) if method else None)
                try:
                    result = fn(*args, **kwargs)
                    if tally is not None:
                        self.tallies[key] += tally(result)
                    return result
                finally:
                    exit_(frame)
                    self.tag = outer_tag

        # Carry the markings other code reads off the function (the ORB's
        # ``_corba_operation`` flags, ``__name__`` in trace output).
        wrapper.__dict__.update(getattr(fn, "__dict__", {}))
        wrapper.__name__ = getattr(fn, "__name__", entry)
        wrapper.__qualname__ = getattr(fn, "__qualname__", entry)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_callback(self, fn: Callable, default_layer: str) -> Callable:
        """Wrap a callback handed to a scheduler or transport: the span
        belongs to the layer whose module defines ``fn`` (``default_layer``
        when that module is no layer of its own)."""
        layer = self.layer_of_module(getattr(fn, "__module__", None)) \
            or default_layer
        key = (layer, "cb:" + getattr(fn, "__name__", type(fn).__name__))
        owner = getattr(fn, "__self__", None)
        node = self.node_of(owner) if owner is not None else None
        enter, exit_ = self.enter, self.exit

        def callback(*args, **kwargs):
            frame = enter(key, node)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return callback

    def wrap_registrar(self, fn: Callable, layer: str, entry: str,
                       arg_index: int, default_layer: str) -> Callable:
        """Wrap a method that takes a callback (``call_after(delay, fn)``,
        ``register(type, handler)``): the method itself is timed under
        ``layer`` and the callback at ``arg_index`` is wrapped too."""
        timed = self.wrap(fn, layer, entry, method=True)
        wrap_callback = self.wrap_callback

        def registrar(*args, **kwargs):
            args = list(args)
            args[arg_index] = wrap_callback(args[arg_index], default_layer)
            return timed(*args, **kwargs)
        registrar.__name__ = getattr(fn, "__name__", entry)
        registrar.__wrapped__ = fn
        return registrar

    def layer_of_module(self, module: Optional[str]) -> Optional[str]:
        try:
            return self._layer_cache[module]
        except KeyError:
            pass
        layer = None
        if module:
            for prefix, name in self.module_layers:
                if module == prefix or module.startswith(prefix + "."):
                    layer = name
                    break
        self._layer_cache[module] = layer
        return layer

    def node_of(self, obj: Any) -> Any:
        getter = self._node_getters.get(type(obj))
        if getter is None:
            if hasattr(obj, "node_id"):
                getter = operator.attrgetter("node_id")
            elif hasattr(getattr(obj, "process", None), "node_id"):
                getter = operator.attrgetter("process.node_id")
            else:
                getter = _no_node
            self._node_getters[type(obj)] = getter
        return getter(obj)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for (layer, _entry), seconds in self.self_s.items():
            out[layer] += seconds
        return dict(out)

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (layer, _entry), calls in self.calls.items():
            out[layer] += calls
        return dict(out)

    def dump_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "entry", "node", "start",
                     "end", "invocation"), span))) + "\n")
        return len(self.spans)


def _no_node(_obj: Any) -> None:
    return None


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------

class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def set(self, holder: Any, name: str, value: Any) -> None:
        namespace = vars(holder)
        self._undo.append((holder, name, name in namespace,
                           namespace.get(name)))
        setattr(holder, name, value)

    def restore(self) -> None:
        while self._undo:
            holder, name, had, old = self._undo.pop()
            if had:
                setattr(holder, name, old)
            else:
                delattr(holder, name)


def holders_of(fn: Any) -> Iterable[Tuple[Any, str]]:
    """Every ``(module, name)`` under ``repro`` whose global is ``fn`` —
    ``from m import f`` copies the reference, so patching ``m.f`` alone
    would miss the importers."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is fn:
                yield module, name


@contextmanager
def installed(ledger: Ledger, targets: Iterable["Target"]):
    """Install a wrapper for each target; restore every original on exit."""
    patches = Patches()
    try:
        for target in targets:
            target.install(ledger, patches)
        yield patches
    finally:
        patches.restore()


class Target:
    """One entry point to wrap: a module-level function (patched in every
    ``repro`` module holding it) or a method (patched on ``owner``, which
    may be a subclass that inherits it)."""

    def __init__(self, layer: str, owner: Any, name: str, *,
                 callback_arg: Optional[int] = None,
                 probe: Optional[Callable[..., None]] = None,
                 tally: Optional[Callable[[Any], int]] = None,
                 tag: Optional[Callable[..., Any]] = None) -> None:
        self.layer = layer
        self.owner = owner
        self.name = name
        self.callback_arg = callback_arg
        self.probe = probe
        self.tally = tally
        self.tag = tag

    @property
    def entry(self) -> str:
        if isinstance(self.owner, type):
            return f"{self.owner.__name__}.{self.name}"
        return self.name

    def install(self, ledger: Ledger, patches: Patches) -> None:
        original = getattr(self.owner, self.name)
        if isinstance(self.owner, type):
            if self.callback_arg is not None:
                wrapped = ledger.wrap_registrar(
                    original, self.layer, self.entry, self.callback_arg,
                    self.layer)
            else:
                wrapped = ledger.wrap(original, self.layer, self.entry,
                                      method=True, probe=self.probe,
                                      tally=self.tally, tag=self.tag)
            patches.set(self.owner, self.name, wrapped)
            return
        wrapped = ledger.wrap(original, self.layer, self.entry,
                              probe=self.probe, tally=self.tally)
        for module, name in holders_of(original):
            patches.set(module, name, wrapped)
