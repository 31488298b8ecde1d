"""Which entry points the traced run wraps, layer by layer, and how the
ledger and the program's own counters become the per-layer metrics.

Layers carry this repo's module names.  A span belongs to the layer whose
module defines the wrapped function; callbacks handed to a scheduler or a
transport are wrapped when they are registered and charged to their own
module's layer, so a token timer is ``totem.member`` work and a reply
completion is ``core.container`` work, not the clock's.
"""

from __future__ import annotations

import statistics
import time
import weakref
from collections import deque
from typing import Any, Dict, List, Optional

from ledger import Ledger, Target

#: Module prefix -> layer, first match wins.
MODULE_LAYERS = [
    ("repro.live.clock", "live.clock"),
    ("repro.live.transport", "live.transport"),
    ("repro.live._mmsg", "live.transport"),
    ("repro.live.loadgen", "live.loadgen"),
    ("driver", "live.loadgen"),
    ("repro.totem.member", "totem.member"),
    ("repro.totem.fragmentation", "totem.fragmentation"),
    ("repro.totem", "totem.wire"),
    ("repro.core.replication", "core.replication"),
    ("repro.core.interceptor", "core.interceptor"),
    ("repro.core.envelope", "core.envelope"),
    ("repro.core.readfast", "core.readfast"),
    ("repro.core.recovery", "core.recovery"),
    ("repro.core.statedelta", "core.statedelta"),
    ("repro.core.bulk", "core.bulk"),
    ("repro.core.container", "core.container"),
    ("repro.giop", "giop"),
    ("repro.orb", "orb"),
    ("repro.apps", "apps"),
    ("repro.obs", "obs"),
    ("repro.runtime.trace", "obs"),
    ("repro.simnet", "simnet"),
]

#: Layers whose self time is reported per acked invocation.
PER_OP_LAYERS = (
    "totem.member", "totem.wire", "totem.fragmentation", "live.transport",
    "core.replication", "core.interceptor", "core.envelope", "core.readfast",
    "core.container", "giop", "orb", "apps", "obs", "live.loadgen",
)

#: Layers whose self time is reported per recovery.
PER_RECOVERY_LAYERS = ("core.recovery", "core.statedelta", "core.bulk")

RECOVERY_ENTRIES = {
    "join": ("core.recovery", "RecoveryMechanisms.announce_join"),
    "get": ("core.recovery", "RecoveryMechanisms.handle_state_get"),
    "set": ("core.recovery", "RecoveryMechanisms.handle_state_set"),
}


class OrderWait:
    """Time from a member's ``multicast()`` to its own delivery of that
    payload.  Totem delivers one origin's messages in the order they were
    queued, so a FIFO per member pairs them."""

    def __init__(self) -> None:
        self.samples_s: List[float] = []
        self._pending = weakref.WeakKeyDictionary()

    def queued(self, member, *_args) -> None:
        self._pending.setdefault(member, deque()).append(time.perf_counter())

    def delivered(self, mechanisms, origin, *_args) -> None:
        if origin != mechanisms.node_id:
            return
        pending = self._pending.get(mechanisms.totem)
        if pending:
            self.samples_s.append(time.perf_counter() - pending.popleft())


def _extra_fragments(fragments) -> int:
    """Fragments of messages that needed more than one frame."""
    return len(fragments) if len(fragments) > 1 else 0


def _reply_tag(driver, _reply) -> str:
    return f"d{driver.index}:{driver.sent - 1}"


def targets(substrate: str, order_wait: OrderWait) -> List[Target]:
    """The entry points to wrap for a ``"live"`` or ``"sim"`` run."""
    from repro.apps.kvstore import KvStoreServant
    from repro.core import bulk, envelope, statedelta
    from repro.core.interceptor import Interceptor
    from repro.core.readfast import ReadFastCoordinator
    from repro.core.recovery import RecoveryMechanisms
    from repro.core.replication import ReplicationMechanisms
    from repro.giop import messages as giop_messages
    from repro.orb.connection import ClientConnection
    from repro.orb.orb import Orb
    from repro.runtime.host import BaseHost
    from repro.runtime.trace import Tracer
    from repro.totem import wire
    from repro.totem.fragmentation import Fragmenter, Reassembler
    from repro.totem.member import TotemMember

    out = [
        Target("totem.member", TotemMember, "multicast",
               probe=order_wait.queued),
        Target("totem.wire", wire, "encode_frame_payload_into"),
        Target("totem.wire", wire, "decode_frame_payload"),
        Target("totem.fragmentation", Fragmenter, "fragment",
               tally=_extra_fragments),
        Target("totem.fragmentation", Reassembler, "add"),
        Target("core.replication", ReplicationMechanisms, "multicast"),
        Target("core.replication", ReplicationMechanisms, "multicast_iiop"),
        Target("core.replication", ReplicationMechanisms, "route_iiop"),
        Target("core.replication", ReplicationMechanisms, "_on_deliver",
               probe=order_wait.delivered),
        Target("core.replication", ReplicationMechanisms, "_on_view_change"),
        Target("core.interceptor", Interceptor, "capture_client_request"),
        Target("core.interceptor", Interceptor, "capture_server_reply"),
        Target("core.interceptor", Interceptor, "rewrite_incoming_reply"),
        Target("core.envelope", envelope, "encode_envelope"),
        Target("core.envelope", envelope, "decode_envelope"),
        Target("core.readfast", ReadFastCoordinator, "try_fast_read"),
        Target("core.readfast", ReadFastCoordinator, "intercept_reply"),
        Target("giop", giop_messages, "encode_message"),
        Target("giop", giop_messages, "decode_message"),
        Target("giop", giop_messages, "peek_request_id"),
        Target("orb", Orb, "decode_request"),
        Target("orb", Orb, "execute_request"),
        Target("orb", Orb, "handle_reply"),
        Target("orb", ClientConnection, "build_request"),
        Target("orb", ClientConnection, "match_reply"),
        Target("apps", KvStoreServant, "put"),
        Target("apps", KvStoreServant, "get"),
        Target("apps", KvStoreServant, "echo"),
        Target("apps", KvStoreServant, "get_state"),
        Target("apps", KvStoreServant, "set_state"),
        Target("obs", Tracer, "emit"),
        Target("core.recovery", RecoveryMechanisms, "announce_join"),
        Target("core.recovery", RecoveryMechanisms, "handle_replica_join"),
        Target("core.recovery", RecoveryMechanisms, "handle_state_get"),
        Target("core.recovery", RecoveryMechanisms, "handle_state_set"),
        Target("core.statedelta", statedelta, "compute_delta"),
        Target("core.statedelta", statedelta, "apply_delta"),
        Target("core.statedelta", statedelta, "page_digests"),
        Target("core.bulk", bulk, "build_manifest"),
        Target("core.bulk", bulk.BulkStore, "handle_fetch"),
        Target("core.bulk", bulk.BulkSession, "handle_page"),
    ]
    if substrate == "live":
        from driver import TimingDriver
        from repro.live import transport
        from repro.live.clock import LiveScheduler

        clock = "live.clock"
        out += [
            Target(clock, LiveScheduler, "call_after", callback_arg=2),
            Target(clock, LiveScheduler, "call_at", callback_arg=2),
            Target("live.transport", transport.UdpTransport, "unicast"),
            Target("live.transport", transport.UdpTransport, "broadcast"),
            Target("live.transport", transport.UdpTransport, "deliver"),
            Target("live.transport", transport.UdpTransport, "_on_readable"),
            Target("live.transport", transport.UdpTransport, "_flush_sends"),
            Target("live.transport", transport.SegmentDispatcher,
                   "_on_readable"),
            Target("live.transport", transport.UdpTransport, "register",
                   callback_arg=2),
            Target("live.transport", transport, "encode_frame"),
            Target("live.transport", transport, "decode_frame"),
            Target("live.loadgen", TimingDriver, "_invoke",
                   tag=lambda d, token: f"d{d.index}:{token}"),
            Target("live.loadgen", TimingDriver, "_on_write_reply",
                   tag=_reply_tag),
            Target("live.loadgen", TimingDriver, "_on_read_reply",
                   tag=_reply_tag),
        ]
    else:
        from repro.simnet.endpoint import Endpoint
        from repro.simnet.network import Network
        from repro.simnet.scheduler import Scheduler

        clock = "simnet"
        out += [
            Target(clock, Scheduler, "call_at", callback_arg=2),
            Target(clock, Scheduler, "run_until"),
            Target(clock, Scheduler, "run_while"),
            Target(clock, Scheduler, "step"),
            Target(clock, Network, "unicast"),
            Target(clock, Network, "broadcast"),
            Target(clock, Endpoint, "register", callback_arg=2),
            Target(clock, Endpoint, "deliver"),
        ]
    # Hosts guard their timers with a closure before handing them to the
    # scheduler; wrapping here keeps the owner's layer visible through it.
    out.append(Target(clock, BaseHost, "call_after", callback_arg=2))
    return out


def new_ledger() -> Ledger:
    ledger = Ledger()
    ledger.module_layers = MODULE_LAYERS
    ledger.watch = set(RECOVERY_ENTRIES.values())
    return ledger


# ----------------------------------------------------------------------
# Ledger + counters -> per-layer metrics
# ----------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def closure(ledger: Ledger, wall_s: float, cpu_s: float) -> Dict[str, Any]:
    """The ledger as a table that sums to the window: per-layer self
    time, idle (wall - process CPU) and the unattributed remainder."""
    layers = ledger.layer_self_s()
    attributed = sum(layers.values())
    return {
        "window_s": wall_s,
        "idle_s": wall_s - cpu_s,
        "layers_self_s": dict(sorted(layers.items())),
        "layers_calls": dict(sorted(ledger.layer_calls().items())),
        "unattributed_s": cpu_s - attributed,
        "spans_kept": len(ledger.spans),
        "spans_dropped": ledger.spans_dropped,
    }


def recovery_phases(ledger: Ledger, cycles: List[Dict[str, Any]],
                    victim: str) -> Dict[str, List[float]]:
    """Per cycle (ms): victim's join announcement -> first get_state at a
    sponsor -> set_state reaching the victim -> operational."""
    def first_after(times: List[float], t: float) -> Optional[float]:
        return next((x for x in sorted(times) if x >= t), None)

    marks = ledger.marks
    joins = marks.get(RECOVERY_ENTRIES["join"] + (victim,), [])
    gets = [t for (layer, entry, node), ts in marks.items()
            if (layer, entry) == RECOVERY_ENTRIES["get"] and node != victim
            for t in ts]
    sets = marks.get(RECOVERY_ENTRIES["set"] + (victim,), [])
    out: Dict[str, List[float]] = {"join_to_get": [], "get_to_set": [],
                                   "set_apply": []}
    for c in cycles:
        if c["t_operational"] is None:
            continue
        t_join = first_after(joins, c["t_restart"])
        t_get = first_after(gets, t_join) if t_join else None
        t_set = first_after(sets, t_get) if t_get else None
        if t_set is None or t_set > c["t_operational"]:
            continue
        out["join_to_get"].append((t_get - t_join) * 1e3)
        out["get_to_set"].append((t_set - t_get) * 1e3)
        out["set_apply"].append((c["t_operational"] - t_set) * 1e3)
    return out


def layer_metrics(*, ledger: Ledger, order_wait: OrderWait,
                  counters: Dict[str, int], ops: int, reads: int,
                  recoveries: int, wall_s: float, cpu_s: float,
                  cycles: Optional[Dict[str, Any]] = None,
                  victim: str = "") -> Dict[str, float]:
    """Every per-layer metric that comes from the traced window (micro
    timings and the simulator's own numbers are added by the caller)."""
    self_s = ledger.layer_self_s()
    calls = ledger.calls
    count = counters.get
    m: Dict[str, float] = {}

    for layer in PER_OP_LAYERS:
        m[f"{layer}.self_us_per_op"] = _ratio(
            self_s.get(layer, 0.0) * 1e6, ops)
    for layer in PER_RECOVERY_LAYERS:
        m[f"{layer}.self_ms_per_recovery"] = _ratio(
            self_s.get(layer, 0.0) * 1e3, recoveries)

    # Idle is the live clock sleeping; the simulator never waits.
    m["live.clock.idle_share"] = (1.0 - _ratio(cpu_s, wall_s)
                                  if "live.clock" in self_s else 0.0)
    m["live.clock.timers_per_op"] = _ratio(
        calls.get(("live.clock", "LiveScheduler.call_after"), 0)
        + calls.get(("live.clock", "LiveScheduler.call_at"), 0), ops)
    m["live.clock.timer_cb_self_us_per_op"] = _ratio(
        self_s.get("live.clock", 0.0) * 1e6, ops)

    m["totem.member.rotations_per_op"] = _ratio(
        count("totem.token", 0) / 3.0, ops)
    m["totem.member.frames_per_op"] = _ratio(count("totem.frame", 0), ops)
    m["totem.member.order_wait_ms_p50"] = _median(
        s * 1e3 for s in order_wait.samples_s)
    m["totem.member.retransmits"] = count("totem.retransmit", 0)
    m["totem.member.token_timeouts"] = count("totem.token_timeout", 0)
    m["totem.fragmentation.fragments_per_recovery"] = _ratio(
        ledger.tallies.get(("totem.fragmentation", "Fragmenter.fragment"), 0),
        recoveries)

    m["live.transport.sendto_per_op"] = _ratio(
        count("live.sys.sendto", 0), ops)
    m["live.transport.wakeups_per_op"] = _ratio(
        count("live.sys.recv_batches", 0), ops)
    m["live.transport.datagrams_per_wakeup"] = _ratio(
        count("live.sys.recv_datagrams", 0), count("live.sys.recv_batches", 0))
    m["live.transport.bytes_per_op"] = _ratio(
        count("live.codec.bytes_out", 0), ops)
    m["live.transport.send_drops"] = count("live.send_drop", 0)

    m["core.replication.duplicates_per_op"] = _ratio(
        count("replication.duplicate", 0), count("replication.delivered", 0))
    m["core.readfast.calls"] = sum(
        n for (layer, _e), n in calls.items() if layer == "core.readfast")
    m["core.readfast.fast_share"] = _ratio(
        count("interceptor.request_fast", 0), reads)
    m["core.readfast.fallbacks"] = count("lease.fallback", 0)
    m["obs.records_per_op"] = _ratio(calls.get(("obs", "Tracer.emit"), 0), ops)

    m["core.recovery.wire_bytes_per_recovery"] = _ratio(
        count("bulk.oob.bytes", 0) + count("bulk.inorder.bytes", 0),
        recoveries)
    m["core.bulk.pages_per_recovery"] = _ratio(
        calls.get(("core.bulk", "BulkSession.handle_page"), 0), recoveries)
    m["core.bulk.retransmits"] = count("bulk.retransmit", 0)

    phases = (recovery_phases(ledger, cycles["marks"], victim)
              if cycles else {})
    m["core.recovery.join_to_get_ms"] = _median(phases.get("join_to_get", []))
    m["core.recovery.get_to_set_ms"] = _median(phases.get("get_to_set", []))
    m["core.recovery.set_apply_ms"] = _median(phases.get("set_apply", []))

    cyc = cycles or {}
    m["totem.member.reform_ms_p50"] = _median(cyc.get("reform_ms", []))
    m["totem.member.rejoin_ms_p50"] = _median(cyc.get("rejoin_ms", []))
    m["totem.member.gather_rounds_per_cycle"] = _ratio(
        sum(cyc.get("gathers", [])), cyc.get("cycles", 0))
    blackouts = cyc.get("blackout_ms", [])
    m["live.loadgen.blackout_floor_ms"] = min(blackouts, default=0.0)
    m["live.loadgen.blackout_ms_p50"] = _median(blackouts)
    m["live.loadgen.blackout_ms_max"] = max(blackouts, default=0.0)
    m["live.loadgen.recovery_ms_p50"] = _median(cyc.get("recovery_ms", []))
    m["live.loadgen.state_sync_ms"] = _median(cyc.get("state_sync_ms", []))

    m["cpu_ms_per_op"] = _ratio(cpu_s * 1e3, ops)
    m["unattributed_share"] = _ratio(cpu_s - sum(self_s.values()), cpu_s)
    return m


SIM_SIZES = (10, 100_000, 350_000)
SIM_BULK_SIZES = (100_000, 350_000)


def simnet_metrics(ledger: Ledger,
                   sim_run: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """The simulator's own numbers (all zero on a live workload)."""
    names = (["simnet.events_per_s", "simnet.events_per_sim_s",
              "simnet.sim_time_ratio", "simnet.scheduler_self_share",
              "simnet.network_self_us_per_frame",
              "simnet.frames_per_recovery"]
             + [f"simnet.recovery_ms.{size}" for size in SIM_SIZES]
             + [f"simnet.recovery_bulk_ms.{size}" for size in SIM_BULK_SIZES])
    m = dict.fromkeys(names, 0.0)
    if sim_run is None:
        return m
    points, wall = sim_run["points"], sim_run["window_s"]
    events = sum(p["events"] for p in points)
    sim_s = sum(p["sim_s"] for p in points)
    scheduler_s = sum(s for (layer, entry), s in ledger.self_s.items()
                      if entry.startswith("Scheduler."))
    network_s = sum(s for (layer, entry), s in ledger.self_s.items()
                    if entry.startswith("Network."))
    frames = sum(n for (layer, entry), n in ledger.calls.items()
                 if entry.startswith("Network."))
    m["simnet.events_per_s"] = _ratio(events, wall)
    m["simnet.events_per_sim_s"] = _ratio(events, sim_s)
    m["simnet.sim_time_ratio"] = _ratio(sim_s, wall)
    m["simnet.scheduler_self_share"] = _ratio(scheduler_s, wall)
    m["simnet.network_self_us_per_frame"] = _ratio(network_s * 1e6, frames)
    m["simnet.frames_per_recovery"] = _ratio(
        sum(p["frames_in_recovery"] for p in points), len(points))
    for size in SIM_SIZES:
        m[f"simnet.recovery_ms.{size}"] = sim_run["curve"][str(size)]
    for size in SIM_BULK_SIZES:
        m[f"simnet.recovery_bulk_ms.{size}"] = sim_run["curve"][f"bulk.{size}"]
    return m
