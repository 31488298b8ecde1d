"""Membership fuzzing: seeded fault schedules against a simulated ring.

``python -m repro fuzz --seeds N --budget T`` runs up to ``N`` seeds (or
until ``T`` CPU seconds are spent) of a small Totem ring on simnet.  Each
seed draws a scenario — ring size, timer profile, background traffic and
a schedule of membership events:

* ``kill`` a member;
* ``bounce`` a member: kill it and re-launch it before the token timeout
  (a restart the ring never noticed as a departure);
* ``restart`` a killed member, at once or at the next gather or FORM any
  member starts (a random phase of the next membership change);
* a ``loss`` burst on every link;
* ``hold_cancel_loss``: every ``HoldCancel`` dropped for a while;
* ``form_loss``: the next FORM addressed to one member (its own loopback
  copy if it leads) is dropped;
* ``slow_joins``: one member's JOINs arrive late, by up to 2 ms, for a
  while (a busy host, a late timer);
* ``total_failure``: every live member is killed at once (the ring re-forms
  from restarts alone, under a ring id newer than any it installed).

Then every fault heals and the ring gets a settling time.
Checks:

* the strict consistency auditor over the trace (members of one ring
  configuration publish identical delivery-order digests);
* at every install, at most one operational ring per ring key: the
  operational members holding one key agree on its id and members, and
  each is one of them;
* no live member is dropped early: a FORM sent on consensus, before the
  gather deadline, names every live member of its leader's last view;
* at the end, every live member is operational in one ring made of
  exactly the live members.

A failing seed prints its scenario and the command that replays it.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.live.system import LIVE_TOTEM_CONFIG
from repro.obs.audit import ConsistencyAuditor
from repro.runtime.trace import Tracer
from repro.simnet.endpoint import Endpoint
from repro.simnet.faults import FaultInjector
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.totem.config import TotemConfig
from repro.totem.member import TotemMember
from repro.totem.messages import FormMsg, HoldCancel, JoinMsg

#: Timer profiles a scenario runs under: the simulator's defaults, and
#: the live runtime's timers (a 1 ms hold that parks, 80 ms gather).
PROFILES = {"sim": TotemConfig(), "live": LIVE_TOTEM_CONFIG}


@dataclass(frozen=True)
class Event:
    """One scheduled fault; ``arg`` is kind-specific (see the module
    docstring): a restart's phase, a loss burst's (rate, seconds), a
    hold-cancel loss's seconds, slow JOINs' (delay, seconds), a bounce's
    seconds down."""

    time: float
    kind: str
    node: str = ""
    arg: object = None

    def __str__(self) -> str:
        detail = f" {self.node}" if self.node else ""
        if self.arg is not None:
            detail += f" {self.arg}"
        return f"t={self.time * 1e3:9.3f} ms  {self.kind}{detail}"


@dataclass
class Scenario:
    seed: int
    profile: str
    nodes: Tuple[str, ...]
    traffic_period: float
    events: List[Event] = field(default_factory=list)

    @property
    def config(self) -> TotemConfig:
        return PROFILES[self.profile]

    @property
    def heal_at(self) -> float:
        return max((e.time for e in self.events), default=0.0) + 0.05

    @property
    def settle(self) -> float:
        """Long enough for the slowest legal path: a token timeout, then
        a FORM lost and its recovery deadline run out, then a round."""
        config = self.config
        return 4 * config.token_timeout + 20 * config.gather_timeout

    def describe(self) -> str:
        lines = [f"seed {self.seed}: {len(self.nodes)} members "
                 f"{','.join(self.nodes)}, profile {self.profile}, traffic "
                 f"every {self.traffic_period * 1e3:.1f} ms"]
        lines += [f"  {event}" for event in self.events]
        lines.append(f"  t={self.heal_at * 1e3:9.3f} ms  heal; settle "
                     f"{self.settle * 1e3:.0f} ms")
        return "\n".join(lines)


def make_scenario(seed: int) -> Scenario:
    """The scenario ``seed`` names (deterministic)."""
    rng = random.Random(seed)
    profile = rng.choice(sorted(PROFILES))
    gather = PROFILES[profile].gather_timeout
    nodes = tuple("ABCDE"[:rng.randint(2, 5)])
    scenario = Scenario(seed, profile, nodes, rng.uniform(0.5e-3, 5e-3))
    down: List[str] = []
    t = 0.0
    for _ in range(rng.randint(2, 7)):
        t += rng.uniform(0.2, 12) * gather
        kind = rng.choice(("kill", "restart", "loss", "hold_cancel_loss",
                           "form_loss", "slow_joins", "bounce",
                           "total_failure"))
        if kind == "restart" and not down:
            kind = "kill"
        if kind in ("kill", "bounce", "total_failure") \
                and len(down) == len(nodes):
            kind = "restart"
        if kind == "kill":
            node = rng.choice([n for n in nodes if n not in down])
            down.append(node)
            scenario.events.append(Event(t, "kill", node))
        elif kind == "total_failure":
            down += [n for n in nodes if n not in down]
            scenario.events.append(Event(t, "total_failure"))
        elif kind == "restart":
            node = down.pop(rng.randrange(len(down)))
            phase = rng.choice(("now", "gather", "form"))
            scenario.events.append(Event(t, "restart", node, phase))
        elif kind == "loss":
            burst = (round(rng.uniform(0.05, 0.4), 3),
                     round(rng.uniform(0.5, 5) * gather, 6))
            scenario.events.append(Event(t, "loss", arg=burst))
        elif kind == "hold_cancel_loss":
            scenario.events.append(Event(
                t, "hold_cancel_loss", arg=round(rng.uniform(5, 50) * gather,
                                                 6)))
        elif kind == "bounce":
            node = rng.choice([n for n in nodes if n not in down])
            down_for = round(rng.uniform(0.05, 0.9)
                             * PROFILES[profile].token_timeout, 6)
            scenario.events.append(Event(t, "bounce", node, down_for))
        elif kind == "slow_joins":
            slow = (round(rng.uniform(0.02e-3, 2e-3), 6),
                    round(rng.uniform(5, 50) * gather, 6))
            scenario.events.append(Event(t, "slow_joins", rng.choice(nodes),
                                         slow))
        else:
            scenario.events.append(Event(t, "form_loss", rng.choice(nodes)))
    return scenario


class _Run:
    """One scenario executing on a fresh simulated ring."""

    def __init__(self, scenario: Scenario, *, keep_records: bool) -> None:
        self.scenario = scenario
        self.scheduler = Scheduler()
        self.tracer = Tracer(keep_records=keep_records)
        self.tracer.bind_clock(lambda: self.scheduler.now)
        self.network = Network(self.scheduler)
        self.faults = FaultInjector(self.network, seed=scenario.seed)
        self.auditor = ConsistencyAuditor().bind(self.tracer)
        self.members: Dict[str, TotemMember] = {}
        self.findings: List[str] = []
        self._sent = 0
        # Restarts waiting for the next "gather" or "form" record.
        self._awaiting: List[Tuple[str, str]] = []    # (node, record)
        self._dropping_cancels_until = -1.0
        self._form_losses: List[str] = []
        self._slow: Dict[str, Tuple[float, float]] = {}  # node -> delay, end
        self.tracer.subscribe(self._observe, kinds=self.KINDS)
        self.network.add_filter(self._drop)
        for node in scenario.nodes:
            self._spawn(Process(self.scheduler, node, tracer=self.tracer))

    def _spawn(self, process: Process) -> None:
        member = TotemMember(Endpoint(process, self.network),
                             self.scenario.config,
                             on_deliver=lambda origin, payload: None,
                             tracer=self.tracer)
        self.members[process.node_id] = member
        process.call_after(self.scenario.traffic_period, self._traffic,
                           member)

    def _traffic(self, member: TotemMember) -> None:
        if self.scheduler.now >= self.scenario.heal_at:
            return
        self._sent += 1
        member.multicast(f"{member.node_id}:{self._sent}".encode())
        member.endpoint.process.call_after(self.scenario.traffic_period,
                                           self._traffic, member)

    # -- faults ---------------------------------------------------------

    def _drop(self, src: str, dst: str, payload, size: int) -> bool:
        if isinstance(payload, HoldCancel):
            return self.scheduler.now < self._dropping_cancels_until
        if isinstance(payload, FormMsg) and dst in self._form_losses:
            self._form_losses.remove(dst)
            return True
        if isinstance(payload, JoinMsg) and src in self._slow:
            delay, until = self._slow[src]
            if self.scheduler.now < until:
                self.scheduler.call_after(delay, self._deliver_late, src,
                                          dst, payload)
                return True
        return False

    def _deliver_late(self, src: str, dst: str, payload) -> None:
        if self.network.process(dst).alive:
            self.members[dst].endpoint.deliver(src, payload)

    def _apply(self, event: Event) -> None:
        if event.kind == "kill":
            self.faults.crash(event.node)
        elif event.kind == "total_failure":
            for member in self._live():
                self.faults.crash(member.node_id)
        elif event.kind == "restart":
            if event.arg == "now":
                self._restart(event.node)
            else:
                self._awaiting.append((event.node, event.arg))
        elif event.kind == "loss":
            rate, seconds = event.arg
            self.faults.set_loss_rate(rate)
            self.scheduler.call_after(seconds, self.faults.set_loss_rate, 0.0)
        elif event.kind == "bounce":
            self.faults.crash(event.node)
            self.scheduler.call_after(event.arg, self._restart, event.node)
        elif event.kind == "hold_cancel_loss":
            self._dropping_cancels_until = self.scheduler.now + event.arg
        elif event.kind == "slow_joins":
            delay, seconds = event.arg
            self._slow[event.node] = (delay, self.scheduler.now + seconds)
        else:
            self._form_losses.append(event.node)

    def _restart(self, node: str) -> None:
        process = self.network.process(node)
        if not process.alive:
            process.restart()
            self._spawn(process)

    def _heal(self) -> None:
        self.faults.set_loss_rate(0.0)
        self._dropping_cancels_until = -1.0
        self._form_losses.clear()
        self._slow.clear()
        for node, _ in self._awaiting:
            self._restart(node)
        self._awaiting.clear()

    # -- checks ---------------------------------------------------------

    #: The record kinds :meth:`_observe` reads.
    KINDS = ("totem.gather", "totem.form", "totem.install")

    def _observe(self, record) -> None:
        if self._awaiting and record.event in ("gather", "form"):
            due = [node for node, event in self._awaiting
                   if event == record.event]
            self._awaiting = [(n, e) for n, e in self._awaiting
                              if e != record.event]
            for node in due:
                self.scheduler.call_after(0.0, self._restart, node)
        if record.event == "install":
            self._check_one_ring_per_key()
        elif (record.event == "form"
              and record.fields.get("on") == "consensus"):
            self._check_no_early_drop(record.fields["node"],
                                      record.fields["members"])

    def _live(self) -> List[TotemMember]:
        return [m for m in self.members.values()
                if m.endpoint.process.alive]

    def _check_one_ring_per_key(self) -> None:
        rings: Dict[int, set] = defaultdict(set)
        for member in self._live():
            if member.operational:
                rings[member._ring_key].add((member.node_id, member.ring_id,
                                             member.members))
        for key, holders in rings.items():
            views = {(ring_id, members) for _n, ring_id, members in holders}
            strangers = [n for n, _r, members in holders if n not in members]
            if len(views) > 1 or strangers:
                self.findings.append(
                    f"t={self.scheduler.now * 1e3:.3f} ms: ring key "
                    f"{key:08x} held by {sorted(holders)}")

    def _check_no_early_drop(self, leader: str, members) -> None:
        view = self.members[leader].members
        dropped = [m for m in view if m not in members
                   and self.network.process(m).alive]
        if dropped:
            self.findings.append(
                f"t={self.scheduler.now * 1e3:.3f} ms: {leader} formed "
                f"{members} on consensus without live {dropped}")

    def _check_settled(self) -> None:
        live = self._live()
        names = tuple(sorted(m.node_id for m in live))
        for member in live:
            if not member.operational or member.members != names:
                self.findings.append(
                    f"end: {member.node_id} is {member.state.value} in "
                    f"{member.members or '()'}, live members {names}")

    def execute(self) -> None:
        for event in self.scenario.events:
            self.scheduler.call_at(event.time, self._apply, event)
        self.scheduler.call_at(self.scenario.heal_at, self._heal)
        try:
            self.scheduler.run_until(self.scenario.heal_at
                                     + self.scenario.settle)
        except Exception as exc:    # a protocol crash is a finding too
            self.findings.append(f"t={self.scheduler.now * 1e3:.3f} ms: "
                                 f"{type(exc).__name__}: {exc}")
            return
        self._check_settled()
        self.auditor.finish()
        self.findings += [str(f) for f in self.auditor.findings]


def run_seed(seed: int, *, keep_records: bool = False) -> _Run:
    """Run the scenario of ``seed``; the finished run holds the scenario,
    its findings and, with ``keep_records``, its trace."""
    run = _Run(make_scenario(seed), keep_records=keep_records)
    run.execute()
    return run


def fuzz(seeds: int, budget: float, first_seed: int = 0,
         out=print) -> int:
    """Run seeds ``first_seed`` onward until ``seeds`` have run or
    ``budget`` CPU seconds are spent; exit status 1 if any seed failed."""
    started = time.process_time()
    failed = ran = 0
    for seed in range(first_seed, first_seed + seeds):
        if ran and time.process_time() - started >= budget:
            break
        run = run_seed(seed)
        ran += 1
        if run.findings:
            failed += 1
            out(f"FAIL {run.scenario.describe()}")
            for finding in run.findings[:5]:
                out(f"  finding: {finding}")
            out(f"  replay: python -m repro fuzz --replay {seed}")
    spent = time.process_time() - started
    out(f"fuzz: {ran} seeds ({first_seed}..{first_seed + ran - 1}), "
        f"{failed} failed, {spent:.1f} CPU s, "
        f"{ran / spent if spent else 0.0:.1f} seeds per CPU-second")
    return 1 if failed else 0


def replay(seed: int, out=print) -> int:
    """Re-run one seed and print its scenario, membership trace and
    findings."""
    run = run_seed(seed, keep_records=True)
    out(run.scenario.describe())
    for record in run.tracer.records:
        if record.category == "totem" and record.event in (
                "gather", "form", "install", "token_timeout",
                "recovery_timeout"):
            fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
            out(f"  {record.time * 1e3:9.3f} ms  {record.event:16s} {fields}")
    for finding in run.findings:
        out(f"  finding: {finding}")
    out("ok" if not run.findings else f"{len(run.findings)} finding(s)")
    return 1 if run.findings else 0
