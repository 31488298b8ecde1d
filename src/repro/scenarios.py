"""A declarative fault-scenario DSL over :class:`~repro.simnet.system.EternalSystem`.

Reliability tests read better as schedules than as imperative driving
code::

    from repro.scenarios import (Scenario, Run, Kill, Restart,
                                 WaitOperational, ExpectProgress,
                                 ExpectConsistent)

    Scenario(
        Run(0.2),
        Kill("s2"),
        ExpectProgress("driver", min_acks=100, within=0.3),
        Restart("s2"),
        WaitOperational("store", "s2"),
        Run(0.3),
        ExpectConsistent("store", ["s1", "s2"]),
    ).execute(deployment)

Each step appends a transcript line; a failing expectation raises
:class:`ScenarioError` carrying the full transcript, so a broken schedule
reports *where in the fault sequence* the property broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

from repro.bench.deployments import ClientServerDeployment
from repro.errors import ReproError


class ScenarioError(ReproError):
    """An expectation failed; ``transcript`` shows the executed schedule."""

    def __init__(self, message: str, transcript: List[str]) -> None:
        rendered = "\n".join(transcript)
        super().__init__(f"{message}\n--- scenario transcript ---\n"
                         f"{rendered}")
        self.transcript = transcript


class Step:
    """Base class: a step acts on the deployment and describes itself."""

    def apply(self, ctx: "ScenarioContext") -> None:  # pragma: no cover
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class Run(Step):
    """Advance simulated time."""

    duration: float

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.run_for(self.duration)

    def describe(self) -> str:
        return f"run {self.duration * 1000:.0f} ms"


@dataclass
class Kill(Step):
    """Crash a node's process."""

    node: str

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.kill_node(self.node)

    def describe(self) -> str:
        return f"kill {self.node}"


@dataclass
class Restart(Step):
    """Re-launch a crashed node."""

    node: str

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.restart_node(self.node)

    def describe(self) -> str:
        return f"restart {self.node}"


@dataclass
class Hang(Step):
    """Hang one replica (process stays alive)."""

    group: str
    node: str

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.hang_replica(self.group, self.node)

    def describe(self) -> str:
        return f"hang {self.group}@{self.node}"


@dataclass
class Partition(Step):
    """Split the network into isolated groups of nodes."""

    groups: Sequence[Iterable[str]]

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.faults.partition(self.groups)

    def describe(self) -> str:
        sides = " | ".join("{" + ",".join(sorted(g)) + "}"
                           for g in self.groups)
        return f"partition {sides}"


@dataclass
class Heal(Step):
    """Remove any partition."""

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.faults.heal()

    def describe(self) -> str:
        return "heal partition"


@dataclass
class SetLoss(Step):
    """Set the network loss rate."""

    rate: float

    def apply(self, ctx: "ScenarioContext") -> None:
        ctx.system.faults.set_loss_rate(self.rate)

    def describe(self) -> str:
        return f"loss rate {self.rate:.0%}"


@dataclass
class WaitOperational(Step):
    """Wait until a group's replica on a node is operational."""

    group: str
    node: str
    timeout: float = 10.0

    def apply(self, ctx: "ScenarioContext") -> None:
        handle = ctx.group(self.group)
        if not ctx.system.wait_for(
                lambda: handle.is_operational_on(self.node),
                timeout=self.timeout):
            ctx.fail(f"{self.group}@{self.node} not operational within "
                     f"{self.timeout}s")

    def describe(self) -> str:
        return f"wait operational {self.group}@{self.node}"


@dataclass
class ExpectProgress(Step):
    """The packet driver must acknowledge ``min_acks`` more invocations
    within ``within`` simulated seconds."""

    client_group: str
    min_acks: int
    within: float

    def apply(self, ctx: "ScenarioContext") -> None:
        driver = ctx.deployment.driver
        target = driver.acked + self.min_acks
        if not ctx.system.wait_for(lambda: driver.acked >= target,
                                   timeout=self.within):
            ctx.fail(f"client progressed only {driver.acked - target + self.min_acks}"
                     f"/{self.min_acks} acks in {self.within}s")

    def describe(self) -> str:
        return f"expect +{self.min_acks} acks within {self.within}s"


@dataclass
class ExpectStalled(Step):
    """The packet driver must make NO progress for ``duration`` seconds."""

    client_group: str
    duration: float

    def apply(self, ctx: "ScenarioContext") -> None:
        driver = ctx.deployment.driver
        before = driver.acked
        ctx.system.run_for(self.duration)
        if driver.acked != before:
            ctx.fail(f"client progressed {driver.acked - before} acks "
                     f"while expected stalled")

    def describe(self) -> str:
        return f"expect stalled for {self.duration}s"


@dataclass
class ExpectConsistent(Step):
    """All listed live replicas of a group report identical state."""

    group: str
    nodes: Sequence[str]

    def apply(self, ctx: "ScenarioContext") -> None:
        handle = ctx.group(self.group)
        states = {}
        for node in self.nodes:
            servant = handle.servant_on(node)
            if servant is None:
                ctx.fail(f"no live replica of {self.group} on {node}")
            states[node] = servant.get_state()
        reference = states[self.nodes[0]]
        for node, state in states.items():
            if state != reference:
                ctx.fail(f"replica divergence: {self.nodes[0]}={reference!r}"
                         f" vs {node}={state!r}")

    def describe(self) -> str:
        return f"expect {self.group} consistent on {list(self.nodes)}"


@dataclass
class Check(Step):
    """Arbitrary predicate over the deployment."""

    label: str
    predicate: Callable[[ClientServerDeployment], bool]

    def apply(self, ctx: "ScenarioContext") -> None:
        if not self.predicate(ctx.deployment):
            ctx.fail(f"check failed: {self.label}")

    def describe(self) -> str:
        return f"check: {self.label}"


class ScenarioContext:
    """Execution state handed to each step."""

    def __init__(self, deployment: ClientServerDeployment,
                 transcript: List[str]) -> None:
        self.deployment = deployment
        self.system = deployment.system
        self._transcript = transcript

    def group(self, group_id: str):
        if group_id == self.deployment.server_group.group_id:
            return self.deployment.server_group
        if group_id == self.deployment.client_group.group_id:
            return self.deployment.client_group
        from repro.core.system import GroupHandle
        return GroupHandle(self.system, group_id)

    def fail(self, message: str) -> None:
        self._transcript.append(f"  !! {message}")
        raise ScenarioError(message, self._transcript)


class Scenario:
    """An ordered fault/assertion schedule."""

    def __init__(self, *steps: Step) -> None:
        self.steps = list(steps)

    def execute(self, deployment: ClientServerDeployment) -> List[str]:
        """Run every step; returns the transcript on success."""
        transcript: List[str] = []
        ctx = ScenarioContext(deployment, transcript)
        for index, step in enumerate(self.steps):
            stamp = f"t={ctx.system.now * 1000:9.2f} ms"
            transcript.append(f"  {index + 1:2}. {stamp}  {step.describe()}")
            step.apply(ctx)
        return transcript
