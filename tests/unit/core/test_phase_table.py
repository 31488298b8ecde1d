"""The phase machines: one table, one writer, one rendering each.

Two machines take these tests: the replica's (``PHASE_TRANSITIONS``,
written by :meth:`ReplicaBinding.set_phase`, PROTOCOL.md §3.2) and the
Totem ring member's (``MEMBER_TRANSITIONS``, written by
``TotemMember._set_state``, PROTOCOL.md §5.1).  The tests walk each table
against its writer, fail on a phase write outside that writer, and keep
each PROTOCOL.md section identical to the code's table.
"""

import ast
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Tuple

import pytest

from repro.core.replication import PHASE_TRANSITIONS, Phase, ReplicaBinding
from repro.errors import ReplicationError, TotemError
from repro.simnet.endpoint import Endpoint
from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.totem.config import TotemConfig
from repro.totem.member import MEMBER_TRANSITIONS, MemberState, TotemMember

ROOT = Path(__file__).resolve().parents[3]


def _binding(phase):
    return ReplicaBinding("g", None, None, None, None, None, phase=phase)


def _member(state):
    scheduler = Scheduler()
    process = Process(scheduler, "A")
    member = TotemMember(Endpoint(process, Network(scheduler)),
                         TotemConfig(), on_deliver=lambda origin, data: None)
    member.state = state
    return member


@dataclass(frozen=True)
class Machine:
    phases: type
    table: frozenset
    make: Callable            # a phase -> an object in that phase
    writer: str               # the one method that writes ``field``
    field: str
    error: type
    same_phase_is_no_change: bool
    scanned: str              # the files no other function may write it in
    writers: Tuple[str, ...]  # every "path:function" that does
    section: str              # the PROTOCOL.md rendering


MACHINES = {
    "replica": Machine(
        Phase, PHASE_TRANSITIONS, _binding, "set_phase", "phase",
        ReplicationError, True, "src/**/*.py",
        ("src/repro/core/replication.py:set_phase",),
        "### 3.2 Replica phases"),
    "member": Machine(
        MemberState, MEMBER_TRANSITIONS, _member, "_set_state", "state",
        TotemError, False, "src/repro/totem/member.py",
        ("src/repro/totem/member.py:__init__",      # the initial value
         "src/repro/totem/member.py:_set_state"),
        "### 5.1 Ring member phases"),
}


@pytest.mark.parametrize("machine,old,new", [
    # the replica's cases keep the ids they had before the member joined
    pytest.param(machine, old, new,
                 id="-".join(([] if name == "replica" else [name])
                             + [old.value, new.value]))
    for name, machine in MACHINES.items()
    for old, new in itertools.product(machine.phases, repeat=2)])
def test_set_phase_allows_exactly_the_table(machine, old, new):
    obj = machine.make(old)
    write = getattr(obj, machine.writer)
    if (old, new) in machine.table or (old is new
                                       and machine.same_phase_is_no_change):
        write(new)
        assert getattr(obj, machine.field) is new
        assert obj.operational == (new.value == "operational")
    else:
        with pytest.raises(machine.error):
            write(new)
        assert getattr(obj, machine.field) is old


def test_table_is_closed_and_every_phase_is_reachable_and_left():
    assert all(old is not new for old, new in PHASE_TRANSITIONS)
    assert {old for old, _ in PHASE_TRANSITIONS} == set(Phase)
    assert {new for _, new in PHASE_TRANSITIONS} == set(Phase)
    # bindings are born joining
    assert ReplicaBinding("g", *[None] * 5).phase is Phase.JOINING


def _writers(machine):
    writers = []
    for path in sorted(ROOT.glob(machine.scanned)):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                if any(isinstance(t, ast.Attribute)
                       and t.attr == machine.field for t in targets):
                    writers.append(f"{path.relative_to(ROOT)}:{func.name}")
    return tuple(writers)


def test_phase_is_written_only_by_set_phase():
    for machine in MACHINES.values():
        assert _writers(machine) == machine.writers


def test_protocol_md_renders_the_same_table():
    text = (ROOT / "PROTOCOL.md").read_text()
    for machine in MACHINES.values():
        section = text[text.index(machine.section):]
        section = section[:section.index("\n## ")]
        values = {phase.value for phase in machine.phases}
        rows = re.findall(r"^\| (\w+) \| (\w+) \| .+ \|$", section,
                          re.MULTILINE)
        documented = {(machine.phases(old), machine.phases(new))
                      for old, new in rows if old in values or new in values}
        assert documented == set(machine.table)
        # ...and the phases themselves
        named = set(re.findall(r"^\| `(\w+)` \| ", section, re.MULTILINE))
        assert named == values
