"""The replica phase machine: one table, one writer, one rendering.

``PHASE_TRANSITIONS`` is the whole of it; these tests walk the table
against :meth:`ReplicaBinding.set_phase`, fail on any phase write in
``src/`` outside that method, and keep PROTOCOL.md §3.2 identical to the
code's table.
"""

import ast
import itertools
import re
from pathlib import Path

import pytest

from repro.core.replication import PHASE_TRANSITIONS, Phase, ReplicaBinding
from repro.errors import ReplicationError

ROOT = Path(__file__).resolve().parents[3]


def _binding(phase):
    return ReplicaBinding("g", None, None, None, None, None, phase=phase)


@pytest.mark.parametrize("old,new", itertools.product(Phase, Phase),
                         ids=lambda phase: phase.value)
def test_set_phase_allows_exactly_the_table(old, new):
    binding = _binding(old)
    if old is new or (old, new) in PHASE_TRANSITIONS:
        binding.set_phase(new)
        assert binding.phase is new
        assert binding.operational == (new is Phase.OPERATIONAL)
    else:
        with pytest.raises(ReplicationError):
            binding.set_phase(new)
        assert binding.phase is old


def test_table_is_closed_and_every_phase_is_reachable_and_left():
    assert all(old is not new for old, new in PHASE_TRANSITIONS)
    assert {old for old, _ in PHASE_TRANSITIONS} == set(Phase)
    assert {new for _, new in PHASE_TRANSITIONS} == set(Phase)
    # bindings are born joining
    assert ReplicaBinding("g", *[None] * 5).phase is Phase.JOINING


def test_phase_is_written_only_by_set_phase():
    writers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                           else [])
                if any(isinstance(t, ast.Attribute) and t.attr == "phase"
                       for t in targets):
                    writers.append(f"{path.relative_to(ROOT)}:{func.name}")
    assert writers == ["src/repro/core/replication.py:set_phase"]


def test_protocol_md_renders_the_same_table():
    text = (ROOT / "PROTOCOL.md").read_text()
    section = text[text.index("### 3.2 Replica phases"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| (\w+) \| (\w+) \| .+ \|$", section, re.MULTILINE)
    documented = {(Phase(old), Phase(new)) for old, new in rows
                  if (old, new) != ("From", "To")}
    assert documented == set(PHASE_TRANSITIONS)
    # ...and the phases themselves
    named = set(re.findall(r"^\| `(\w+)` \| ", section, re.MULTILINE))
    assert named == {phase.value for phase in Phase}
