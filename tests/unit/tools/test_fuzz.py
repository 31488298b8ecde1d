"""The membership fuzzer: deterministic scenarios, clean on the protocol as
it is, and each mutant of the one-round membership rules caught."""

import pytest

from repro.__main__ import main
from repro.tools import fuzz
from repro.totem.member import TotemMember


def test_a_seed_names_one_scenario():
    assert fuzz.make_scenario(5) == fuzz.make_scenario(5)
    assert fuzz.make_scenario(5) != fuzz.make_scenario(6)
    kinds = {event.kind for seed in range(40)
             for event in fuzz.make_scenario(seed).events}
    assert kinds == {"kill", "restart", "loss", "hold_cancel_loss",
                     "form_loss", "slow_joins", "bounce", "total_failure"}


@pytest.mark.parametrize("seed", [19, 35, 72])
def test_seeds_that_catch_the_mutants_pass_as_is(seed):
    assert fuzz.run_seed(seed).findings == []


def _without_view_term(self):
    return tuple(sorted(set(self._joins) | {self.node_id}))


def _leader_arms_no_recovery_deadline(self):
    """``_on_gather_deadline`` before the fix that made the leader, too,
    await its own FORM under the recovery deadline."""
    self._timers.pop("gather", None)
    candidates = sorted(self._joins)
    if candidates[0] != self.node_id:
        self._arm("recovery", self.config.gather_timeout * 5,
                  self._on_recovery_timeout)
        return
    form = self._compute_form(candidates)
    self.tracer.emit("totem", "form", node=self.node_id,
                     ring_id=form.ring_id, members=form.members,
                     flush_seq=form.flush_seq, on="deadline", late_ms=0.0)
    self.endpoint.broadcast(form, form.size_bytes)


@pytest.mark.parametrize("attribute,mutant,seed,finding", [
    ("_says_nothing_new", lambda self, src, join: False, 35, "end:"),
    ("_candidates", _without_view_term, 72, "on consensus without live"),
    ("_on_gather_deadline", _leader_arms_no_recovery_deadline, 19, "end:"),
], ids=["every-join-restarts", "consensus-without-view",
        "leader-without-recovery-deadline"])
def test_mutant_is_caught(monkeypatch, attribute, mutant, seed, finding):
    monkeypatch.setattr(TotemMember, attribute, mutant)
    findings = fuzz.run_seed(seed).findings
    assert any(finding in f for f in findings), findings


def test_cli_reports_the_rate_and_replays_a_failing_seed(monkeypatch,
                                                         capsys):
    assert main(["fuzz", "--seeds", "2", "--budget", "30"]) == 0
    assert "seeds per CPU-second" in capsys.readouterr().out
    monkeypatch.setattr(TotemMember, "_says_nothing_new",
                        lambda self, src, join: False)
    assert fuzz.fuzz(1, 30, first_seed=35) == 1
    out = capsys.readouterr().out
    assert "FAIL seed 35:" in out
    assert "replay: python -m repro fuzz --replay 35" in out
    assert main(["fuzz", "--replay", "35"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("seed 35:") and "finding: end:" in out
