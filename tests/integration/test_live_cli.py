"""The ``python -m repro live`` scenario end to end, on loopback UDP.

One scenario serves every ring count: ``--rings 1`` is the one-ring case
and every observability flag works at ``--rings 2``; a faulted ring whose
client never resumes after the recovery fails the run.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.__main__ import build_parser
from repro.apps.packet_driver import ClosedLoopDriver
from repro.live.cli import run_live
from repro.live.loadgen import LIVE_APPS
from repro.obs.health import parse_exposition

pytestmark = pytest.mark.live

RECOVERY_PHASES = {f"recovery.{phase}" for phase in (
    "total", "announce", "quiesce", "capture", "xfer", "apply", "assign",
    "drain")}


def live(*flags):
    return run_live(build_parser().parse_args(
        ["live", "--nodes", "3", "--app", "counter", "--kill-after", "1",
         "--duration", "3", *flags]))


def test_one_ring_is_the_one_ring_case():
    assert live("--rings", "1") == 0


def test_two_rings_take_every_observability_flag(tmp_path):
    trace, health = tmp_path / "trace.json", tmp_path / "health.prom"
    flight, folded = tmp_path / "flight", tmp_path / "profile.folded"
    assert live("--rings", "2", "--trace-out", str(trace),
                "--health-out", str(health), "--flight-dir", str(flight),
                "--profile", "--profile-out", str(folded)) == 0
    spans = {event["name"] for event in
             json.loads(trace.read_text())["traceEvents"]
             if event.get("ph") == "X"}
    assert RECOVERY_PHASES <= spans
    series = parse_exposition(health.read_text())
    assert {labels.get("ring") for name, labels, _ in series
            if name == "eternal_ring_formed"} == {"r0", "r1"}
    assert folded.stat().st_size > 0
    assert sorted(flight.glob("*.jsonl"))


def test_a_client_that_never_resumes_fails_the_run(monkeypatch, capsys):
    # The driver stops after 50 invocations — long before the kill — so
    # nothing is acknowledged once the victim is back.
    monkeypatch.setitem(LIVE_APPS, "counter", dataclasses.replace(
        LIVE_APPS["counter"], make_driver=lambda iogr: ClosedLoopDriver(
            iogr, "increment", max_invocations=50)))
    assert live("--rings", "1") == 1
    assert "ring r0" in capsys.readouterr().err
