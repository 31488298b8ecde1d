"""Shared fixtures for the benchmark harness.

Every benchmark runs a complete simulated deployment inside the
``benchmark`` callable (so pytest-benchmark captures the wall-clock cost of
the simulation) and reports the *simulated-time* metrics — the quantities
the paper actually plots — via printed tables and ``extra_info``.
"""

import pytest


def run_once(benchmark, fn):
    """Run a heavy simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once


@pytest.fixture
def strict_audit(monkeypatch):
    """Hard-fail consistency auditing (same contract as the test suite's
    fixture): every EternalSystem built while active gets an online
    auditor; any finding raises at teardown."""
    from repro.simnet.system import EternalSystem

    auditors = []
    original_init = EternalSystem.__init__

    def patched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        auditors.append(self.attach_auditor())

    monkeypatch.setattr(EternalSystem, "__init__", patched_init)
    yield auditors
    for auditor in auditors:
        auditor.finish(raise_on_findings=True)
