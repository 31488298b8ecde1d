"""Shared fixtures for the test suite."""

import pytest

from repro.simnet.network import Network
from repro.simnet.process import Process
from repro.simnet.scheduler import Scheduler
from repro.runtime.trace import Tracer


@pytest.fixture
def scheduler():
    return Scheduler()


@pytest.fixture
def tracer(scheduler):
    t = Tracer(keep_records=True)
    t.bind_clock(lambda: scheduler.now)
    return t


@pytest.fixture
def network(scheduler, tracer):
    return Network(scheduler, tracer=tracer)


@pytest.fixture
def make_process(scheduler, tracer):
    def factory(node_id="node"):
        return Process(scheduler, node_id, tracer=tracer)
    return factory


@pytest.fixture
def strict_audit(monkeypatch):
    """Hard-fail consistency auditing for whole-system tests.

    Every :class:`EternalSystem` constructed while the fixture is active
    gets an online auditor attached at birth (so it sees the stream from
    the very first record); at teardown every auditor is finished and any
    finding raises, failing the test.  Yields the list of attached
    auditors for tests that want to assert on them directly.
    """
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
