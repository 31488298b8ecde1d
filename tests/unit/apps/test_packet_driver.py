"""Unit tests for the closed-loop client and its three configurations
(with a stub container)."""

import pytest

from repro.apps.packet_driver import (ClosedLoopDriver, PacketDriverServant,
                                      ReadMixDriver)
from repro.ftcorba.checkpointable import InvalidState
from repro.giop.ior import IOR
from repro.giop.messages import ReplyMessage, ReplyStatus
from repro.orb.objectkey import make_key

IOR_TEXT = IOR("IDL:repro/KvStore:1.0", "store", 2809,
               make_key("RootPOA", b"store")).stringify()


class StubProxy:
    def __init__(self):
        self.invocations = []
        self.callbacks = []

    def invoke(self, operation, *args, on_reply=None):
        self.invocations.append((operation, args))
        self.callbacks.append(on_reply)
        return len(self.invocations) - 1


class StubContainer:
    def __init__(self):
        self.proxy = StubProxy()

    def connect(self, ior):
        self.ior = ior
        return self.proxy


def make_driver(**kwargs):
    driver = PacketDriverServant(IOR_TEXT, **kwargs)
    driver._eternal_container = StubContainer()
    return driver


def reply(token):
    return ReplyMessage(request_id=0, result=token)


def test_start_sends_first_invocation():
    driver = make_driver()
    driver.start()
    assert driver.sent == 1
    proxy = driver._eternal_container.proxy
    assert proxy.invocations == [("echo", (0,))]


def test_start_is_idempotent():
    driver = make_driver()
    driver.start()
    driver.start()
    assert driver.sent == 1


def test_reply_triggers_next_invocation():
    driver = make_driver()
    driver.start()
    proxy = driver._eternal_container.proxy
    proxy.callbacks[0](reply(0))
    assert driver.acked == 1
    assert driver.last_result == 0
    assert proxy.invocations[-1] == ("echo", (1,))


def test_exception_reply_does_not_advance():
    driver = make_driver()
    driver.start()
    proxy = driver._eternal_container.proxy
    bad = ReplyMessage(request_id=0,
                       reply_status=ReplyStatus.SYSTEM_EXCEPTION,
                       exception_id="IDL:X:1.0", result="err")
    proxy.callbacks[0](bad)
    assert driver.acked == 0
    assert len(proxy.invocations) == 1


def test_max_invocations_bounds_stream():
    driver = make_driver(max_invocations=2)
    driver.start()
    proxy = driver._eternal_container.proxy
    proxy.callbacks[0](reply(0))
    proxy.callbacks[1](reply(1))
    assert driver.sent == 2
    assert len(proxy.invocations) == 2


def test_resume_reissues_inflight():
    driver = make_driver()
    driver.set_state({"sent": 5, "acked": 4, "last_result": 3})
    driver.resume()
    proxy = driver._eternal_container.proxy
    assert proxy.invocations == [("echo", (4,))]   # token of in-flight #5
    assert driver.sent == 5                        # not double-counted


def test_resume_with_nothing_outstanding_sends_next():
    driver = make_driver()
    driver.set_state({"sent": 3, "acked": 3, "last_result": 2})
    driver.resume()
    assert driver._eternal_container.proxy.invocations == []
    # nothing in flight and already started: wait for normal stream


def test_resume_on_fresh_state_starts():
    driver = make_driver()
    driver.resume()
    assert driver.sent == 1


def test_state_roundtrip():
    driver = make_driver()
    driver.set_state({"sent": 9, "acked": 8, "last_result": 7})
    assert driver.get_state() == {"sent": 9, "acked": 8, "last_result": 7,
                                  "scribbles_sent": 0, "scribbles_acked": 0}


def test_set_state_validates():
    with pytest.raises(InvalidState):
        make_driver().set_state({"sent": 1})


# ---------------------------------------------------------------------------
# The recovery contract every configuration of the one client keeps
# ---------------------------------------------------------------------------

CONFIGURATIONS = {
    "echo": lambda: PacketDriverServant(IOR_TEXT),
    "scribble-mix": lambda: PacketDriverServant(IOR_TEXT, scribble_every=2),
    "read-mix": lambda: ReadMixDriver(IOR_TEXT, write_every=3),
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_every_configuration_keeps_the_recovery_contract(name):
    driver = CONFIGURATIONS[name]()
    assert isinstance(driver, ClosedLoopDriver)
    driver._eternal_container = StubContainer()
    proxy = driver._eternal_container.proxy
    driver.start()
    driver.start()
    assert len(proxy.invocations) == 1              # start issues once
    for _ in range(5):                              # stream a few replies
        proxy.callbacks[-1](reply(len(proxy.invocations) - 1))
    in_flight = proxy.invocations[-1]
    state = driver.get_state()

    recovered = CONFIGURATIONS[name]()
    recovered._eternal_container = StubContainer()
    recovered.set_state(state)
    assert recovered.get_state() == state           # round-trips
    recovered.resume()
    # exactly the invocation the state says is in flight, nothing new
    assert recovered._eternal_container.proxy.invocations == [in_flight]
    assert recovered.get_state() == state
