"""Each IIOP message is parsed once per node that uses it.

The interceptor reads the headers of the requests and replies its own ORB
has just encoded (paper §4.2.1: it learns the ``request_id`` "by parsing
every outgoing IIOP request message") and never decodes their bodies; the
only full GIOP decodes of an ordered invocation are the ones the ORBs
themselves need — each executing server replica's ``decode_request`` and
the client's ``handle_reply``.
"""

import asyncio
import sys
from collections import Counter

import pytest

from repro.bench.deployments import build_client_server
from repro.core import replication
from repro.giop import messages
from repro.live.loadgen import LIVE_APPS, deploy
from repro.live.system import LiveSystem


def count_decodes(monkeypatch) -> Counter:
    """Wrap ``decode_message`` in every module that imported it, counting
    calls by the calling module."""
    calls: Counter = Counter()
    original = messages.decode_message

    def counting(data):
        calls[sys._getframe(1).f_globals["__name__"]] += 1
        return original(data)

    for module in list(sys.modules.values()):
        if getattr(module, "decode_message", None) is original:
            monkeypatch.setattr(module, "decode_message", counting)
    return calls


def test_an_ordered_invocation_is_decoded_three_times(monkeypatch):
    deployment = build_client_server(server_replicas=2, state_size=100,
                                     warmup=0.2)
    calls = count_decodes(monkeypatch)
    before = deployment.driver.acked
    deployment.system.run_for(0.3)
    acked = deployment.driver.acked - before
    assert acked > 100
    # two server replicas' decode_request plus the client's handle_reply
    assert sum(calls.values()) <= 3 * acked, calls
    assert calls["repro.core.interceptor"] == 0
    assert set(calls) == {"repro.orb.orb"}


@pytest.mark.live
def test_an_envelope_is_decoded_only_where_its_group_lives(monkeypatch):
    """On the live topology (``n1`` drives, ``n2`` and ``n3`` replicate the
    server) every node delivers an ordered invocation's request and both
    replies, nine envelopes per ack.  Only a node hosting the addressed
    group decodes one: the request at the two replicas, each reply at the
    client — four per ack."""
    decodes = []
    original = replication.decode_envelope

    def counting(data):
        decodes.append(data[0])
        return original(data)

    monkeypatch.setattr(replication, "decode_envelope", counting)

    async def measure():
        system = LiveSystem(["n1", "n2", "n3"])
        try:
            assert await system.wait_for(system.ring_formed, timeout=15.0)
            _, drivers = await deploy(system, LIVE_APPS["kvstore"],
                                      ["n1", "n2", "n3"], state_size=100)
            decodes.clear()
            acked0 = drivers[0].acked
            await system.run_for(0.5)
            return len(decodes), drivers[0].acked - acked0
        finally:
            system.close()

    decoded, acked = asyncio.run(measure())
    assert acked > 50
    # the window's edges may cut one invocation's decodes from its ack
    assert decoded <= 4 * acked + 4, (decoded, acked)
