"""The benchmark's closed-loop client: one two-way invocation in flight,
each timed from ``invoke`` to its reply, inputs generated from the seed.

It rides the system exactly as ``repro.live.loadgen.ReadMixDriver`` does
(a replicated servant on the manager node whose proxy goes through its
container's ORB and Interceptor), so the program under test receives
only generated requests; everything below is the generator's own work
and is reported as the ``live.loadgen`` layer.
"""

from __future__ import annotations

import hashlib
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.giop.messages import ReplyMessage, ReplyStatus
from repro.live.loadgen import ClosedLoopDriver

DRIVER_TYPE = "IDL:repro/E2eTimingDriver:1.0"

#: Bytes of every ``put`` value (the issue's 64 B write).
VALUE_BYTES = 64

#: Keys each driver cycles over (its own namespace, so the last value a
#: driver wrote to a key is the value both replicas must hold).
KEY_SPACE = 8


def make_input(seed: int, index: int, token: int) -> Tuple[str, str]:
    """The ``(key, value)`` of driver ``index``'s ``token``-th invocation:
    a pure function of the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{index}:{token}".encode("ascii"),
                             digest_size=VALUE_BYTES // 2).hexdigest()
    return f"d{index}k{int(digest[:2], 16) % KEY_SPACE}", digest


class TimingDriver(ClosedLoopDriver):
    """Streams ``put`` (every ``write_every``-th invocation, the first
    included, so the handshake is ordered) and ``get`` at a kvstore."""

    type_id = DRIVER_TYPE

    def __init__(self, target_ior: str, *, seed: int, index: int,
                 write_every: int) -> None:
        super().__init__(target_ior, "put")
        self.seed = seed
        self.index = index
        self._write_every = max(1, write_every)
        #: ``perf_counter`` at every ack, and that invocation's latency (s).
        self.ack_times: List[float] = []
        self.latencies: List[float] = []
        self.is_write: List[bool] = []
        #: Replies that were exceptions or carried a wrong value.
        self.failed = 0
        #: key -> value of the last *acked* put; what a later read must see.
        self.model: Dict[str, str] = {}
        #: ``(key, value)`` of an unacknowledged put, if one is in flight.
        self.pending_put: Optional[Tuple[str, str]] = None
        self.stopped = False
        self._sent_at = 0.0
        self._sent_key = ""

    def stop(self) -> None:
        """Issue nothing further; the invocation in flight still completes."""
        self.stopped = True

    def _send_next(self) -> None:
        if not self.stopped:
            super()._send_next()

    def _invoke(self, token: int) -> None:
        proxy = self._ensure_proxy()
        key, value = make_input(self.seed, self.index, token)
        self._sent_key = key
        self._sent_at = perf_counter()
        if token % self._write_every == 0:
            self.pending_put = (key, value)
            proxy.invoke("put", key, value, on_reply=self._on_write_reply)
        else:
            proxy.invoke("get", key, on_reply=self._on_read_reply)

    def _record(self, reply: ReplyMessage, write: bool, ok: bool) -> None:
        now = perf_counter()
        if reply.reply_status is ReplyStatus.NO_EXCEPTION and ok:
            self.ack_times.append(now)
            self.latencies.append(now - self._sent_at)
            self.is_write.append(write)
        else:
            self.failed += 1
        self._on_reply(reply)

    def _on_write_reply(self, reply: ReplyMessage) -> None:
        if self.pending_put is not None:
            key, value = self.pending_put
            self.model[key] = value
            self.pending_put = None
        self._record(reply, True, reply.result is True)

    def _on_read_reply(self, reply: ReplyMessage) -> None:
        # One closed-loop writer per key: a read must return exactly the
        # last acknowledged put, whichever replica (or lease) served it.
        self._record(reply, False,
                     reply.result == self.model.get(self._sent_key))

    def get_state(self) -> Any:
        state = super().get_state()
        state["model"] = dict(self.model)
        return state

    def set_state(self, state: Any) -> None:
        super().set_state(state)
        self.model = dict(state.get("model", {}))
