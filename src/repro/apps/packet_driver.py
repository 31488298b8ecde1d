"""The paper's measurement client (§6), on either substrate.

"The client object of the test application acts as a packet driver, sending
a constant stream of two-way invocations to the actively replicated server
object."  :class:`ClosedLoopDriver` is that client for any target
operation: each reply immediately triggers the next invocation, so it keeps
exactly one request in flight, and its whole behaviour is a deterministic
function of its application state — it can itself be actively replicated.
It needs only its container (``connect``), the proxy that returns, and the
reply callback, so the simulator and the live runtime host it alike.

Recovery contract (see :meth:`ClosedLoopDriver.resume`): after
``set_state()``, the driver re-issues its single in-flight invocation
(derived from its state) before anything new, which keeps its recovered
ORB's request_ids aligned with the Interceptor's rewrite offset (paper
§4.2.1).

* :class:`PacketDriverServant` — the ``echo`` configuration (the Figure 6
  client), optionally mixing a state-dirtying ``scribble`` into the stream;
* :class:`ReadMixDriver` — a read-heavy kvstore ``put``/``get`` mix for the
  leader-lease read fast path.
"""

from __future__ import annotations

from typing import Any

from repro.ftcorba.checkpointable import Checkpointable, InvalidState
from repro.giop.ior import IOR
from repro.giop.messages import ReplyMessage, ReplyStatus


class ClosedLoopDriver(Checkpointable):
    """Streams ``op_name(sent)`` invocations at a replicated target."""

    type_id = "IDL:repro/ClosedLoopDriver:1.0"

    def __init__(self, target_ior: str, op_name: str, *,
                 max_invocations: int = 0) -> None:
        self._target_ior = target_ior
        self._op_name = op_name
        self._max_invocations = max_invocations     # 0: unbounded
        self.sent = 0           # invocations issued so far
        self.acked = 0          # replies received so far
        self.last_result: Any = None
        self._proxy = None

    # ------------------------------------------------------------------
    # Application logic (deterministic function of state)
    # ------------------------------------------------------------------

    def _ensure_proxy(self):
        if self._proxy is None:
            container = self._eternal_container
            self._proxy = container.connect(IOR.from_string(self._target_ior))
        return self._proxy

    def _invoke(self, token: int) -> None:
        self._ensure_proxy().invoke(self._op_name, token,
                                    on_reply=self._on_reply)

    def _send_next(self) -> None:
        if self._max_invocations and self.sent >= self._max_invocations:
            return
        token = self.sent
        self.sent += 1
        self._invoke(token)

    def _on_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            return
        self.acked += 1
        self.last_result = reply.result
        self._send_next()

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the replica container)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Initial kick: begin the invocation stream."""
        if self.sent == 0:
            self._send_next()

    def resume(self) -> None:
        """Post-recovery: re-issue the in-flight invocation, if any; the
        Interceptor suppresses the duplicate on the wire."""
        if self.sent > self.acked:
            self._invoke(self.sent - 1)
        elif self.sent == 0:
            self._send_next()

    # ------------------------------------------------------------------
    # Checkpointable
    # ------------------------------------------------------------------

    def get_state(self) -> Any:
        return {"sent": self.sent, "acked": self.acked,
                "last_result": self.last_result}

    def set_state(self, state: Any) -> None:
        try:
            self.sent = int(state["sent"])
            self.acked = int(state["acked"])
            self.last_result = state["last_result"]
        except (TypeError, KeyError, ValueError) as exc:
            raise InvalidState(f"bad driver state: {exc}") from exc


class PacketDriverServant(ClosedLoopDriver):
    """Streams ``echo(token)`` invocations: the paper's packet driver.

    Every ``scribble_every`` echo replies (0: never) it issues one
    ``scribble(scribble_fraction)`` instead — the checkpoint bench's
    state-dirtying write mixed into the read-mostly stream, reply-clocked
    like everything else so one request stays in flight.
    """

    type_id = "IDL:repro/PacketDriver:1.0"

    def __init__(self, target_ior: str, *, max_invocations: int = 0,
                 scribble_every: int = 0,
                 scribble_fraction: float = 0.1) -> None:
        super().__init__(target_ior, "echo",
                         max_invocations=max_invocations)
        self._scribble_every = scribble_every
        self._scribble_fraction = scribble_fraction
        self.scribbles_sent = 0
        self.scribbles_acked = 0

    def _send_next(self) -> None:
        if (self._scribble_every
                and self.acked >= self._scribble_every
                * (self.scribbles_sent + 1)):
            self.scribbles_sent += 1
            self._scribble()
        else:
            super()._send_next()

    def _scribble(self) -> None:
        self._ensure_proxy().invoke("scribble", self._scribble_fraction,
                                    on_reply=self._on_scribble_reply)

    def _on_scribble_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is ReplyStatus.NO_EXCEPTION:
            self.scribbles_acked += 1
            self._send_next()

    def resume(self) -> None:
        if self.scribbles_sent > self.scribbles_acked:
            self._scribble()        # the state says a scribble is in flight
        else:
            super().resume()

    def get_state(self) -> Any:
        state = super().get_state()
        state["scribbles_sent"] = self.scribbles_sent
        state["scribbles_acked"] = self.scribbles_acked
        return state

    def set_state(self, state: Any) -> None:
        super().set_state(state)
        self.scribbles_sent = int(state.get("scribbles_sent", 0))
        self.scribbles_acked = int(state.get("scribbles_acked", 0))


class ReadMixDriver(ClosedLoopDriver):
    """Streams a read-heavy kvstore mix: every ``write_every``-th
    invocation is a ``put`` (ordered through Totem as always), the rest
    are ``get`` reads the leader-lease fast path can serve point-to-point
    (:mod:`repro.core.readfast`).

    The very first invocation is a write, so the client-server handshake
    is ordered — and therefore replayable to every server replica —
    before any read may bypass the total order.  The op choice is a pure
    function of the invocation index, keeping the driver deterministic
    and safely replicable like its parent.
    """

    def __init__(self, target_ior: str, *, write_every: int = 16,
                 key_space: int = 8, max_invocations: int = 0) -> None:
        super().__init__(target_ior, "get",
                         max_invocations=max_invocations)
        self._write_every = max(1, write_every)
        self._key_space = max(1, key_space)
        self.reads_acked = 0
        self.writes_acked = 0

    def _invoke(self, token: int) -> None:
        proxy = self._ensure_proxy()
        key = f"k{token % self._key_space}"
        if token % self._write_every == 0:
            proxy.invoke("put", key, token, on_reply=self._on_write_reply)
        else:
            proxy.invoke("get", key, on_reply=self._on_read_reply)

    def _on_read_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is ReplyStatus.NO_EXCEPTION:
            self.reads_acked += 1
        self._on_reply(reply)

    def _on_write_reply(self, reply: ReplyMessage) -> None:
        if reply.reply_status is ReplyStatus.NO_EXCEPTION:
            self.writes_acked += 1
        self._on_reply(reply)

    def get_state(self) -> Any:
        state = super().get_state()
        state["reads_acked"] = self.reads_acked
        state["writes_acked"] = self.writes_acked
        return state

    def set_state(self, state: Any) -> None:
        super().set_state(state)
        self.reads_acked = int(state.get("reads_acked", 0))
        self.writes_acked = int(state.get("writes_acked", 0))
