"""The replica container: one servant + its own ORB + execution timing.

A container hosts one replica of one object group on one node: it activates
the servant under the group's canonical object key, owns the replica's ORB
("each replica has its own ORB", §4.2), and runs the FIFO work queue that
serializes operation execution — which is also where quiescence is decided:
a ``get_state()`` marker waits its turn in the queue, so the state it
captures reflects exactly the messages ordered before it.

The container knows nothing about replication; the Replication/Recovery
Mechanisms decide *what* enters the queue and what happens to produced
replies.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.config import EternalConfig
from repro.core.identifiers import ConnectionKey
from repro.core.quiescence import QuiescenceMonitor
from repro.errors import StateTransferError
from repro.ftcorba.checkpointable import (
    GET_STATE,
    SET_STATE,
    Checkpointable,
    STATE_OP_BASE_DURATION,
)
from repro.giop.ior import IOR
from repro.giop.messages import (
    ReplyMessage,
    ReplyStatus,
    RequestMessage,
    decode_message,
    encode_message,
)
from repro.giop.types import decode_any, encode_any, to_any
from repro.obs.spans import SpanEmitter
from repro.orb.orb import Orb
from repro.orb.proxy import ObjectProxy
from repro.runtime.interfaces import Host
from repro.runtime.trace import NULL_TRACER, Tracer

# Produced replies are handed here: (connection, reply_bytes)
ReplySink = Callable[[ConnectionKey, bytes], None]

#: Simulated client-side cost of processing one delivered reply (seconds).
REPLY_PROCESSING_DELAY = 10e-6

#: Simulated get_state/set_state serialization rate (bytes/second):
#: capturing or assigning S bytes of state costs S / rate seconds of
#: replica CPU time, in addition to the operation's base duration.
STATE_CAPTURE_BPS = 400e6

_RECOVERY_CONN = "eternal-recovery"


class ReplicaContainer:
    """Hosts one replica: servant, ORB, and the serialized work queue."""

    def __init__(
        self,
        process: Host,
        group_id: str,
        servant: Optional[Checkpointable],
        config: EternalConfig,
        *,
        on_reply_produced: ReplySink,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.process = process
        self.group_id = group_id
        self.config = config
        self.tracer = tracer
        self._spans = SpanEmitter(tracer, node_id=process.node_id)
        self.on_reply_produced = on_reply_produced
        self.quiescence = QuiescenceMonitor()
        self.orb = Orb(f"{process.node_id}:{group_id}", host=group_id)
        self.servant: Optional[Checkpointable] = None
        self._queue: List[Tuple] = []
        self._executing = False
        self._recovery_request_counter = 0
        self.operations_executed = 0
        if servant is not None:
            self.install_servant(servant)

    # ------------------------------------------------------------------
    # Servant lifecycle
    # ------------------------------------------------------------------

    @property
    def instantiated(self) -> bool:
        """False for a cold-passive backup that has not been launched."""
        return self.servant is not None

    def install_servant(self, servant: Checkpointable) -> None:
        """Activate (or replace, for cold launch / evolution) the servant
        under the group's canonical object key."""
        self.servant = servant
        # Client-capable servants reach other objects through the container
        # (which wires their ORB's transport to the Interceptor).
        servant._eternal_container = self
        poa = self.orb._poas.get("RootPOA") or self.orb.create_poa("RootPOA")
        object_id = self.group_id.encode("ascii")
        if object_id in poa._active:
            poa.deactivate_object(object_id)
        poa.activate_object(servant, object_id)

    def start_application(self) -> None:
        """Give the servant its initial kick (pure clients start sending)."""
        start = getattr(self.servant, "start", None)
        if callable(start):
            start()

    def resume_application(self) -> None:
        """After recovery: let the servant re-issue its in-flight work.

        Contract for replicated clients: re-issue every logically
        outstanding invocation, in original order, before any new one —
        that keeps the recovered ORB's request_ids aligned with the
        interceptor's rewrite offset.
        """
        resume = getattr(self.servant, "resume", None)
        if callable(resume):
            resume()

    # ------------------------------------------------------------------
    # Client-side plumbing for the servant
    # ------------------------------------------------------------------

    def connect(self, ior: IOR) -> ObjectProxy:
        """Servant-facing: obtain a proxy to another (replicated) object."""
        return self.orb.connect(ior)

    # ------------------------------------------------------------------
    # Work queue
    # ------------------------------------------------------------------

    def submit_request(self, connection: ConnectionKey,
                       iiop_bytes: bytes) -> None:
        """Queue a delivered invocation for execution."""
        self._queue.append(("request", connection, iiop_bytes))
        self._pump()

    def submit_reply(self, server_group: str, port: int, iiop_bytes: bytes,
                     on_executed: Optional[Callable[[], None]] = None) -> None:
        """Queue a delivered response.

        Responses share the FIFO queue with invocations — the paper's
        recovery protocol enqueues "invocations and responses" alike, and
        a response ordered after a get_state() marker must not reach the
        application before the get_state() executes.
        """
        self._queue.append(("reply", server_group, port, iiop_bytes,
                            on_executed))
        self._pump()

    def submit_get_state(self, transfer_id: str,
                         done: Callable[[str, bytes, str], None]) -> None:
        """Queue the fabricated get_state(); ``done(transfer_id,
        app_state_bytes, app_digest)`` fires when the operation completes.
        The digest is computed once here, at capture time; callers use it
        for cross-replica consistency auditing and for delta-transfer base
        negotiation without hashing the blob again.

        The wait from here until the marker reaches the head of the FIFO
        queue *is* the time-to-quiescence; it is traced as a
        ``recovery.quiesce`` span nested in the capture span.
        """
        node = self.process.node_id
        self._spans.start(
            "recovery.quiesce",
            span_id=f"{transfer_id}/quiesce@{node}",
            parent=f"{transfer_id}/capture@{node}",
            node=node, group=self.group_id, queue_depth=len(self._queue),
        )
        self._queue.append(("get_state", transfer_id, done))
        self._pump()

    def submit_set_state(self, app_state: bytes,
                         done: Callable[[], None]) -> None:
        """Queue the fabricated set_state() carrying ``app_state``."""
        self._queue.append(("set_state", app_state, done))
        self._pump()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def _pump(self) -> None:
        if self._executing or not self._queue:
            return
        if not self.process.alive:
            return
        item = self._queue.pop(0)
        self._executing = True
        kind = item[0]
        if kind == "request":
            self._run_request(item[1], item[2])
        elif kind == "reply":
            self._run_reply(item[1], item[2], item[3], item[4])
        elif kind == "get_state":
            self._run_get_state(item[1], item[2])
        else:
            self._run_set_state(item[1], item[2])

    def _finish(self) -> None:
        self._executing = False
        self.quiescence.end_operation()
        self._pump()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_request(self, connection: ConnectionKey,
                     iiop_bytes: bytes) -> None:
        decoded = self.orb.decode_request(connection.as_str(), iiop_bytes)
        if decoded is None:
            # The ORB discarded the request (e.g. un-negotiated short key,
            # §4.2.2).  No reply will ever be produced.
            self.tracer.emit("replica", "request_discarded",
                             node=self.process.node_id, group=self.group_id)
            self._finish()
            return
        until = self.process.scheduler.now + decoded.duration
        self.quiescence.begin_operation(until)
        self.process.call_after(decoded.duration, self._complete_request,
                                connection, decoded)

    def _complete_request(self, connection: ConnectionKey, decoded) -> None:
        if getattr(self.servant, "_hung_for_test", False):
            # Injected replica-hang fault: the operation never completes,
            # the queue backs up, and the process stays alive — exactly the
            # failure mode pull-based fault monitoring exists to catch.
            return
        reply_bytes = self.orb.execute_request(decoded)
        self.operations_executed += 1
        self.tracer.emit("replica", "executed", node=self.process.node_id,
                         group=self.group_id,
                         operation=decoded.request.operation)
        if reply_bytes is not None:
            self.on_reply_produced(connection, reply_bytes)
        self._finish()

    def _run_reply(self, server_group: str, port: int, iiop_bytes: bytes,
                   on_executed: Optional[Callable[[], None]]) -> None:
        delay = REPLY_PROCESSING_DELAY
        self.quiescence.begin_operation(self.process.scheduler.now + delay)
        self.process.call_after(delay, self._complete_reply, server_group,
                                port, iiop_bytes, on_executed)

    def _complete_reply(self, server_group: str, port: int,
                        iiop_bytes: bytes,
                        on_executed: Optional[Callable[[], None]]) -> None:
        if on_executed is not None:
            on_executed()
        delivered = self.orb.handle_reply(server_group, port, iiop_bytes)
        if not delivered:
            self.tracer.emit("replica", "reply_discarded_by_orb",
                             node=self.process.node_id, group=self.group_id)
        self._finish()

    def _state_duration(self, payload_len: int) -> float:
        return STATE_OP_BASE_DURATION + payload_len / STATE_CAPTURE_BPS

    def _run_get_state(self, transfer_id: str,
                       done: Callable[[str, bytes], None]) -> None:
        # The marker reached the queue head: the replica is quiescent.
        self._spans.end(
            f"{transfer_id}/quiesce@{self.process.node_id}"
        )
        if self.servant is None:
            raise StateTransferError(
                f"get_state on uninstantiated replica of {self.group_id}"
            )
        request = self._fabricate(GET_STATE, ())
        decoded = self.orb.decode_request(_RECOVERY_CONN, request)
        reply_bytes = self.orb.execute_request(decoded)
        reply = decode_message(reply_bytes)
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            raise StateTransferError(
                f"get_state() on {self.group_id} raised {reply.exception_id}: "
                f"{reply.result!r}"
            )
        app_state = encode_any(to_any(reply.result))
        from repro.obs.audit import state_digest
        app_digest = state_digest(app_state)
        duration = self._state_duration(len(app_state))
        self.quiescence.begin_operation(self.process.scheduler.now + duration)
        self.tracer.emit("replica", "get_state", node=self.process.node_id,
                         group=self.group_id, size=len(app_state))
        self.process.call_after(duration, self._complete_state_op,
                                done, transfer_id, app_state, app_digest)

    def _run_set_state(self, app_state: bytes,
                       done: Callable[[], None]) -> None:
        if self.servant is None:
            raise StateTransferError(
                f"set_state on uninstantiated replica of {self.group_id}"
            )
        value = decode_any(app_state).value
        request = self._fabricate(SET_STATE, (value,))
        decoded = self.orb.decode_request(_RECOVERY_CONN, request)
        reply_bytes = self.orb.execute_request(decoded)
        reply = decode_message(reply_bytes)
        if reply.reply_status is not ReplyStatus.NO_EXCEPTION:
            raise StateTransferError(
                f"set_state() on {self.group_id} raised {reply.exception_id}: "
                f"{reply.result!r}"
            )
        duration = self._state_duration(len(app_state))
        self.quiescence.begin_operation(self.process.scheduler.now + duration)
        self.tracer.emit("replica", "set_state", node=self.process.node_id,
                         group=self.group_id, size=len(app_state))
        self.process.call_after(duration, self._complete_state_op, done)

    def _complete_state_op(self, done: Callable, *args) -> None:
        done(*args)
        self._finish()

    def _fabricate(self, operation: str, args: tuple) -> bytes:
        """Build a local GIOP request for a fabricated state operation."""
        from repro.orb.objectkey import make_key
        self._recovery_request_counter += 1
        request = RequestMessage(
            request_id=self._recovery_request_counter,
            object_key=make_key("RootPOA", self.group_id.encode("ascii")),
            operation=operation,
            args=args,
        )
        return encode_message(request)

