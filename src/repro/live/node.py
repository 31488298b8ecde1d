"""Per-node wrapper: a crashable host bound to a UDP port.

:class:`LiveNode` owns what survives a crash (the node's identity and
its UDP port number) and what does not (the current socket and
transport).  ``kill()`` closes the socket and crashes the host —
SIGKILL semantics: everything in flight to the port is dropped by the
kernel, all hosted components are torn down via crash listeners.
``restart()`` re-launches the host; the stack rebuild asks the node for
a fresh transport, which re-binds the same port so the fixed peer
tables stay valid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.live.transport import UdpTransport, bind_udp_socket
from repro.runtime.host import BaseHost

if TYPE_CHECKING:
    from repro.live.system import LiveSystem


class LiveHost(BaseHost):
    """One crashable live host (see :class:`repro.runtime.BaseHost`)."""


class LiveNode:
    """One node of a :class:`~repro.live.system.LiveSystem`."""

    def __init__(self, system: "LiveSystem", node_id: str) -> None:
        self.system = system
        # Bind now so every node's address is known before any stack is
        # built; the first transport adopts this socket.
        self._pending_sock = bind_udp_socket()
        self.port: int = self._pending_sock.getsockname()[1]
        self.host = LiveHost(system.scheduler, node_id,
                             tracer=system.tracer)
        self.transport: Optional[UdpTransport] = None

    @property
    def node_id(self) -> str:
        return self.host.node_id

    @property
    def addr(self) -> Tuple[str, int]:
        return ("127.0.0.1", self.port)

    def make_transport(self) -> UdpTransport:
        """A fresh transport on this node's port (called by the stack
        build, both the initial one and every post-restart rebuild)."""
        if self.transport is not None:
            self.transport.close()
        sock = self._pending_sock
        if sock is None:
            sock = bind_udp_socket(self.port)
        self._pending_sock = None
        self.transport = UdpTransport(
            self.host, sock, self.system.peer_addrs,
            tracer=self.system.tracer,
        )
        self.transport.open(self.system.loop)
        return self.transport

    def kill(self) -> None:
        """SIGKILL the node: close its socket, lose all volatile state."""
        if not self.host.alive:
            return
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        self.host.crash()

    def restart(self) -> None:
        """Re-launch the node; the restart listeners rebuild the stack
        (which re-binds the port via :meth:`make_transport`)."""
        if self.host.alive:
            return
        self.host.restart()
