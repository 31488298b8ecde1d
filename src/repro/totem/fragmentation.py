"""Fragmentation and reassembly of application messages.

"At the transport layer of the reliable multicast system, the Ethernet
medium necessitates the fragmentation of any IIOP message that is larger
than the maximum Ethernet frame size (1518 bytes)" — §6 of the paper.  The
number of fragments, and hence the recovery time, grows linearly with the
application-level state size; this module is where that effect originates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FragmentationError

#: Reassembly-lifecycle callback: ``observer(event, msg_id, frag_count)``
#: with event one of ``"begin"`` (first fragment of a multi-fragment
#: message) and ``"complete"`` (payload rebuilt).  Used by the Totem member
#: to trace reassembly spans.
ReassemblyObserver = Callable[[str, Tuple[str, int], int], None]


class Fragmenter:
    """Splits application payloads into chunks of at most ``max_chunk`` bytes
    and stamps each with a per-origin message id."""

    def __init__(self, origin: str, max_chunk: int) -> None:
        if max_chunk < 1:
            raise FragmentationError(f"max_chunk must be positive, got {max_chunk}")
        self.origin = origin
        self.max_chunk = max_chunk
        self._counter = 0

    def fragment(self, payload: bytes) -> List[Tuple[Tuple[str, int], int, int, bytes]]:
        """Return ``[(msg_id, frag_index, frag_count, chunk), ...]``.

        An empty payload still produces one (empty) fragment so the message
        occupies a slot in the total order.
        """
        self._counter += 1
        msg_id = (self.origin, self._counter)
        chunks = [payload[i:i + self.max_chunk]
                  for i in range(0, len(payload), self.max_chunk)] or [b""]
        count = len(chunks)
        return [(msg_id, index, count, chunk)
                for index, chunk in enumerate(chunks)]

    @staticmethod
    def fragment_count(payload_len: int, max_chunk: int) -> int:
        """How many fragments a payload of ``payload_len`` bytes needs."""
        if payload_len <= 0:
            return 1
        return -(-payload_len // max_chunk)


class Reassembler:
    """Rebuilds application messages from fragments delivered in total order.

    Because fragments of one message carry consecutive sequence numbers from
    a single token visit (the sender broadcasts them back-to-back, and the
    ring delivers in sequence order), fragments arrive in index order; the
    reassembler still validates indices defensively.

    A member that joins mid-message (a *fresh* member installed after some
    fragments were already delivered to the old ring) sees its first fragment
    of that message with a nonzero index; the message is unrecoverable at
    this layer and is **skipped** — restoring such a replica's state is the
    job of Eternal's recovery mechanisms, not of the transport.
    """

    def __init__(self, observer: Optional[ReassemblyObserver] = None) -> None:
        self._partial: Dict[Tuple[str, int], List[bytes]] = {}
        self._skipped: set = set()
        self._observer = observer

    def _notify(self, event: str, msg_id: Tuple[str, int],
                frag_count: int) -> None:
        if self._observer is not None:
            self._observer(event, msg_id, frag_count)

    def add(
        self,
        msg_id: Tuple[str, int],
        frag_index: int,
        frag_count: int,
        chunk: bytes,
    ) -> Optional[bytes]:
        """Feed one fragment; returns the full payload when complete."""
        if frag_count < 1 or not 0 <= frag_index < frag_count:
            raise FragmentationError(
                f"bad fragment indices {frag_index}/{frag_count} for {msg_id}"
            )
        if msg_id in self._skipped:
            if frag_index == frag_count - 1:
                self._skipped.discard(msg_id)
            return None
        if frag_count == 1:
            if frag_index != 0:
                raise FragmentationError(f"single-fragment index {frag_index}")
            return chunk
        parts = self._partial.setdefault(msg_id, [])
        if frag_index != len(parts):
            if not parts and frag_index > 0:
                # Joined mid-message: skip the remainder of this message.
                del self._partial[msg_id]
                if frag_index != frag_count - 1:
                    self._skipped.add(msg_id)
                return None
            raise FragmentationError(
                f"out-of-order fragment {frag_index} (expected {len(parts)}) "
                f"for {msg_id}"
            )
        if not parts:
            self._notify("begin", msg_id, frag_count)
        parts.append(chunk)
        if len(parts) == frag_count:
            del self._partial[msg_id]
            self._notify("complete", msg_id, frag_count)
            return b"".join(parts)
        return None

    @property
    def pending(self) -> int:
        """Number of messages awaiting further fragments."""
        return len(self._partial)

    def evict_absent_origins(self, members) -> int:
        """Drop partial messages (and skip markers) whose originating node
        is not in ``members``.

        Called at ring installation: a departed sender's unfinished message
        can never complete (its remaining fragments were never sequenced
        into the surviving history), so retaining the partial would leak
        buffer space for the life of the member.  Returns the number of
        partial messages evicted.
        """
        allowed = set(members)
        stale = [mid for mid in self._partial if mid[0] not in allowed]
        for mid in stale:
            del self._partial[mid]
        self._skipped = {mid for mid in self._skipped if mid[0] in allowed}
        return len(stale)
