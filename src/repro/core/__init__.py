"""Eternal's core: interception, replication, and recovery mechanisms.

This package is the paper's contribution.  Per node it runs:

* the **Interceptor** (:mod:`repro.core.interceptor`) — captures each
  replica ORB's IIOP bytes at its socket-level interface and diverts them
  to the Replication Mechanisms for multicasting (and rewrites GIOP
  request_ids for recovered client replicas, §4.2.1);
* the **Replication Mechanisms** (:mod:`repro.core.replication`) — map
  connections onto Totem multicast, enforce duplicate suppression with
  Eternal-generated operation identifiers, and route delivered messages to
  local replicas according to their replication style and role;
* the **Recovery Mechanisms** (:mod:`repro.core.recovery`) — logging of
  checkpoints and messages, enqueueing during recovery, and the
  synchronized ``get_state``/``set_state`` transfer of the three kinds of
  state (application-level, ORB/POA-level, infrastructure-level) at a
  single logical point in the total order (§5.1 steps i–vi).

System-wide (hosted on a manager node) run the **Replication Manager**,
**Resource Manager**, and **Evolution Manager** (:mod:`repro.core.managers`).
A substrate facade — :class:`repro.simnet.system.EternalSystem`
(simulated) or :class:`repro.live.system.LiveSystem` (UDP) — assembles a
whole deployment on :class:`~repro.core.system.SystemCore`; N of them sit
behind one :class:`~repro.core.sharded.ShardedCore`.
"""

from repro.core.system import GroupHandle, NodeStack
from repro.core.config import EternalConfig

__all__ = ["GroupHandle", "NodeStack", "EternalConfig"]
