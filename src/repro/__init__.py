"""repro — a reproduction of the Eternal system (Narasimhan, Moser,
Melliar-Smith: *State Synchronization and Recovery for Strongly Consistent
Replicated CORBA Objects*, DSN 2001).

Eternal provides transparent fault tolerance for CORBA applications by
replicating objects, conveying their IIOP messages over reliable
totally-ordered multicast, and — this paper's contribution — recovering
failed replicas by synchronizing *three kinds of state* (application-level,
ORB/POA-level, infrastructure-level) at a single logical point in the total
order.

Quick start::

    from repro import EternalSystem, FTProperties, Checkpointable, operation

    class Counter(Checkpointable):
        type_id = "IDL:Counter:1.0"
        def __init__(self): self.value = 0
        @operation
        def increment(self, n):
            self.value += n
            return self.value
        def get_state(self): return {"value": self.value}
        def set_state(self, s): self.value = s["value"]

    system = EternalSystem(["n1", "n2", "n3"])
    system.register_factory("IDL:Counter:1.0", Counter)
    group = system.create_group("ctr", "IDL:Counter:1.0",
                                FTProperties(initial_replicas=2))
    system.run_for(0.1)     # simulated seconds

See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction
of the paper's evaluation.
"""

from repro.core.config import EternalConfig
from repro.core.system import GroupHandle
from repro.scenarios import Scenario
from repro.simnet.system import EternalSystem
from repro.ftcorba.checkpointable import (
    Checkpointable,
    InvalidState,
    NoStateAvailable,
)
from repro.ftcorba.properties import FTProperties, ReplicationStyle
from repro.giop.ior import IOR
from repro.orb.servant import CorbaUserException, operation

__version__ = "1.0.0"

__all__ = [
    "EternalSystem",
    "GroupHandle",
    "EternalConfig",
    "Scenario",
    "FTProperties",
    "ReplicationStyle",
    "Checkpointable",
    "NoStateAvailable",
    "InvalidState",
    "CorbaUserException",
    "operation",
    "IOR",
    "__version__",
]
