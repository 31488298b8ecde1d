"""Reusable replicated test applications.

These are the CORBA application objects the examples, tests, and benchmarks
deploy: every one inherits :class:`~repro.ftcorba.checkpointable.Checkpointable`
and implements ``get_state()`` / ``set_state()``, exactly as the FT-CORBA
standard requires of replicated objects (paper §4.1).

* :class:`~repro.apps.counter.CounterServant` — minimal stateful server.
* :class:`~repro.apps.bank.BankServant` — accounts with history and user
  exceptions (a structured, growing application state).
* :class:`~repro.apps.kvstore.KvStoreServant` — bulk state of configurable
  size (the Figure 6 server).
* :class:`~repro.apps.packet_driver.ClosedLoopDriver` — the paper's
  measurement client: "a packet driver, sending a constant stream of
  two-way invocations" (§6), one request in flight, replicable as an
  active client group; the one closed-loop client of both substrates.
  :class:`~repro.apps.packet_driver.PacketDriverServant` is its ``echo``
  configuration (the Figure 6 client) and
  :class:`~repro.apps.packet_driver.ReadMixDriver` a read-heavy kvstore
  mix.
* :class:`~repro.apps.auction.AuctionServant` — auctions with rejected
  bids (user exceptions on the normal path), oneway watch registrations,
  and checkable invariants.
"""

from repro.apps.auction import AuctionServant, BidRejected
from repro.apps.bank import BankServant, InsufficientFunds
from repro.apps.counter import CounterServant
from repro.apps.kvstore import KvStoreServant
from repro.apps.packet_driver import (ClosedLoopDriver, PacketDriverServant,
                                      ReadMixDriver)

__all__ = [
    "CounterServant",
    "BankServant",
    "InsufficientFunds",
    "KvStoreServant",
    "ClosedLoopDriver",
    "PacketDriverServant",
    "ReadMixDriver",
    "AuctionServant",
    "BidRejected",
]
