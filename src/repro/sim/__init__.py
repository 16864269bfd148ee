"""Simulated cluster substrate.

The paper evaluates Pyxis on two physical machines (a 16-core database
server and an 8-core application server) joined by a 2 ms round-trip
network.  This package provides the synthetic equivalent used throughout
the reproduction:

* :mod:`repro.sim.clock` -- a virtual clock and discrete-event loop.
* :mod:`repro.sim.server` -- multi-core servers and their cost model.
* :mod:`repro.sim.cluster` -- the standard two-server deployment,
  which records a stage trace as a partitioned program runs.
* :mod:`repro.sim.queueing` -- the link parameters
  (``SimNetworkParams``, one latency + bandwidth price per message,
  for the live recorder and replay alike) and an open-loop
  discrete-event simulation that replays per-transaction stage traces
  against finite-core servers to produce latency / throughput /
  utilization curves.
* :mod:`repro.sim.metrics` -- load monitoring (summary statistics live
  in :mod:`repro.obs.summary`).
"""

from repro.sim.clock import VirtualClock, EventLoop, Event, PeriodicTask
from repro.sim.server import Server
from repro.sim.cluster import (
    Cluster,
    ClusterConfig,
    FaultEvent,
    FaultInjector,
    parse_fault_spec,
)
from repro.sim.queueing import (
    CorePool,
    LockTable,
    Stage,
    StageKind,
    TransactionTrace,
    QueueingSimulator,
    SimResult,
)
from repro.sim.metrics import LoadMonitor

__all__ = [
    "VirtualClock",
    "EventLoop",
    "Event",
    "PeriodicTask",
    "CorePool",
    "LockTable",
    "Server",
    "Cluster",
    "ClusterConfig",
    "FaultEvent",
    "FaultInjector",
    "parse_fault_spec",
    "Stage",
    "StageKind",
    "TransactionTrace",
    "QueueingSimulator",
    "SimResult",
    "LoadMonitor",
]
