"""Concurrent serving subsystem.

The paper's headline figures measure the partitioned runtime *under
load*: many concurrent clients, a saturating database server, and a
controller that switches partitionings online as CPU headroom
disappears (Sections 6.2-6.3).  This package provides that serving
layer on top of the virtual clock:

* :mod:`repro.serve.engine` -- the closed-loop, event-driven load
  engine (N client sessions, think times, per-server run queues,
  row-group locks);
* :mod:`repro.serve.controller` -- static and adaptive partition
  selection (the adaptive controller feeds smoothed DB-CPU samples to
  :class:`~repro.runtime.switcher.DynamicSwitcher`);
* :mod:`repro.serve.workload` -- transaction sources, including live
  execution of compiled-block programs;
* :mod:`repro.serve.stats` -- per-client latency histograms, run
  results and load-sweep curves.
"""

from repro.serve.controller import (
    AdaptiveController,
    Controller,
    StaticController,
)
from repro.serve.engine import ReplicaSupervisor, ServeConfig, ServeEngine
from repro.serve.stats import (
    FailoverEvent,
    LoadSweepResult,
    ServeResult,
    SweepPoint,
    TxnSample,
)
from repro.serve.workload import (
    BuiltWorkload,
    LiveWorkload,
    ProgramOption,
    ServeWorkload,
    TraceWorkload,
    WORKLOAD_FACTORIES,
    make_micro_workload,
    make_tpcc_workload,
    make_tpcw_workload,
)

__all__ = [
    "AdaptiveController",
    "Controller",
    "StaticController",
    "ReplicaSupervisor",
    "ServeConfig",
    "ServeEngine",
    "FailoverEvent",
    "LoadSweepResult",
    "ServeResult",
    "SweepPoint",
    "TxnSample",
    "BuiltWorkload",
    "LiveWorkload",
    "ProgramOption",
    "ServeWorkload",
    "TraceWorkload",
    "WORKLOAD_FACTORIES",
    "make_micro_workload",
    "make_tpcc_workload",
    "make_tpcw_workload",
]
