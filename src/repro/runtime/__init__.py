"""The Pyxis runtime (Section 6).

Executes compiled execution blocks across two simulated servers with a
shared logical stack and a distributed heap:

* :mod:`repro.runtime.heap` -- per-server heap stores: authoritative
  parts plus remote caches, with dirty tracking;
* :mod:`repro.runtime.serializer` -- wire copies and byte accounting;
* :mod:`repro.runtime.rpc` -- control-transfer and DB-call messages;
* :mod:`repro.runtime.interpreter` -- the tree-walking block
  interpreter (the oracle) and the control-transfer loop (single
  thread of control across servers);
* :mod:`repro.runtime.codegen_blocks` -- the production rung: every
  fused block region generated as Python source (``REPRO_INTERP``
  selects ``source``, the default, or ``tree``);
* :mod:`repro.runtime.entrypoints` -- the entry-point wrappers
  (Section 5.2);
* :mod:`repro.runtime.switcher` -- EWMA-based dynamic selection among
  pre-generated partitionings (Section 6.3).
"""

from repro.runtime.heap import HeapStore, ObjRef, NativeRef, HeapError
from repro.runtime.serializer import wire_copy, wire_size
from repro.runtime.rpc import ControlTransferMessage, DbRequestMessage, DbResponseMessage
from repro.runtime.interpreter import (
    PyxisExecutor,
    RuntimeError_,
    ExecutionStats,
    resolve_interp_mode,
)
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.switcher import DynamicSwitcher, SwitcherConfig

__all__ = [
    "HeapStore",
    "ObjRef",
    "NativeRef",
    "HeapError",
    "wire_copy",
    "wire_size",
    "ControlTransferMessage",
    "DbRequestMessage",
    "DbResponseMessage",
    "PyxisExecutor",
    "RuntimeError_",
    "ExecutionStats",
    "resolve_interp_mode",
    "PartitionedApp",
    "DynamicSwitcher",
    "SwitcherConfig",
]
