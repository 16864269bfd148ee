"""PyxIL: the placed intermediate language and its compiler.

PyxIL (Section 3.1) is the paper's intermediate form: the original
program with every statement and field annotated ``:APP:`` or ``:DB:``
plus explicit heap-synchronization operations.  Here it comprises:

* :mod:`repro.pyxil.program` -- a :class:`PlacedProgram` pairing the IR
  with a partitioning assignment (and the annotated listing of Fig. 3);
* :mod:`repro.pyxil.sync_insertion` -- which heap locations ship with
  control transfers (the sendAPP / sendDB / sendNative of Section 4.5);
* :mod:`repro.pyxil.reorder` -- the dual-queue topological statement
  reordering that enlarges same-placement runs (Section 4.4);
* :mod:`repro.pyxil.blocks` -- execution blocks (continuation-passing
  compiled form, Section 5.1);
* :mod:`repro.pyxil.compiler` -- PyxIL -> execution blocks.
"""

from repro.pyxil.program import PlacedProgram, format_pyxil
from repro.pyxil.sync_insertion import SyncPlan, compute_sync_plan
from repro.pyxil.reorder import reorder_blocks
from repro.pyxil.blocks import (
    ExecutionBlock,
    OpAssign,
    TBranch,
    TCall,
    TGoto,
    THalt,
    TReturn,
    CompiledProgram,
)
from repro.pyxil.compiler import compile_program

__all__ = [
    "PlacedProgram",
    "format_pyxil",
    "SyncPlan",
    "compute_sync_plan",
    "reorder_blocks",
    "ExecutionBlock",
    "OpAssign",
    "TBranch",
    "TCall",
    "TGoto",
    "THalt",
    "TReturn",
    "CompiledProgram",
    "compile_program",
]
