"""Static dependency analyses.

The paper's partitioner rests on three analyses (Section 4.2):

* an object-sensitive **points-to analysis** approximating which
  abstract objects each expression may reference
  (:mod:`repro.analysis.points_to`),
* an interprocedural **def/use analysis** linking assignments to the
  expressions that may observe them (:mod:`repro.analysis.defuse`),
* a **control dependency analysis** linking branch statements to the
  statements whose execution they govern
  (:mod:`repro.analysis.control_deps`).

From these, :mod:`repro.analysis.access_map` derives, once per
program, which field or array / native allocation site each statement
touches: the one answer both the partition graph and the heap-sync
plan read.

Supporting machinery: a generic worklist dataflow framework
(:mod:`repro.analysis.dataflow`), dominator/post-dominator trees
(:mod:`repro.analysis.dominance`) and call-graph construction with
receiver type inference (:mod:`repro.analysis.interproc`).
"""

from repro.analysis.dataflow import DataflowProblem, solve_forward
from repro.analysis.dominance import DominatorTree, dominators, post_dominators
from repro.analysis.control_deps import control_dependencies
from repro.analysis.defuse import DefUseResult, def_use_chains, StatementAccess, accesses_of
from repro.analysis.points_to import (
    AllocSite,
    AllocKind,
    PointsToResult,
    analyze_points_to,
)
from repro.analysis.interproc import CallGraph, build_call_graph, AnalysisError
from repro.analysis.access_map import AccessMap, HeapAccess

__all__ = [
    "DataflowProblem",
    "solve_forward",
    "DominatorTree",
    "dominators",
    "post_dominators",
    "control_dependencies",
    "DefUseResult",
    "def_use_chains",
    "StatementAccess",
    "accesses_of",
    "AllocSite",
    "AllocKind",
    "PointsToResult",
    "analyze_points_to",
    "CallGraph",
    "build_call_graph",
    "AnalysisError",
    "AccessMap",
    "HeapAccess",
]
