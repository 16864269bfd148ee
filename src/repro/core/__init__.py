"""The paper's primary contribution: the automatic partitioner.

* :mod:`repro.core.partition_graph` -- the partition graph (a PDG
  augmented with weights, pins and co-location groups; Section 4.2).
* :mod:`repro.core.builder` -- builds the graph from the static
  analyses plus profile data.
* :mod:`repro.core.ilp` -- the binary integer program of Figure 5.
* :mod:`repro.core.solvers` -- interchangeable solvers: a from-scratch
  exact branch-and-bound (the default), a greedy local-search
  heuristic and SciPy/HiGHS as an optional oracle (the reproduction's
  stand-ins for Gurobi and lpsolve).
* :mod:`repro.core.budgets` -- CPU-budget ladder generation.
* :mod:`repro.core.pipeline` -- the end-to-end Pyxis pipeline:
  profile -> analyze -> partition -> compile -> deploy.
"""

from repro.core.partition_graph import (
    Placement,
    NodeKind,
    EdgeKind,
    Node,
    Edge,
    PartitionGraph,
)
from repro.core.builder import GraphBuilder, build_partition_graph
from repro.core.ilp import ILPProblem, build_ilp, PartitioningResult
from repro.core.solvers import (
    SolverError,
    solve_with_scipy,
    solve_branch_and_bound,
    solve_greedy,
)
from repro.core.budgets import budget_ladder
from repro.core.pipeline import Pyxis, PartitionSet, PyxisConfig

__all__ = [
    "Placement",
    "NodeKind",
    "EdgeKind",
    "Node",
    "Edge",
    "PartitionGraph",
    "GraphBuilder",
    "build_partition_graph",
    "ILPProblem",
    "build_ilp",
    "PartitioningResult",
    "SolverError",
    "solve_with_scipy",
    "solve_branch_and_bound",
    "solve_greedy",
    "budget_ladder",
    "Pyxis",
    "PartitionSet",
    "PyxisConfig",
]
