"""Interchangeable BIP solvers.

The paper uses Gurobi or lpsolve; here:

* :func:`solve_branch_and_bound` -- the default: a from-scratch exact
  solver (max-flow bound on the budget-relaxed min cut, branch and
  bound only where the budget binds), pure Python;
* :func:`solve_with_scipy` -- ``scipy.optimize.milp`` (HiGHS), kept as
  a named solver and as the tests' cross-check oracle; NumPy and SciPy
  are imported only when it is called;
* :func:`solve_greedy` -- hill-climbing local search, a fast
  approximate mode.
"""

from repro.core.ilp import SolverError
from repro.core.solvers.scipy_milp import solve_with_scipy
from repro.core.solvers.branch_and_bound import (
    NodeLimitError,
    solve_branch_and_bound,
)
from repro.core.solvers.greedy import solve_greedy

# The registry of named solvers the pipeline (and the CLI) selects
# from.  ``repro.core.pipeline`` re-exports it as ``SOLVERS`` for
# backwards compatibility.
SOLVERS = {
    "scipy": solve_with_scipy,
    "bnb": solve_branch_and_bound,
    "greedy": solve_greedy,
}


__all__ = [
    "SOLVERS",
    "NodeLimitError",
    "SolverError",
    "solve_with_scipy",
    "solve_branch_and_bound",
    "solve_greedy",
]
