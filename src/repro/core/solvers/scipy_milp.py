"""MILP backend via scipy.optimize.milp (HiGHS)."""

from __future__ import annotations

from repro.core.ilp import ILPProblem


def solve_with_scipy(problem: ILPProblem) -> list[int]:
    """Solve the BIP exactly with HiGHS.

    Variables: ``n`` node variables (binary) followed by ``m`` edge
    variables (continuous in [0, 1]; they take 0/1 automatically at the
    optimum because edge weights are non-negative).

    NumPy and SciPy are imported here, not at module import: they are
    two thirds of ``import repro``'s time and most processes (recovery,
    the database tier, the simulators) never solve.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = problem.num_vars
    m = len(problem.edges)
    if n == 0:
        return []

    cost = np.zeros(n + m)
    for i, coeff in enumerate(problem.linear):
        cost[i] = coeff
    for k, (_, _, weight) in enumerate(problem.edges):
        cost[n + k] = weight

    rows: list = []
    uppers: list[float] = []
    for k, (i, j, _) in enumerate(problem.edges):
        row = np.zeros(n + m)
        row[i], row[j], row[n + k] = 1.0, -1.0, -1.0
        rows.append(row)
        uppers.append(0.0)
        row2 = np.zeros(n + m)
        row2[i], row2[j], row2[n + k] = -1.0, 1.0, -1.0
        rows.append(row2)
        uppers.append(0.0)

    budget_row = np.zeros(n + m)
    for i, load in enumerate(problem.loads):
        budget_row[i] = load
    rows.append(budget_row)
    uppers.append(problem.budget - problem.pinned_db_load)

    constraints = LinearConstraint(
        np.vstack(rows), lb=-np.inf, ub=np.array(uppers)
    )
    integrality = np.concatenate([np.ones(n), np.zeros(m)])
    bounds = Bounds(lb=np.zeros(n + m), ub=np.ones(n + m))

    result = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
    )
    if not result.success or result.x is None:
        from repro.core.solvers import SolverError

        raise SolverError(f"scipy milp failed: {result.message}")
    values = [int(round(v)) for v in result.x[:n]]
    if not problem.feasible(values):
        # HiGHS accepts budget violations within its primal feasibility
        # tolerance (~1e-7), which the strict check rejects when loads
        # are tiny or the budget sits exactly on a boundary.  Small
        # problems re-solve exactly; larger ones (where exhaustive
        # search could blow past the branch-and-bound node cap) get a
        # bounded repair -- the violation is tolerance-level, so moving
        # the lightest DB assignments to APP restores feasibility with
        # minimal objective damage.
        if n <= 20:
            from repro.core.solvers import solve_branch_and_bound

            return solve_branch_and_bound(problem)
        for _, i in sorted(
            (problem.loads[i], i) for i, v in enumerate(values) if v
        ):
            values[i] = 0
            if problem.feasible(values):
                break
    return values
