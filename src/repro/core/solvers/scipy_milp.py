"""MILP backend via scipy.optimize.milp (HiGHS)."""

from __future__ import annotations

from repro.core.ilp import ILPProblem, SolverError
from repro.core.solvers.branch_and_bound import solve_branch_and_bound


def load_scipy():
    """``(numpy, scipy.optimize)``, or a :class:`SolverError` naming
    the package that is missing."""
    try:  # SciPy first: installing it brings NumPy, so it is the one to name
        from scipy import optimize
        import numpy
    except ImportError as exc:
        from repro.core.solvers import SOLVERS

        raise SolverError(
            f"solver 'scipy' needs the {exc.name!r} package, which is "
            f"not installed; solvers: {sorted(SOLVERS)}"
        ) from exc
    return numpy, optimize


def solve_with_scipy(problem: ILPProblem) -> list[int]:
    """Solve the BIP exactly with HiGHS.

    Variables: ``n`` node variables (binary) followed by ``m`` edge
    variables (continuous in [0, 1]; they take 0/1 automatically at the
    optimum because edge weights are non-negative).

    NumPy and SciPy are imported here, not at module import: they cost
    half a second and 57 MB, and only a process that asks for this
    solver by name should pay that.
    """
    np, optimize = load_scipy()

    n = problem.num_vars
    m = len(problem.edges)
    if n == 0:
        return []

    cost = np.zeros(n + m)
    for i, coeff in enumerate(problem.linear):
        cost[i] = coeff
    for k, (_, _, weight) in enumerate(problem.edges):
        cost[n + k] = weight
    # HiGHS stops at an absolute gap of 1e-6 (not settable through
    # ``milp``) and a relative one of 1e-4; costs here are seconds,
    # down to 1e-8.  Rescaled, the absolute gap is 1e-10 of the
    # largest coefficient, and the relative one is switched off.
    peak = float(np.abs(cost).max())
    if peak > 0:
        cost *= 1e4 / peak

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

    constraints = optimize.LinearConstraint(
        np.vstack(rows), lb=-np.inf, ub=np.array(uppers)
    )
    integrality = np.concatenate([np.ones(n), np.zeros(m)])
    bounds = optimize.Bounds(lb=np.zeros(n + m), ub=np.ones(n + m))

    result = optimize.milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"mip_rel_gap": 0.0},
    )
    if not result.success or result.x is None:
        raise SolverError(f"scipy milp failed: {result.message}")
    values = [int(round(v)) for v in result.x[:n]]
    if not problem.feasible(values):
        # HiGHS accepts budget violations within its primal feasibility
        # tolerance (~1e-7), which the strict check rejects when loads
        # are tiny or the budget sits exactly on a boundary.
        return solve_branch_and_bound(problem)
    return values
