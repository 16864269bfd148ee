"""Greedy local-search solver.

Hill climbing over single-variable flips from two starting points
(everything on APP; everything that fits on DB), keeping the better
local optimum.  A fast approximate solver for very large graphs, and
the baseline the ablation bench compares the exact solver with.

An optional ``warm_start`` (a feasible value list, typically mapped
from a previous solve of the same graph) adds a third starting point,
so incremental re-solves converge from the old placement instead of
from scratch.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ilp import ILPProblem


def _improve(problem: ILPProblem, values: list[int], max_rounds: int = 200) -> list[int]:
    """Single-flip hill climbing until no improving feasible move."""
    n = problem.num_vars
    current = list(values)
    current_cost = problem.objective_of(current)
    for _ in range(max_rounds):
        best_delta = -1e-12
        best_var = -1
        for i in range(n):
            current[i] ^= 1
            if problem.feasible(current):
                delta = problem.objective_of(current) - current_cost
                if delta < best_delta:
                    best_delta = delta
                    best_var = i
            current[i] ^= 1
        if best_var < 0:
            break
        current[best_var] ^= 1
        current_cost += best_delta
    return current


def solve_greedy(
    problem: ILPProblem, warm_start: Optional[list[int]] = None
) -> list[int]:
    n = problem.num_vars
    candidates: list[list[int]] = []

    if (
        warm_start is not None
        and len(warm_start) == n
        and problem.feasible(warm_start)
    ):
        candidates.append(_improve(problem, warm_start))

    all_app = [0] * n
    if problem.feasible(all_app):
        candidates.append(_improve(problem, all_app))

    all_db = [1] * n
    if problem.feasible(all_db):
        candidates.append(_improve(problem, all_db))
    else:
        # Fill DB greedily by load until the budget is reached.
        remaining = problem.budget - problem.pinned_db_load
        values = [0] * n
        order = sorted(range(n), key=lambda i: problem.loads[i])
        for i in order:
            if problem.loads[i] <= remaining:
                values[i] = 1
                remaining -= problem.loads[i]
        candidates.append(_improve(problem, values))

    if not candidates:
        from repro.core.ilp import InfeasibleError

        raise InfeasibleError("no feasible starting point under budget")
    return min(candidates, key=problem.objective_of)
