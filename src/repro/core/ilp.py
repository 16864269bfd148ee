"""The binary integer program of Figure 5.

For each (merged) node a binary variable ``n`` -- 0 for the
application server, 1 for the database -- and for each weighted edge a
variable ``e`` forced to 1 when the edge is cut:

    minimize    sum_e w_e * e
    subject to  n_j - n_k - e <= 0
                n_k - n_j - e <= 0          for every edge (j, k)
                sum_n w_n * n <= Budget

Co-location groups (JDBC calls, array allocation sites) are merged
into single variables before solving -- the paper's "assign the same
node variable to all statements that contain a JDBC call".  Pinned
nodes become fixed values; edges touching them fold into linear terms.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.partition_graph import (
    Edge,
    PartitionGraph,
    Placement,
)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self.parent.setdefault(item, item)
        if parent != item:
            root = self.find(parent)
            self.parent[item] = root
            return root
        return item

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class PartitioningResult:
    """A solved partitioning."""

    assignment: dict[str, Placement]
    objective: float
    db_load: float
    budget: float
    solver: str
    # True when the solver actually received a warm-start seed (the
    # seed mapped onto the problem, was feasible, and the solver
    # accepts one) -- telemetry for the incremental session.
    warm_started: bool = False
    # The solver's own report (bnb: nodes, max_flows, lower_bound).
    solve_stats: dict = field(default_factory=dict)

    def placement_of(self, node_id: str) -> Placement:
        return self.assignment[node_id]

    def signature(self) -> str:
        """Stable content hash of the assignment.

        Two results with the same signature place every node
        identically, so all downstream artifacts (sync plan, compiled
        blocks) are interchangeable -- the partitioning service keys
        its PyxIL cache on this.
        """
        digest = hashlib.sha1()
        for node_id in sorted(self.assignment):
            digest.update(node_id.encode())
            digest.update(b"=1" if self.assignment[node_id] is Placement.DB
                          else b"=0")
        return digest.hexdigest()

    def fraction_on_db(self) -> float:
        if not self.assignment:
            return 0.0
        on_db = sum(
            1 for p in self.assignment.values() if p is Placement.DB
        )
        return on_db / len(self.assignment)


class InfeasibleError(Exception):
    """No assignment satisfies the pins within the budget."""


class SolverError(Exception):
    """A solver failed to produce a usable solution."""


@dataclass
class ILPProblem:
    """The reduced problem over merged free variables.

    ``var_groups[i]`` is the set of node ids represented by variable
    ``i``; ``loads[i]`` its total CPU weight; ``linear[i]`` the folded
    coefficient from edges to pinned nodes; ``edges`` the free-free
    weighted edges as (i, j, w).
    """

    graph: PartitionGraph
    budget: float
    var_groups: list[frozenset[str]] = field(default_factory=list)
    loads: list[float] = field(default_factory=list)
    linear: list[float] = field(default_factory=list)
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    constant: float = 0.0
    pinned_db_load: float = 0.0
    group_of: dict[str, int] = field(default_factory=dict)
    pinned: dict[str, Placement] = field(default_factory=dict)
    solve_stats: dict = field(default_factory=dict)  # left by the solver

    # -- evaluation -------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.var_groups)

    def objective_of(self, values: list[int]) -> float:
        total = self.constant
        for i, value in enumerate(values):
            total += self.linear[i] * value
        for i, j, weight in self.edges:
            if values[i] != values[j]:
                total += weight
        return total

    def db_load_of(self, values: list[int]) -> float:
        return self.pinned_db_load + sum(
            load for load, v in zip(self.loads, values) if v
        )

    def feasible(self, values: list[int]) -> bool:
        return self.db_load_of(values) <= self.budget + 1e-9

    def expand(self, values: list[int], solver: str) -> PartitioningResult:
        """Expand variable values to a full node assignment."""
        assignment: dict[str, Placement] = dict(self.pinned)
        for i, group in enumerate(self.var_groups):
            placement = Placement.DB if values[i] else Placement.APP
            for node_id in group:
                assignment[node_id] = placement
        self.graph.check_assignment(assignment)
        return PartitioningResult(
            assignment=assignment,
            objective=self.objective_of(values),
            db_load=self.db_load_of(values),
            budget=self.budget,
            solver=solver,
            solve_stats=self.solve_stats,
        )


def build_ilp(graph: PartitionGraph, budget: float) -> ILPProblem:
    """Merge co-location groups and pins; fold pinned edges."""
    uf = _UnionFind()
    for node_id in graph.nodes:
        uf.find(node_id)
    for group in graph.colocate_groups:
        members = sorted(group)
        for other in members[1:]:
            uf.union(members[0], other)

    # Collect groups and effective pins.
    members: dict[str, list[str]] = {}
    for node_id in graph.nodes:
        members.setdefault(uf.find(node_id), []).append(node_id)

    problem = ILPProblem(graph=graph, budget=budget)
    root_pin: dict[str, Optional[Placement]] = {}
    for root, ids in members.items():
        pin: Optional[Placement] = None
        for node_id in ids:
            node_pin = graph.nodes[node_id].pin
            if node_pin is None:
                continue
            if pin is not None and pin is not node_pin:
                raise InfeasibleError(
                    f"co-location group {sorted(ids)} has conflicting pins"
                )
            pin = node_pin
        root_pin[root] = pin

    root_index: dict[str, int] = {}
    for root, ids in sorted(members.items()):
        pin = root_pin[root]
        load = sum(graph.nodes[node_id].weight for node_id in ids)
        if pin is None:
            index = len(problem.var_groups)
            root_index[root] = index
            problem.var_groups.append(frozenset(ids))
            problem.loads.append(load)
            problem.linear.append(0.0)
            for node_id in ids:
                problem.group_of[node_id] = index
        else:
            for node_id in ids:
                problem.pinned[node_id] = pin
            if pin is Placement.DB:
                problem.pinned_db_load += load

    if problem.pinned_db_load > budget + 1e-9:
        raise InfeasibleError(
            f"pinned database load {problem.pinned_db_load} exceeds "
            f"budget {budget}"
        )

    edge_acc: dict[tuple[int, int], float] = {}
    for edge in graph.weighted_edges():
        if edge.weight <= 0:
            continue
        src_root, dst_root = uf.find(edge.src), uf.find(edge.dst)
        if src_root == dst_root:
            continue
        src_pin, dst_pin = root_pin[src_root], root_pin[dst_root]
        if src_pin is not None and dst_pin is not None:
            if src_pin is not dst_pin:
                problem.constant += edge.weight
            continue
        if src_pin is not None or dst_pin is not None:
            pin = src_pin if src_pin is not None else dst_pin
            free_root = dst_root if src_pin is not None else src_root
            index = root_index[free_root]
            if pin is Placement.APP:
                # Cost = w * x (cut when the free node goes to DB).
                problem.linear[index] += edge.weight
            else:
                # Cost = w * (1 - x).
                problem.constant += edge.weight
                problem.linear[index] -= edge.weight
            continue
        i, j = root_index[src_root], root_index[dst_root]
        if i > j:
            i, j = j, i
        edge_acc[(i, j)] = edge_acc.get((i, j), 0.0) + edge.weight
    problem.edges = [(i, j, w) for (i, j), w in sorted(edge_acc.items())]
    return problem


# A solver maps a problem to variable values (one 0/1 per free group).
# Solvers may additionally accept a ``warm_start`` keyword (a seed
# value list) -- ``resolve`` passes one only when the signature allows.
Solver = Callable[[ILPProblem], list[int]]


def warm_start_values(
    problem: ILPProblem, previous: PartitioningResult
) -> Optional[list[int]]:
    """Map a previous assignment onto the problem's free variables.

    Returns one 0/1 seed per variable group (by the placement of the
    group's nodes in ``previous``), or ``None`` when the previous
    assignment does not cover this graph or is infeasible under the
    new budget (a seed must always be a valid starting point).
    """
    values: list[int] = []
    for group in problem.var_groups:
        placements = {previous.assignment.get(nid) for nid in group}
        placements.discard(None)
        if not placements:
            return None
        # Groups are placement-uniform in any valid result; if the
        # previous solve used different groups, fall back to majority.
        votes = sum(
            1
            for nid in group
            if previous.assignment.get(nid) is Placement.DB
        )
        values.append(1 if 2 * votes >= len(group) else 0)
    if not problem.feasible(values):
        return None
    return values


def _accepts_warm_start(solver: Solver) -> bool:
    try:
        return "warm_start" in inspect.signature(solver).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


def resolve(
    graph: PartitionGraph,
    budget: float,
    solver: Solver,
    solver_name: str = "custom",
    warm_start: Optional[PartitioningResult] = None,
) -> PartitioningResult:
    """Incremental entry point: build, seed from ``warm_start``, solve.

    ``warm_start`` is a previous :class:`PartitioningResult` for the
    same graph structure (typically the last solve at this budget, or
    an adjacent budget rung).  Solvers that accept a ``warm_start``
    keyword (greedy: extra hill-climbing start; the exact solver:
    initial incumbent) are seeded with the mapped variable values; the
    SciPy oracle takes no seed.
    """
    problem = build_ilp(graph, budget)
    seed = (
        warm_start_values(problem, warm_start)
        if warm_start is not None
        else None
    )
    warm_used = seed is not None and _accepts_warm_start(solver)
    if warm_used:
        values = solver(problem, warm_start=seed)
    else:
        values = solver(problem)
    if len(values) != problem.num_vars:
        raise ValueError(
            f"solver returned {len(values)} values for "
            f"{problem.num_vars} variables"
        )
    if not problem.feasible(values):
        raise InfeasibleError(
            f"solver returned an infeasible assignment "
            f"(load {problem.db_load_of(values)} > budget {budget})"
        )
    result = problem.expand(values, solver_name)
    result.warm_started = warm_used
    return result


def solve_partitioning(
    graph: PartitionGraph,
    budget: float,
    solver: Solver,
    solver_name: str = "custom",
) -> PartitioningResult:
    """Convenience wrapper: build, solve cold, expand and validate."""
    return resolve(graph, budget, solver, solver_name)
