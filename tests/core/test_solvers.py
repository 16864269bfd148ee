"""Solver cross-checks, including exhaustive optimality properties."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.ilp import (
    ILPProblem,
    InfeasibleError,
    build_ilp,
    solve_partitioning,
)
from repro.core.partition_graph import (
    EdgeKind,
    Node,
    NodeKind,
    PartitionGraph,
    Placement,
)
from repro.core.solvers import (
    solve_branch_and_bound,
    solve_greedy,
    solve_with_scipy,
)


def exhaustive_optimum(problem: ILPProblem) -> float:
    """Brute-force optimum over all feasible assignments."""
    best = float("inf")
    for values in itertools.product((0, 1), repeat=problem.num_vars):
        values = list(values)
        if problem.feasible(values):
            best = min(best, problem.objective_of(values))
    return best


@st.composite
def random_graphs(draw):
    """Random weighted partition graphs with pins and a budget."""
    n = draw(st.integers(2, 7))
    g = PartitionGraph()
    weights = []
    for i in range(n):
        w = draw(st.floats(0.0, 10.0))
        weights.append(w)
        g.add_node(Node(f"s{i}", NodeKind.STMT, weight=w, sid=i))
    g.add_node(Node("dbcode", NodeKind.DBCODE, pin=Placement.DB))
    g.add_node(Node("console", NodeKind.ENTRY, pin=Placement.APP))
    ids = [f"s{i}" for i in range(n)] + ["dbcode", "console"]
    n_edges = draw(st.integers(1, 12))
    for _ in range(n_edges):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from(ids))
        if src == dst:
            continue
        g.add_edge(
            src, dst, EdgeKind.DATA, weight=draw(st.floats(0.01, 5.0))
        )
    budget = draw(st.floats(0.0, 40.0))
    return g, budget


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_scipy_matches_exhaustive(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    values = solve_with_scipy(problem)
    assert problem.feasible(values)
    assert problem.objective_of(values) == pytest.approx(
        exhaustive_optimum(problem), abs=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_branch_and_bound_matches_exhaustive(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    values = solve_branch_and_bound(problem)
    assert problem.feasible(values)
    assert problem.objective_of(values) == pytest.approx(
        exhaustive_optimum(problem), abs=1e-6
    )


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_greedy_feasible_and_never_better_than_optimal(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    values = solve_greedy(problem)
    assert problem.feasible(values)
    assert problem.objective_of(values) >= (
        exhaustive_optimum(problem) - 1e-9
    )


@settings(max_examples=25, deadline=None)
@given(random_graphs())
def test_solvers_agree(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    a = problem.objective_of(solve_with_scipy(problem))
    b = problem.objective_of(solve_branch_and_bound(problem))
    assert a == pytest.approx(b, abs=1e-6)


class TestIlpConstruction:
    def make_graph(self):
        g = PartitionGraph()
        g.add_node(Node("s1", NodeKind.STMT, weight=1.0, sid=1))
        g.add_node(Node("s2", NodeKind.STMT, weight=2.0, sid=2))
        g.add_node(Node("s3", NodeKind.STMT, weight=4.0, sid=3))
        g.add_node(Node("dbcode", NodeKind.DBCODE, pin=Placement.DB))
        g.add_edge("s1", "s2", EdgeKind.DATA, weight=1.0)
        g.add_edge("s2", "dbcode", EdgeKind.CONTROL, weight=3.0)
        return g

    def test_colocation_merges_variables(self):
        g = self.make_graph()
        g.colocate(["s1", "s2"])
        problem = build_ilp(g, budget=100.0)
        assert problem.num_vars == 2  # (s1+s2), s3
        merged = next(
            grp for grp in problem.var_groups if "s1" in grp
        )
        assert merged == frozenset({"s1", "s2"})

    def test_pinned_edges_fold_into_linear_terms(self):
        g = self.make_graph()
        problem = build_ilp(g, budget=100.0)
        # Edge s2 -> dbcode (pinned DB): cost 3*(1 - x_s2).
        idx = problem.group_of["s2"]
        assert problem.linear[idx] == pytest.approx(-3.0)
        assert problem.constant == pytest.approx(3.0)

    def test_budget_excludes_pinned_weight(self):
        g = self.make_graph()
        problem = build_ilp(g, budget=10.0)
        assert problem.pinned_db_load == 0.0  # dbcode has weight 0

    def test_infeasible_pinned_load(self):
        g = PartitionGraph()
        g.add_node(
            Node("s1", NodeKind.STMT, weight=5.0, sid=1, pin=Placement.DB)
        )
        with pytest.raises(InfeasibleError):
            build_ilp(g, budget=1.0)

    def test_conflicting_pins_in_group(self):
        g = PartitionGraph()
        g.add_node(Node("s1", NodeKind.STMT, weight=1.0, pin=Placement.APP))
        g.add_node(Node("s2", NodeKind.STMT, weight=1.0, pin=Placement.DB))
        g.colocate(["s1", "s2"])
        with pytest.raises(InfeasibleError):
            build_ilp(g, budget=10.0)

    def test_budget_zero_forces_all_app(self):
        g = self.make_graph()
        result = solve_partitioning(g, 0.0, solve_with_scipy, "scipy")
        for node_id in ("s1", "s2", "s3"):
            assert result.assignment[node_id] is Placement.APP

    def test_expand_validates(self):
        g = self.make_graph()
        result = solve_partitioning(g, 1000.0, solve_with_scipy, "scipy")
        assert result.assignment["dbcode"] is Placement.DB
        assert result.db_load <= 1000.0

    def test_solver_wrong_arity_rejected(self):
        g = self.make_graph()
        with pytest.raises(ValueError, match="solver returned"):
            solve_partitioning(g, 10.0, lambda p: [0], "broken")


def test_importing_repro_does_not_import_scipy():
    """SciPy and NumPy load inside ``solve_with_scipy``: a process that
    never solves (recovery, the database tier, the simulators) must not
    pay their import (two thirds of ``import repro``'s time)."""
    probe = (
        "import sys, repro, repro.core.pipeline, repro.db, repro.serve.engine\n"
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
