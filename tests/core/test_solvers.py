"""Solver cross-checks, including exhaustive optimality properties."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.budgets import budget_ladder
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
    NodeLimitError,
    SolverError,
    solve_branch_and_bound,
    solve_greedy,
    solve_with_scipy,
)
from repro.core.solvers.branch_and_bound import FlowNetwork
from tests.conftest import needs_scipy
from tests.core.workload_graphs import CASES

SRC = str(Path(repro.__file__).resolve().parent.parent)
ROOT = str(Path(__file__).resolve().parent.parent.parent)


# -- max-flow alone -------------------------------------------------------------


def cut_capacity(arcs, sink_side):
    return sum(c for u, v, c in arcs if not sink_side[u] and sink_side[v])


@st.composite
def flow_networks(draw):
    """Up to 8 nodes, integer capacities (so sums are exact), zero
    among them; node 0 is the source, the last node the sink."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = [
        (u, v, float(draw(st.integers(0, 5))))
        for u, v in draw(st.lists(pair, max_size=20)) if u != v
    ]
    return n, arcs


@settings(max_examples=150, deadline=None)
@given(flow_networks())
def test_max_flow_is_the_minimum_cut(case):
    n, arcs = case
    net = FlowNetwork(n)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    value, sink_side = net.max_flow(0, n - 1)
    assert sink_side[n - 1] and not sink_side[0]
    assert value == cut_capacity(arcs, sink_side)
    cuts = [
        [False, *inner, True]
        for inner in itertools.product((False, True), repeat=n - 2)
    ]
    assert value == min(cut_capacity(arcs, cut) for cut in cuts)
    # Of the minimum cuts, the one with the smallest sink side.
    for cut in cuts:
        if cut_capacity(arcs, cut) == value:
            assert all(c or not s for c, s in zip(cut, sink_side))


def test_max_flow_disconnected_and_zero_capacity():
    net = FlowNetwork(4)
    assert net.max_flow(0, 3) == (0.0, [False, False, False, True])
    net.add_arc(0, 1, 2.0)
    net.add_arc(1, 3, 0.0)          # a zero arc carries nothing
    net.add_arc(2, 3, 7.0)          # 2 reaches the sink, 0 does not
    assert net.max_flow(0, 3) == (0.0, [False, False, True, True])
    net.add_arc(1, 2, 1.0, back=4.0)
    assert net.max_flow(0, 3) == (1.0, [False, False, True, True])


# -- the solvers against brute force -------------------------------------------


def brute_force(problem: ILPProblem):
    """(optimum, the optimum the tie-break rule prefers)."""
    feasible = [
        list(values)
        for values in itertools.product((0, 1), repeat=problem.num_vars)
        if problem.feasible(list(values))
    ]
    best = min(problem.objective_of(values) for values in feasible)
    preferred = min(
        (problem.db_load_of(values), values) for values in feasible
        if problem.objective_of(values) <= best + 1e-12
    )[1]
    return best, preferred


def exhaustive_optimum(problem: ILPProblem) -> float:
    return brute_force(problem)[0]


@st.composite
def random_graphs(draw, max_stmts=7):
    """Random weighted partition graphs with pins, co-location groups,
    zero loads and a budget -- zero, a subset's exact load, or any."""
    n = draw(st.integers(2, max_stmts))
    g = PartitionGraph()
    load = st.one_of(
        st.integers(0, 6).map(float), st.floats(0.0, 10.0)
    )
    weights = [draw(load) for _ in range(n)]
    for i, w in enumerate(weights):
        g.add_node(Node(f"s{i}", NodeKind.STMT, weight=w, sid=i))
    g.add_node(Node("dbcode", NodeKind.DBCODE, pin=Placement.DB))
    g.add_node(Node("console", NodeKind.ENTRY, pin=Placement.APP))
    stmts = [f"s{i}" for i in range(n)]
    ids = stmts + ["dbcode", "console"]
    n_edges = draw(st.integers(1, 3 * n))
    for _ in range(n_edges):
        src = draw(st.sampled_from(ids))
        dst = draw(st.sampled_from(ids))
        if src == dst:
            continue
        g.add_edge(
            src, dst, EdgeKind.DATA, weight=draw(st.floats(0.01, 5.0))
        )
    for _ in range(draw(st.integers(0, 2))):
        g.colocate(draw(st.lists(
            st.sampled_from(stmts), min_size=2, max_size=3, unique=True
        )))
    subset = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    budget = draw(st.one_of(
        st.just(0.0),
        st.just(sum(w for w, take in zip(weights, subset) if take)),
        st.floats(0.0, 40.0),
    ))
    return g, budget


@needs_scipy
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


@settings(max_examples=120, deadline=None)
@given(random_graphs(max_stmts=12))
def test_branch_and_bound_matches_exhaustive(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    values = solve_branch_and_bound(problem)
    optimum, preferred = brute_force(problem)
    assert problem.feasible(values)
    assert problem.objective_of(values) == pytest.approx(optimum, abs=1e-9)
    stats = problem.solve_stats
    assert stats["lower_bound"] == pytest.approx(optimum, abs=1e-9)
    if stats["nodes"] == 1:
        # The budget did not bind: one max-flow, and of all optima the
        # one the tie-break rule names.
        assert stats["max_flows"] == 1
        assert values == preferred


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


@needs_scipy
@settings(max_examples=25, deadline=None)
@given(random_graphs())
def test_solvers_agree(case):
    graph, budget = case
    problem = build_ilp(graph, budget)
    a = problem.objective_of(solve_with_scipy(problem))
    b = problem.objective_of(solve_branch_and_bound(problem))
    assert a == pytest.approx(b, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(random_graphs(max_stmts=12), st.randoms(use_true_random=False))
def test_warm_start_and_edge_order_do_not_change_the_optimum(case, rng):
    graph, budget = case
    problem = build_ilp(graph, budget)
    cold = solve_branch_and_bound(problem)
    seed = solve_greedy(problem)
    warm = solve_branch_and_bound(problem, warm_start=seed)
    assert problem.objective_of(warm) == pytest.approx(
        problem.objective_of(cold), abs=1e-9
    )
    rng.shuffle(problem.edges)
    assert solve_branch_and_bound(problem) == cold


# -- the repo's own graphs -----------------------------------------------------


@pytest.fixture(scope="module", params=["tpcc", "tpcw", "three_phase",
                                        "linked_list"])
def workload_problems(request):
    """(budget, problem) over the default ladder, the two extremes and
    12 seeded budgets on one of the workload graphs."""
    pyxis, profile = CASES[request.param]()
    graph = pyxis.update_profile(profile)
    total = float(profile.total_statement_weight())
    rng = random.Random(2012)
    budgets = [0.0, 1e9, *budget_ladder(profile)]
    budgets += [rng.uniform(0.0, total) for _ in range(12)]
    return [(budget, build_ilp(graph, budget)) for budget in budgets]


def test_workload_graphs_need_few_nodes(workload_problems):
    for budget, problem in workload_problems:
        values = solve_branch_and_bound(problem)
        stats = problem.solve_stats
        assert problem.feasible(values)
        assert stats["nodes"] <= 1000
        assert stats["lower_bound"] == pytest.approx(
            problem.objective_of(values), abs=1e-9
        )
        if budget in (0.0, 1e9):
            assert (stats["nodes"], stats["max_flows"]) == (1, 1)


@needs_scipy
def test_workload_graphs_match_highs(workload_problems):
    for _, problem in workload_problems:
        ours = problem.objective_of(solve_branch_and_bound(problem))
        highs = problem.objective_of(solve_with_scipy(problem))
        assert ours == pytest.approx(highs, abs=1e-9)


def test_node_limit_names_the_problem_and_the_gap():
    pyxis, profile = CASES["three_phase"]()
    graph = pyxis.update_profile(profile)
    budget = budget_ladder(profile)[1]
    problem = build_ilp(graph, budget)
    with pytest.raises(NodeLimitError) as caught:
        solve_branch_and_bound(problem, max_nodes=2)
    message = str(caught.value)
    assert isinstance(caught.value, SolverError)
    for part in ("after 2 nodes", f"{problem.num_vars} variables",
                 f"{len(problem.edges)} edges", f"budget {budget:g}",
                 "proven lower bound", "gap", "--solver scipy"):
        assert part in message
    assert len(solve_branch_and_bound(problem)) == problem.num_vars


HASH_SEED_PROBE = """
import random
from repro.core.budgets import budget_ladder
from repro.core.ilp import build_ilp
from repro.core.solvers import solve_branch_and_bound
from tests.core.workload_graphs import CASES
pyxis, profile = CASES["tpcc"]()
graph = pyxis.update_profile(profile)
rng = random.Random(7)
total = float(profile.total_statement_weight())
for budget in budget_ladder(profile) + [rng.uniform(0, total) for _ in "12345"]:
    problem = build_ilp(graph, budget)
    values = solve_branch_and_bound(problem)
    print("".join(map(str, values)), sorted(problem.solve_stats.items()))
"""


def run_probe(probe: str, **env) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        timeout=300, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, ROOT)), **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_same_values_under_any_hash_seed():
    outputs = {
        run_probe(HASH_SEED_PROBE, PYTHONHASHSEED=seed) for seed in "012"
    }
    assert len(outputs) == 1 and outputs.pop().count("\n") == 9


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
        result = solve_partitioning(g, 0.0, solve_branch_and_bound, "bnb")
        for node_id in ("s1", "s2", "s3"):
            assert result.assignment[node_id] is Placement.APP

    def test_expand_validates(self):
        g = self.make_graph()
        result = solve_partitioning(g, 1000.0, solve_branch_and_bound, "bnb")
        assert result.assignment["dbcode"] is Placement.DB
        assert result.db_load <= 1000.0

    def test_solver_wrong_arity_rejected(self):
        g = self.make_graph()
        with pytest.raises(ValueError, match="solver returned"):
            solve_partitioning(g, 10.0, lambda p: [0], "broken")


def test_scipy_repair_path_resolves_with_the_exact_solver(monkeypatch):
    """A HiGHS answer over budget by its feasibility tolerance is
    replaced by the exact solver's, at any size."""
    g = TestIlpConstruction().make_graph()
    problem = build_ilp(g, budget=3.0)
    from repro.core.solvers import scipy_milp

    class Overshoot:
        success, x = True, [1.0, 1.0, 1.0]   # load 7 > budget 3

    class FakeOptimize:
        Bounds = LinearConstraint = staticmethod(lambda *a, **k: None)
        milp = staticmethod(lambda **k: Overshoot)

    pytest.importorskip("numpy")
    import numpy

    monkeypatch.setattr(
        scipy_milp, "load_scipy", lambda: (numpy, FakeOptimize)
    )
    values = scipy_milp.solve_with_scipy(problem)
    assert problem.feasible(values)
    assert values == solve_branch_and_bound(problem)


def test_scipy_missing_fails_fast_naming_the_package(monkeypatch):
    from repro.core.pipeline import SOLVERS, PyxisConfig

    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(SolverError) as caught:
        PyxisConfig(solver="scipy")
    assert "needs the 'scipy' package" in str(caught.value)
    assert str(sorted(SOLVERS)) in str(caught.value)
    PyxisConfig()  # the default needs nothing


def test_importing_repro_does_not_import_scipy():
    """SciPy and NumPy load only inside ``solve_with_scipy``: neither
    importing the package nor a full TPC-C ``Pyxis.partition`` with the
    default solver may pull them in."""
    probe = (
        "import sys, repro, repro.core.pipeline, repro.db, repro.serve.engine\n"
        "from tests.core.workload_graphs import CASES\n"
        "pyxis, profile = CASES['tpcc']()\n"
        "assert len(pyxis.partition(profile).partitions) == 4\n"
        "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))"
    )
    assert run_probe(probe).strip() == "[]"
