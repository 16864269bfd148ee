"""Ablation benches for the design choices DESIGN.md calls out.

* Statement reordering (Section 4.4): how many control transfers does
  the dual-queue topological sort save?
* Solver choice: exact (the native branch-and-bound) versus the greedy
  heuristic -- objective quality on the real TPC-C partition graph.
* JDBC co-location (Section 4.3): how much objective the constraint
  costs (it buys correctness, not speed).
"""

import time

from benchmarks.conftest import run_once
from repro.core.ilp import build_ilp, solve_partitioning
from repro.core.pipeline import Pyxis, PyxisConfig
from repro.core.solvers import solve_branch_and_bound, solve_greedy
from repro.runtime.entrypoints import PartitionedApp
from repro.sim.cluster import Cluster
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccInputGenerator,
    TpccScale,
    make_tpcc_database,
)

SCALE = TpccScale()


def _tpcc_profiled(reorder: bool = True):
    pyx = Pyxis.from_source(
        TPCC_SOURCE, TPCC_ENTRY_POINTS, PyxisConfig(reorder=reorder)
    )
    _, conn = make_tpcc_database(SCALE)
    gen = TpccInputGenerator(SCALE, seed=77)

    def workload(p):
        for _ in range(6):
            order = gen.new_order(0)
            p.invoke(
                "TpccTransactions", "new_order",
                order.w_id, order.d_id, order.c_id,
                order.item_ids, order.supply_w_ids, order.quantities,
            )

    profile = pyx.profile_with(conn, workload)
    return pyx, profile


def _transfers(pyx, pset):
    # Prefer a genuinely split partition; otherwise use the most mixed.
    split = [p for p in pset.by_budget() if 0.0 < p.fraction_on_db < 1.0]
    part = (
        split[0]
        if split
        else min(
            pset.by_budget(),
            key=lambda p: abs(p.fraction_on_db - 0.5),
        )
    )
    _, conn = make_tpcc_database(SCALE)
    app = PartitionedApp(part.compiled, Cluster(), conn)
    gen = TpccInputGenerator(SCALE, seed=78)
    order = gen.new_order(0)
    outcome = app.invoke_traced(
        "TpccTransactions", "new_order",
        order.w_id, order.d_id, order.c_id,
        order.item_ids, order.supply_w_ids, order.quantities,
    )
    return outcome.control_transfers + outcome.db_round_trips


def test_ablation_reordering(benchmark):
    """Reordering must never increase communication; report the delta."""

    def experiment():
        pyx_on, profile = _tpcc_profiled(reorder=True)
        total = profile.total_statement_weight()
        budgets = [total * 0.5]
        pset_on = pyx_on.partition(profile, budgets=budgets)
        pyx_off, profile_off = _tpcc_profiled(reorder=False)
        pset_off = pyx_off.partition(profile_off, budgets=budgets)
        return (
            _transfers(pyx_on, pset_on), _transfers(pyx_off, pset_off),
        )

    with_reorder, without_reorder = run_once(benchmark, experiment)
    print(
        f"\ncommunication events per txn: reordered={with_reorder} "
        f"unordered={without_reorder}"
    )
    assert with_reorder <= without_reorder


def test_ablation_solver_quality(benchmark):
    """Greedy versus exact on the real TPC-C partition graph."""

    def experiment():
        pyx, profile = _tpcc_profiled()
        pset = pyx.partition(profile, budgets=[1e9])
        graph = pset.graph
        budget = profile.total_statement_weight() * 0.5
        results = {}
        for name, solver in (
            ("exact", solve_branch_and_bound), ("greedy", solve_greedy),
        ):
            start = time.perf_counter()
            outcome = solve_partitioning(graph, budget, solver, name)
            elapsed = time.perf_counter() - start
            results[name] = (outcome.objective, elapsed)
        return results

    results = run_once(benchmark, experiment)
    print()
    for name, (objective, elapsed) in results.items():
        print(f"{name:<8} objective={objective * 1000:.3f}ms  "
              f"solve_time={elapsed * 1000:.1f}ms")
    # Greedy is never better than the exact optimum.
    assert results["greedy"][0] >= results["exact"][0] - 1e-12
    # And stays within 2x on this graph.
    assert results["greedy"][0] <= max(results["exact"][0] * 2.0, 1e-9)


def test_ablation_jdbc_colocation(benchmark):
    """Dropping the JDBC co-location constraint can only lower the
    objective (it is a correctness constraint, not an optimization)."""

    def experiment():
        pyx, profile = _tpcc_profiled()
        pset = pyx.partition(profile, budgets=[1e9])
        graph = pset.graph
        budget = profile.total_statement_weight() * 0.5
        constrained = solve_partitioning(
            graph, budget, solve_branch_and_bound, "bnb"
        ).objective
        saved_groups = graph.colocate_groups
        try:
            graph.colocate_groups = [
                g for g in saved_groups
                if not any(n.startswith("s") for n in g) or len(g) == 2
            ]
            relaxed_problem = build_ilp(graph, budget)
            relaxed_values = solve_branch_and_bound(relaxed_problem)
            relaxed = relaxed_problem.objective_of(relaxed_values)
        finally:
            graph.colocate_groups = saved_groups
        return constrained, relaxed

    constrained, relaxed = run_once(benchmark, experiment)
    print(
        f"\nobjective with colocation={constrained * 1000:.3f}ms "
        f"without={relaxed * 1000:.3f}ms"
    )
    assert relaxed <= constrained + 1e-12
