"""The incremental partitioning service (core/session.py).

The differential guarantee: for every workload/budget the batch tests
exercise, the incremental path -- cached structure + reweight +
warm-started solve -- lands on the same objective value as a cold
solve, and unchanged assignments reuse the identical compiled program.
"""

import pytest

from repro.core.builder import build_partition_graph, reweight_graph
from repro.core.pipeline import Pyxis, PyxisConfig
from repro.core.session import PartitionService
from tests.conftest import (
    ORDER_ENTRY_POINTS,
    ORDER_SOURCE,
    make_order_database,
    needs_scipy,
)

BUDGET_SETS = [
    [0.0, 1e9],          # the two-rung ladder used across the suite
    [1e9],
    None,                # default ladder (DEFAULT_FRACTIONS)
]

EXACT_SOLVERS = [pytest.param("scipy", marks=needs_scipy), "bnb"]


def make_profile(pyxis, invocations=1):
    # One fresh database per invocation (place_order inserts fixed
    # line-item keys); merge the runs into one profile.
    merged = None
    for _ in range(invocations):
        _, conn = make_order_database()
        run = pyxis.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        if merged is None:
            merged = run
        else:
            merged.merge(run)
    return merged


class TestDifferentialIncrementalVsCold:
    @pytest.mark.parametrize("solver", EXACT_SOLVERS)
    @pytest.mark.parametrize("budgets", BUDGET_SETS)
    def test_same_objective_as_cold_solve(self, solver, budgets):
        config = PyxisConfig(solver=solver)
        session = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS, config)
        profile_a = make_profile(session)
        session.partition(profile_a, budgets=budgets)

        # Shift the observations (more invocations => heavier counts),
        # then re-solve incrementally on the warm session.
        profile_b = make_profile(session, invocations=3)
        incremental = session.partition(profile_b, budgets=budgets)
        assert session.stats.structure_builds == 1
        if solver == "bnb":
            # bnb takes the seed as its first incumbent; scipy takes
            # none, so its solves are (honestly) cold.
            assert session.stats.warm_solves > 0
        else:
            assert session.stats.warm_solves == 0

        # A completely cold pipeline on the same profile.  Share the
        # parsed program (sids are allocated per-parse, so a re-parse
        # would not line up with the recorded profile) but none of the
        # session caches.
        cold_session = Pyxis(
            session.program, PyxisConfig(solver=solver)
        )
        cold = cold_session.partition(profile_b, budgets=budgets)

        assert len(incremental.partitions) == len(cold.partitions)
        for inc, ref in zip(
            incremental.by_budget(), cold.by_budget()
        ):
            assert inc.budget == ref.budget
            assert inc.result.objective == pytest.approx(
                ref.result.objective, abs=1e-9
            )

    def test_unchanged_assignment_reuses_compiled_identically(self):
        session = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)
        profile = make_profile(session)
        first = session.partition(profile, budgets=[0.0, 1e9])
        second = session.partition(profile, budgets=[0.0, 1e9])
        for a, b in zip(first.by_budget(), second.by_budget()):
            assert a.signature == b.signature
            assert a.compiled is b.compiled  # identity, not equality
            assert a.sync_plan is b.sync_plan
        assert session.stats.pyxil_reuses == 2
        assert session.stats.pyxil_compiles == 2

    def test_changed_profile_changed_assignment_recompiles(self):
        # A profile with *no* observations weights every statement 1;
        # at a budget between the two regimes the assignment changes,
        # so the signature must change and a new program be compiled.
        session = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)
        profile = make_profile(session)
        total = profile.total_statement_weight()
        first = session.partition(profile, budgets=[0.4 * total])
        from repro.profiler.profile_data import ProfileData

        flat = ProfileData()
        second = session.partition(flat, budgets=[0.4 * total])
        if first.partitions[0].signature != second.partitions[0].signature:
            assert first.partitions[0].compiled is not (
                second.partitions[0].compiled
            )
            assert session.stats.pyxil_compiles >= 2


class TestInvalidate:
    def test_partition_after_invalidate_keeps_profile_weights(self):
        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        profile = make_profile(session)
        before = session.partition(profile, budgets=[0.0, 1e9])
        session.invalidate()
        # No profile passed: the rebuilt structure must be reweighted
        # against the session's current profile, not left all-zero.
        after = session.partition(budgets=[0.0, 1e9])
        assert session.stats.structure_builds == 2
        total = sum(e.weight for e in session.structure.edges)
        assert total > 0.0
        for a, b in zip(before.by_budget(), after.by_budget()):
            assert a.result.objective == pytest.approx(
                b.result.objective, abs=1e-9
            )

    def test_bounded_caches_evict_oldest(self):
        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        session._max_results = 4
        profile = make_profile(session)
        session.update_profile(profile)
        for budget in range(10):
            session.partition(budgets=[float(budget)])
        assert len(session._last_results) == 4
        assert len(session._pyxil_cache) <= session._max_pyxil


class TestReweightEqualsRebuild:
    def test_reweighted_graph_matches_cold_build(self):
        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        profile_a = make_profile(session)
        profile_b = make_profile(session, invocations=2)
        config = session.config.builder_config()

        # Session path: structure built once, reweighted twice.
        session.update_profile(profile_a)
        session.update_profile(profile_b)
        warm = session.structure

        # Batch path: fresh build directly at profile_b (same parsed
        # program, so sids line up with the profile).
        cold = build_partition_graph(
            session.program, session.call_graph, session.points_to,
            profile_b, config,
        )

        assert set(warm.nodes) == set(cold.nodes)
        for node_id, node in warm.nodes.items():
            assert node.weight == pytest.approx(cold.nodes[node_id].weight)
            assert node.pin is cold.nodes[node_id].pin
        cold_edges = {
            (e.src, e.dst, e.kind): e.weight for e in cold.edges
        }
        warm_edges = {
            (e.src, e.dst, e.kind): e.weight for e in warm.edges
        }
        assert set(warm_edges) == set(cold_edges)
        for key, weight in warm_edges.items():
            assert weight == pytest.approx(cold_edges[key])

    def test_reweight_is_idempotent(self):
        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        profile = make_profile(session)
        graph = session.update_profile(profile)
        before = {(e.src, e.dst, e.kind): e.weight for e in graph.edges}
        reweight_graph(graph, profile, session.config.builder_config())
        after = {(e.src, e.dst, e.kind): e.weight for e in graph.edges}
        assert before == after


class TestWarmStarts:
    def test_warm_start_values_mapping(self):
        from repro.core.ilp import build_ilp, resolve, warm_start_values
        from repro.core.solvers import solve_branch_and_bound

        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        profile = make_profile(session)
        graph = session.update_profile(profile)
        previous = resolve(graph, 1e9, solve_branch_and_bound, "bnb")
        problem = build_ilp(graph, 1e9)
        seed = warm_start_values(problem, previous)
        assert seed is not None
        assert len(seed) == problem.num_vars
        # Seeding with the optimum reproduces its objective.
        assert problem.objective_of(seed) == pytest.approx(
            previous.objective
        )

    def test_warm_start_infeasible_under_tighter_budget_dropped(self):
        from repro.core.ilp import build_ilp, warm_start_values

        session = PartitionService.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS
        )
        profile = make_profile(session)
        graph = session.update_profile(profile)
        loose = session.partition(profile, budgets=[1e9]).partitions[0]
        tight_problem = build_ilp(graph, 0.0)
        seed = warm_start_values(tight_problem, loose.result)
        # The all-DB placement cannot fit a zero budget: no seed.
        assert seed is None

    @pytest.mark.parametrize("solver", ["bnb", "greedy"])
    def test_warm_started_solvers_stay_valid(self, solver):
        config = PyxisConfig(solver=solver)
        session = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS, config)
        profile = make_profile(session)
        total = profile.total_statement_weight()
        budgets = [0.0, 0.5 * total, 1e9]
        first = session.partition(profile, budgets=budgets)
        second = session.partition(profile, budgets=budgets)
        for part in second.partitions:
            session.structure.check_assignment(part.result.assignment)
        if solver == "bnb":
            # Exact solver: warm start must not change the optimum.
            for a, b in zip(first.by_budget(), second.by_budget()):
                assert a.result.objective == pytest.approx(
                    b.result.objective, abs=1e-9
                )
