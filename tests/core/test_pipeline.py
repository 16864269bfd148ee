"""End-to-end pipeline on the running example."""

import pytest

from repro.core.partition_graph import Placement
from repro.core.pipeline import Pyxis, PyxisConfig
from tests.conftest import (
    ORDER_ENTRY_POINTS,
    ORDER_SOURCE,
    make_order_database,
    needs_scipy,
)


class TestPartitionSet:
    def test_partitions_sorted_by_budget(self, order_partitions):
        budgets = [p.budget for p in order_partitions.by_budget()]
        assert budgets == sorted(budgets)
        assert order_partitions.lowest().budget == min(budgets)
        assert order_partitions.highest().budget == max(budgets)

    def test_budget_zero_is_all_app(self, order_partitions):
        low = order_partitions.lowest()
        assert low.fraction_on_db == 0.0

    def test_high_budget_pushes_code_to_db(self, order_partitions):
        high = order_partitions.highest()
        assert high.fraction_on_db > 0.5

    def test_budget_respected(self, order_partitions):
        for part in order_partitions.partitions:
            assert part.result.db_load <= part.budget + 1e-6

    def test_objective_decreases_with_budget(self, order_partitions):
        low, high = (
            order_partitions.lowest(), order_partitions.highest(),
        )
        assert high.result.objective <= low.result.objective

    def test_compiled_programs_have_blocks(self, order_partitions):
        for part in order_partitions.partitions:
            stats = part.compiled.stats()
            assert stats["blocks"] > 0
            assert stats["methods"] == 4

    def test_pyxil_listing_renders(self, order_partitions):
        from repro.pyxil.program import format_pyxil

        listing = format_pyxil(order_partitions.highest().placed)
        assert ":APP:" in listing or ":DB:" in listing
        assert "field Order.total_cost" in listing


class TestConfig:
    def test_unknown_solver_rejected_at_construction(self):
        # A typo fails before any (expensive) graph build or parse.
        with pytest.raises(ValueError, match="unknown solver"):
            PyxisConfig(solver="gurobi")

    def test_solver_mutated_after_construction_still_rejected(self):
        # PyxisConfig is a plain dataclass; assignment bypasses
        # __post_init__, so partition() keeps its own guard.
        pyxis = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)
        _, conn = make_order_database()
        profile = pyxis.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        pyxis.config.solver = "gurobi"
        with pytest.raises(ValueError, match="unknown solver"):
            pyxis.partition(profile, budgets=[0.0])

    @pytest.mark.parametrize(
        "solver", [pytest.param("scipy", marks=needs_scipy), "bnb", "greedy"]
    )
    def test_all_solvers_produce_valid_partitions(self, solver):
        pyx = Pyxis.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS, PyxisConfig(solver=solver),
        )
        _, conn = make_order_database()
        profile = pyx.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        pset = pyx.partition(profile, budgets=[1e9])
        part = pset.partitions[0]
        pset.graph.check_assignment(part.result.assignment)

    def test_default_solver_is_the_native_exact_one(self):
        assert PyxisConfig().solver == "bnb"

    def test_default_budget_ladder_used(self, order_pyxis):
        _, conn = make_order_database()
        profile = order_pyxis.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        pset = order_pyxis.partition(profile)
        assert len(pset.partitions) == 4  # DEFAULT_FRACTIONS

    def test_reorder_disabled_still_correct(self):
        from repro.runtime.entrypoints import PartitionedApp
        from repro.sim.cluster import Cluster

        pyx = Pyxis.from_source(
            ORDER_SOURCE, ORDER_ENTRY_POINTS, PyxisConfig(reorder=False)
        )
        _, conn = make_order_database()
        profile = pyx.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        pset = pyx.partition(profile, budgets=[1e9])
        _, run_conn = make_order_database()
        app = PartitionedApp(pset.partitions[0].compiled, Cluster(), run_conn)
        assert app.invoke("Order", "place_order", 7, 0.9) == pytest.approx(54.0)


class TestBudgets:
    def test_budget_ladder_monotone(self, order_pyxis):
        from repro.core.budgets import budget_ladder

        _, conn = make_order_database()
        profile = order_pyxis.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        ladder = budget_ladder(profile)
        assert ladder == sorted(ladder)
        assert ladder[0] == 0.0

    def test_negative_fraction_rejected(self, order_pyxis):
        from repro.core.budgets import budget_ladder

        _, conn = make_order_database()
        profile = order_pyxis.profile_with(
            conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
        )
        with pytest.raises(ValueError):
            budget_ladder(profile, fractions=[-0.1])

    def test_empty_fractions_rejected(self, order_pyxis):
        from repro.core.budgets import budget_ladder
        from repro.profiler.profile_data import ProfileData

        with pytest.raises(ValueError):
            budget_ladder(ProfileData(), fractions=[])
