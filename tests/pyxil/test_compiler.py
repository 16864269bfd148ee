"""Execution-block compilation."""

import pytest

from repro.core.partition_graph import Placement
from repro.pyxil.blocks import (
    OpAssign,
    TBranch,
    TCall,
    TGoto,
    TReturn,
)


@pytest.fixture(scope="module")
def compiled_pair(order_partitions):
    return (
        order_partitions.lowest().compiled,
        order_partitions.highest().compiled,
    )


class TestBlockStructure:
    def test_every_block_terminated(self, compiled_pair):
        for compiled in compiled_pair:
            for block in compiled.blocks.values():
                assert block.terminator is not None

    def test_every_method_has_entry(self, compiled_pair):
        for compiled in compiled_pair:
            assert set(compiled.entries) == {
                "Order.place_order",
                "Order.compute_total_cost",
                "Order.get_costs",
                "Order.update_account",
            }

    def test_terminator_targets_exist(self, compiled_pair):
        for compiled in compiled_pair:
            for block in compiled.blocks.values():
                term = block.terminator
                targets = []
                if isinstance(term, TGoto):
                    targets = [term.target]
                elif isinstance(term, TBranch):
                    targets = [term.then_target, term.else_target]
                elif isinstance(term, TCall):
                    targets = [term.return_target]
                for target in targets:
                    assert target in compiled.blocks

    def test_call_targets_are_known_methods(self, compiled_pair):
        for compiled in compiled_pair:
            for block in compiled.blocks.values():
                if isinstance(block.terminator, TCall):
                    callee = block.terminator.callee
                    if callee:
                        assert callee in compiled.entries

    def test_blocks_single_placement(self, compiled_pair):
        # Each block's placement is a single value by construction;
        # check low budget compiles everything to APP.
        low, high = compiled_pair
        assert all(
            b.placement is Placement.APP for b in low.blocks.values()
        )
        assert any(
            b.placement is Placement.DB for b in high.blocks.values()
        )

    def test_field_metadata_complete(self, compiled_pair):
        for compiled in compiled_pair:
            assert ("Order", "total_cost") in compiled.field_placements
            assert ("Order", "real_costs") in compiled.field_placements

    def test_stats(self, compiled_pair):
        low, _ = compiled_pair
        stats = low.stats()
        assert stats["blocks"] == stats["app_blocks"] + stats["db_blocks"]
        assert stats["methods"] == 4

    def test_reachability_from_entries(self, compiled_pair):
        """Every block is reachable from some method entry."""
        for compiled in compiled_pair:
            seen = set()
            stack = list(compiled.entries.values())
            while stack:
                bid = stack.pop()
                if bid in seen:
                    continue
                seen.add(bid)
                term = compiled.blocks[bid].terminator
                if isinstance(term, TGoto):
                    stack.append(term.target)
                elif isinstance(term, TBranch):
                    stack.extend([term.then_target, term.else_target])
                elif isinstance(term, TCall):
                    stack.append(term.return_target)
                    if term.callee:
                        stack.append(compiled.entries[term.callee])
            assert seen == set(compiled.blocks)


class TestSyncMetadata:
    def test_shared_field_ships(self, order_partitions):
        # total_cost is written and read in multiple methods: whenever
        # the writers and readers span servers, it must ship.
        high = order_partitions.highest()
        compiled = high.compiled
        placements = {
            compiled.field_placements[("Order", "total_cost")],
        }
        writers_and_readers_span = high.placed.fraction_on_db not in (0.0, 1.0)
        if writers_and_readers_span:
            assert compiled.field_ships[("Order", "total_cost")] in (
                True, False,
            )

    def test_low_budget_nothing_ships(self, order_partitions):
        # With every statement on APP, no field is remotely accessed.
        low = order_partitions.lowest().compiled
        assert not any(low.field_ships.values())
