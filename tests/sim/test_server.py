"""Server cores and the CPU cost model."""

import pytest

from repro.sim.server import CostModel, Server


class TestCostModel:
    def test_db_operation_scales_with_rows(self):
        model = CostModel(db_fixed_cost=100e-6, db_row_cost=10e-6)
        assert model.db_operation(0) == pytest.approx(100e-6)
        assert model.db_operation(10) == pytest.approx(200e-6)

    def test_db_operation_negative_rows_clamped(self):
        model = CostModel(db_fixed_cost=100e-6, db_row_cost=10e-6)
        assert model.db_operation(-5) == pytest.approx(100e-6)


class TestServer:
    def test_requires_at_least_one_core(self):
        with pytest.raises(ValueError):
            Server("bad", cores=0)
