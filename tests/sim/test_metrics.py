"""Load monitor (EWMA) and summary statistics."""

import pytest

from repro.obs.summary import summarize
from repro.sim.metrics import LoadMonitor


class TestLoadMonitor:
    def test_first_sample_seeds_level(self):
        monitor = LoadMonitor(alpha=0.2)
        assert monitor.observe(60.0) == pytest.approx(60.0)

    def test_ewma_formula(self):
        # Paper: L_t = alpha * L_{t-1} + (1 - alpha) * S_t, alpha=0.2.
        monitor = LoadMonitor(alpha=0.2)
        monitor.observe(100.0)
        level = monitor.observe(0.0)
        assert level == pytest.approx(0.2 * 100.0)

    def test_converges_to_constant_input(self):
        monitor = LoadMonitor(alpha=0.2)
        for _ in range(50):
            monitor.observe(42.0)
        assert monitor.level == pytest.approx(42.0)

    def test_smoothing_lags_step_change(self):
        # The EWMA prevents oscillation: after a step the level moves
        # only (1 - alpha) of the way per observation.
        monitor = LoadMonitor(alpha=0.5)
        monitor.observe(0.0)
        monitor.observe(100.0)
        assert monitor.level == pytest.approx(50.0)

    def test_sample_clamped_to_100(self):
        monitor = LoadMonitor()
        assert monitor.observe(250.0) == pytest.approx(100.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LoadMonitor().observe(-1.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            LoadMonitor(alpha=1.0)

    def test_reset(self):
        monitor = LoadMonitor(alpha=0.2)
        monitor.observe(80.0)
        monitor.reset()
        assert monitor.observations == 0


class TestSummarize:
    def test_basic_stats(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.count == 5
        assert summary.mean == pytest.approx(3.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 5.0
        assert summary.p50 == 3.0

    def test_percentiles_ordered(self):
        summary = summarize(list(range(100)))
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_sample(self):
        summary = summarize([7.0])
        assert summary.mean == 7.0
        assert summary.stdev == 0.0

