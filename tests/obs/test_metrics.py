"""Metrics registry: instruments, labels, snapshot."""

import pytest

from repro.obs import MetricsRegistry, percentile, summarize
from repro.obs.metrics import format_metric_name


class TestInstruments:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_gauge_sets(self):
        g = MetricsRegistry().gauge("util")
        g.set(0.75)
        assert g.value == 0.75

    def test_histogram_buckets_and_mean(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(5.555 / 4)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(0.5, 0.1))
        with pytest.raises(ValueError):
            reg.histogram("empty", buckets=())


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("txn", shard=0)
        b = reg.counter("txn", shard=0)
        c = reg.counter("txn", shard=1)
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a=1, b=2) is reg.counter("x", b=2, a=1)

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(TypeError):
            reg.gauge("n")

    def test_snapshot_renders_labels_sorted(self):
        reg = MetricsRegistry()
        reg.counter("txn", shard=1, option=0).inc(3)
        snap = reg.snapshot()
        assert snap["txn{option=0,shard=1}"] == 3
        assert format_metric_name("txn", {"shard": 1, "option": 0}) == (
            "txn{option=0,shard=1}"
        )

    def test_snapshot_histogram_shape(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        entry = reg.snapshot()["lat"]
        assert entry["count"] == 3
        assert entry["sum"] == pytest.approx(5.55)
        assert entry["buckets"]["le=0.1"] == 1
        assert entry["buckets"]["le=1"] == 2
        assert entry["buckets"]["le=+Inf"] == 3


class TestSummaryHelpers:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 50) == 0.0

    def test_percentile_two_samples(self):
        # Nearest-rank p50 of two samples is the *smaller* one:
        # rank = ceil(0.5 * 2) = 1 (1-based).
        assert percentile([1.0, 9.0], 50) == 1.0
        assert percentile([1.0, 9.0], 95) == 9.0

    def test_summarize_routes_through_percentile(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        s = summarize(samples)
        assert s.count == 4
        assert s.p50 == percentile(samples, 50)
        assert s.maximum == 4.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
