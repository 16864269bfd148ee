"""Report formatting."""

import pytest

from repro.bench.experiments import (
    CurvePoint,
    ExperimentResult,
    Fig11Result,
    Fig14Result,
    Micro1Result,
)
from repro.bench.report import (
    format_curves,
    format_fig11,
    format_fig14,
    format_micro1,
    format_serve_shard_sweep,
    format_serve_sweep,
    format_serve_switching,
)
from repro.bench.serve_experiments import ServeSwitchResult, ShardSweepResult
from repro.serve.stats import (
    LoadSweepResult,
    ServeResult,
    SweepPoint,
    TxnSample,
)
from repro.sim.queueing import SimResult


def point(rate, latency_ms):
    return CurvePoint(
        offered_rate=rate, throughput=rate, latency_ms=latency_ms,
        p95_latency_ms=latency_ms * 2, app_util=0.1, db_util=0.5,
        net_kb_per_sec=100.0,
    )


class TestExperimentResult:
    def make(self):
        result = ExperimentResult(name="test", notes={"db_cores": 16})
        result.curves["jdbc"] = [point(100, 30.0), point(200, 40.0)]
        result.curves["manual"] = [point(100, 10.0), point(200, 12.0)]
        return result

    def test_best_latency(self):
        result = self.make()
        assert result.best_latency("jdbc") == 30.0
        assert result.best_latency("manual") == 10.0

    def test_max_throughput_with_cap(self):
        result = self.make()
        assert result.max_throughput("jdbc", latency_cap_ms=35.0) == 100
        assert result.max_throughput("jdbc") == 200
        assert result.max_throughput("jdbc", latency_cap_ms=1.0) == 0.0

    def test_format_curves_contains_all_impls(self):
        text = format_curves(self.make())
        assert "jdbc" in text and "manual" in text
        assert "30.00" in text


class TestFig11Formatting:
    def test_renders_series_and_mix(self):
        latencies = {
            "jdbc": (0.05, 0.05),
            "manual": (0.01, 0.09),
            "pyxis": (0.012, 0.055),
        }
        result = Fig11Result(
            load_time=30.0, bucket=30.0, mix_bucket=30.0, jdbc_like="low",
        )
        for name, (before, after) in latencies.items():
            result.runs[name] = SimResult(
                name=name, offered_rate=100.0, duration=60.0, completed=2,
                samples=[(15.0, before), (45.0, after)],
                trace_names=[(15.0, "high"), (45.0, "low")],
            )
        text = format_fig11(result)
        assert "dynamic switching" in text
        assert "jdbc" in text and "pyxis" in text


class TestServeSweepFormatting:
    def test_columns_line_up_with_each_point(self):
        result = LoadSweepResult(
            workload="micro", notes={"db_cores": 3, "think_time": 0.05}
        )
        result.curves["adaptive"] = [SweepPoint(
            clients=4, throughput=120.0, mean_ms=2.0, p50_ms=1.5,
            p95_ms=4.0, p99_ms=6.0, app_util=0.2, db_util=0.75,
            switches=2,
        )]
        lines = format_serve_sweep(result).splitlines()
        assert lines[1].split() == [
            "config", "clients", "tput/s", "p50", "ms", "p95", "ms",
            "p99", "ms", "db%", "sw",
        ]
        assert lines[3].split() == [
            "adaptive", "4", "120.0", "1.50", "4.00", "6.00", "75.0", "2",
        ]
        assert len(lines[3]) == len(lines[1])


class TestServeSwitchingFormatting:
    def time_labels(self, width):
        mids = [(i + 0.5) * width for i in range(12)]
        run = ServeResult(
            name="adaptive", clients=4, duration=12 * width, completed=12,
            samples=[TxnSample(t, 0.01, "t", 0, 1) for t in mids],
        )
        result = ServeSwitchResult(
            load_time=3 * width, bucket=width, runs={"adaptive": run},
        )
        rows = format_serve_switching(result).splitlines()[2:14]
        return [row.split()[0] for row in rows]

    def test_narrow_buckets_get_distinct_time_labels(self):
        labels = self.time_labels(0.5)
        assert len(set(labels)) == 12
        assert labels[:3] == ["0.2", "0.8", "1.2"]

    def test_whole_second_labels_when_buckets_are_wide(self):
        assert self.time_labels(3.75)[:3] == ["2", "6", "9"]


class TestServeShardSweepFormatting:
    def make(self):
        result = ShardSweepResult(
            clients=8, db_cores=2, duration=1.0, shard_key="w_id",
        )
        for shards, tput in ((1, 100.0), (2, 180.0)):
            util = tuple(0.9 / shards + 0.1 * i for i in range(shards))
            result.points[shards] = SweepPoint(
                clients=8, throughput=tput, mean_ms=2.0, p50_ms=1.5,
                p95_ms=4.0, p99_ms=6.0, app_util=0.2,
                db_util=sum(util) / shards, switches=shards - 1,
                db_shard_utilization=util,
            )
        return result

    def test_one_row_per_shard_count_with_each_shard_utilization(self):
        lines = format_serve_shard_sweep(self.make()).splitlines()
        assert lines[3].split() == ["1", "100.0", "4.00", "20.0", "90", "0"]
        assert lines[4].split() == [
            "2", "180.0", "4.00", "20.0", "45", "55", "1",
        ]
        assert lines[5] == (
            "speedup at 2 shards: 1.80x over the single-server baseline"
        )

    def test_speedup_is_top_over_single_server(self):
        result = self.make()
        assert result.speedup == pytest.approx(1.8)
        del result.points[2]
        assert result.speedup == 1.0


class TestFig14Formatting:
    def test_marks_winner_per_load(self):
        result = Fig14Result(
            partitions=["APP", "DB"], loads=["no_load", "full_load"]
        )
        result.times = {
            ("APP", "no_load"): 2.0,
            ("APP", "full_load"): 1.0,
            ("DB", "no_load"): 1.0,
            ("DB", "full_load"): 5.0,
        }
        assert result.best_for("no_load") == "DB"
        assert result.best_for("full_load") == "APP"
        text = format_fig14(result)
        assert text.count("*") >= 2


class TestMicro1Formatting:
    def test_overhead_reported(self):
        result = Micro1Result(
            native_seconds=0.001, pyxis_seconds=0.1, n=100, repeats=3
        )
        assert result.overhead == pytest.approx(100.0)
        assert "100.0x" in format_micro1(result)

    def test_zero_native_time_guarded(self):
        result = Micro1Result(
            native_seconds=0.0, pyxis_seconds=0.1, n=10, repeats=1
        )
        assert result.overhead == float("inf")
