"""Serve-tier failover: the tentpole's end-to-end acceptance test.

A saturating TPC-C client population drives the replicated shard tier;
the fault injector kills a primary mid-run; the replica supervisor
must detect it, promote the most caught-up replica, re-register the
new primary with the router, and let throughput recover -- all on the
virtual clock, with every replica group bit-identical afterwards.
"""

import pytest

from repro.bench.serve_experiments import serve_failover
from repro.bench.report import format_serve_failover


def _crashed_run(**overrides):
    kwargs = dict(
        fast=True, clients=96, shards=2, replicas=2, duration=12.0,
        fault_specs=("crash:db1@4.8",), seed=17,
    )
    kwargs.update(overrides)
    return serve_failover(**kwargs)


class TestKillPrimaryAcceptance:
    @pytest.fixture(scope="class")
    def result(self):
        return _crashed_run()

    def test_failover_happened_automatically(self, result):
        assert [label for _, label in result.faults_fired] == ["crash db1"]
        assert len(result.run.failovers) == 1
        event = result.run.failovers[0]
        assert event.shard == 1
        assert event.crashed_at == pytest.approx(4.8)
        assert event.generation == 1
        # Detection needs missed heartbeats, promotion a replay delay;
        # both happen promptly and in order.
        assert event.crashed_at < event.detected_at < event.promoted_at
        assert event.recovery_time < 1.5

    def test_throughput_recovers_after_promotion(self, result):
        assert result.pre_fault_throughput > 0
        assert result.post_failover_throughput > 0
        assert result.recovered_fraction >= 0.5
        assert result.run.throughput > 0

    def test_in_flight_work_aborted_and_retried(self, result):
        # Clients caught mid-transaction when the primary died abort
        # cleanly and re-submit after the backoff.
        assert result.run.aborted > 0
        assert 0 < result.run.txn_retries <= result.run.aborted
        assert result.run.metrics["two_pc.commits"] > 0

    def test_replica_groups_end_bit_identical(self, result):
        assert result.replicas_consistent

    def test_report_renders_the_story(self, result):
        text = format_serve_failover(result)
        assert "crash db1" in text
        assert "failover: shard 1 -> replica" in text
        assert "% recovered" in text
        assert "txn aborts:" in text
        assert "bit-identical" in text


class TestTransientFaults:
    def test_slow_shard_degrades_then_restores(self):
        result = serve_failover(
            fast=True, clients=24, shards=2, replicas=1, duration=10.0,
            fault_specs=("slow:db0@3x8:until=6",), seed=11,
        )
        assert [label for _, label in result.faults_fired] == [
            "slow db0 x8", "restore db0 speed",
        ]
        # No crash: the supervisor has nothing to promote.
        assert result.run.failovers == []
        assert result.post_failover_throughput > 0
        assert result.replicas_consistent

    def test_partitioned_replica_link_heals_and_catches_up(self):
        result = serve_failover(
            fast=True, clients=24, shards=2, replicas=1, duration=10.0,
            fault_specs=("partition:db1@3:until=6",), seed=11,
        )
        labels = [label for _, label in result.faults_fired]
        assert labels == ["partition db1", "heal db1"]
        assert result.run.failovers == []
        # Replicas fell behind during the partition but the final
        # consistency check forces catch-up and proves bit-identity.
        assert result.replicas_consistent


class TestValidation:
    def test_needs_at_least_one_replica(self):
        with pytest.raises(ValueError, match="replica"):
            serve_failover(replicas=0)

    def test_needs_at_least_one_fault(self):
        with pytest.raises(ValueError, match="fault"):
            serve_failover(fault_specs=())

    def test_bad_spec_propagates(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            serve_failover(fault_specs=("melt:db0@3",))
