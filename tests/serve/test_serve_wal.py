"""Serve-tier durability: whole-cluster crash, recovery, restart.

End-to-end acceptance of the WAL tentpole: a TPC-C population runs
against a WAL-attached sharded tier, storage faults are injected
mid-run, the whole cluster is killed at ``kill_at``, recovery rebuilds
every option's database from disk, and the result must be
bit-identical to the in-memory state at the kill (the uninjected
oracle -- torn writes and covered corruption damage disk only).
"""

import pytest

from repro.bench.report import format_wal_recovery
from repro.bench.serve_experiments import serve_wal_recovery
from repro.serve import ServeConfig, ServeEngine, TraceWorkload
from repro.sim.queueing import Stage, StageKind, TransactionTrace


class TestCrashRecoveryAcceptance:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        wal_dir = tmp_path_factory.mktemp("wal")
        return serve_wal_recovery(
            wal_dir, fast=True, clients=32, shards=2, duration=10.0,
            kill_at=6.0,
            fault_specs=("tornwrite:db0@3", "corrupt:db1@3"),
            seed=17, restart=True,
        )

    def test_storage_faults_armed_then_applied_at_crash(self, result):
        labels = [label for _, label in result.faults_fired]
        assert labels == ["tornwrite db0", "corrupt db1"]
        # One torn tail per option's shard-0 log, dropped at recovery.
        assert result.torn_tails == 2

    def test_recovery_is_bit_identical_to_the_oracle(self, result):
        assert result.identity_checked
        assert result.identical, result.mismatches
        assert result.mismatches == []
        # With sync-on-commit every acknowledged frame was durable.
        assert result.lost_frames == 0
        assert result.sync_failures == 0

    def test_redo_was_actually_replayed(self, result):
        assert result.pre_kill.completed > 0
        assert result.commits_applied > 0
        assert result.checkpoints >= 2  # periodic, both options
        assert result.wal_bytes > 0

    def test_cluster_restarts_and_serves_from_recovered_state(self, result):
        assert result.post_restart is not None
        assert result.post_restart.completed > 0
        assert result.post_restart.throughput > 0

    def test_report_renders_the_story(self, result):
        text = format_wal_recovery(result)
        assert "tornwrite db0" in text and "corrupt db1" in text
        assert "bit-identical" in text
        assert "restart" in text

    def test_needs_a_sharded_tier(self, tmp_path):
        with pytest.raises(ValueError, match="shard"):
            serve_wal_recovery(tmp_path, shards=1)


class TestFsyncFaults:
    def test_fsyncfail_under_group_commit_loses_only_unacked(
        self, tmp_path
    ):
        result = serve_wal_recovery(
            tmp_path, fast=True, clients=16, shards=2, duration=8.0,
            kill_at=5.0, sync_policy="group",
            fault_specs=("fsyncfail:db0@2:until=4",), seed=11,
        )
        labels = [label for _, label in result.faults_fired]
        assert labels == ["fsyncfail db0", "heal fsyncfail db0"]
        # Recovery still runs; identity is only asserted when no
        # acknowledged frame was lost to the failing fsyncs.
        assert result.commits_applied >= 0
        if result.lost_frames == 0:
            assert result.identity_checked and result.identical
        else:
            assert not result.identity_checked


class TestEngineStorageFaultHook:
    def _engine(self):
        trace = TransactionTrace(
            name="t", stages=(Stage(StageKind.DB_CPU, 0.01),)
        )
        return ServeEngine(
            TraceWorkload([[trace]], labels=["only"]),
            config=ServeConfig(db_shards=2),
        )

    def test_storage_fault_without_wal_is_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="--wal"):
            engine.set_storage_fault("tornwrite", 0, True)

    def test_unknown_kind_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="unknown storage fault"):
            engine.set_storage_fault("melt", 0, True)

    def test_tornwrite_arms_instead_of_applying(self, tmp_path):
        from repro.db import Database, attach_wal

        db = Database("d")
        db.create_table("kv", [("k", "int", False)], primary_key=["k"])
        manager = attach_wal(db, tmp_path)
        engine = self._engine()
        engine.attach_wal_managers([manager])
        engine.set_storage_fault("tornwrite", 1, True)
        assert engine.armed_storage_faults == [("tornwrite", 1)]
        # fsyncfail, by contrast, takes effect immediately.
        engine.set_storage_fault("fsyncfail", 0, True)
        assert manager.wals[0].fsync_fail
        engine.set_storage_fault("fsyncfail", 0, False)
        assert not manager.wals[0].fsync_fail
        manager.close()
