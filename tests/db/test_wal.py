"""Unit tests for the WAL tier: frame codec, ShardWal, CoordinatorLog.

Covers the frame format invariants (length-prefix, CRC, monotone
LSNs), torn-tail vs corrupt-frame classification, both sync policies,
fsync-fault behavior, checkpoint/truncation mechanics, reopen
semantics and the storage-fault injection hooks.
"""

import json
import operator
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.db import (
    ShardedDatabase,
    ShardingScheme,
    ShardWal,
    TableSharding,
    WalManager,
    attach_wal,
    connect_sharded,
)
from repro.db import wal as wal_module
from repro.db.engine import Database, RowidAllocator
from repro.db.errors import IntegrityError, WalCorruptionError, WalError
from repro.db.recovery import recover_sharded
from repro.db.replica import RedoOp
from repro.db.wal import (
    FRAME_HEADER,
    CoordinatorLog,
    decode_ops,
    encode_ops,
    read_meta,
    scan_wal,
)


def ops(*rows):
    """Insert RedoOps for kv rows ``(rowid, k, v)``."""
    return [
        RedoOp("kv", "insert", rowid, (k, v)) for rowid, k, v in rows
    ]


def as_tuples(batch):
    """RedoOp is slotted with no __eq__; compare by field tuples."""
    return [(op.table, op.kind, op.rowid, op.after) for op in batch]


def make_wal(tmp_path, **kwargs) -> ShardWal:
    return ShardWal(tmp_path / "shard0.wal", **kwargs)


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    def test_commit_frames_round_trip(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 10, 100)))
        wal.commit_ops(
            [RedoOp("kv", "delete", 1, None),
             RedoOp("kv", "update", 2, (20, 999))]
        )
        wal.close()
        scan = scan_wal(wal.path)
        assert [f.lsn for f in scan.frames] == [1, 2]
        assert [f.kind for f in scan.frames] == ["commit", "commit"]
        assert not scan.torn
        first = decode_ops(scan.frames[0].record["ops"])
        assert as_tuples(first) == [("kv", "insert", 1, (10, 100))]
        second = decode_ops(scan.frames[1].record["ops"])
        assert as_tuples(second) == [
            ("kv", "delete", 1, None), ("kv", "update", 2, (20, 999))
        ]

    def test_encode_decode_ops_round_trip(self):
        batch = [
            RedoOp("t", "insert", 7, (1, None, "x")),
            RedoOp("t", "delete", 7, None),
        ]
        assert as_tuples(decode_ops(encode_ops(batch))) == as_tuples(batch)

    def test_scan_missing_file_is_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "nope.wal")
        assert scan.frames == [] and not scan.torn

    def test_non_monotone_lsn_is_corruption(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.close()
        # Duplicate the (single) frame: second copy repeats LSN 1.
        data = wal.path.read_bytes()
        wal.path.write_bytes(data + data)
        with pytest.raises(WalCorruptionError) as err:
            scan_wal(wal.path)
        assert "LSN not monotone" in str(err.value)

    def test_garbage_header_is_corruption(self, tmp_path):
        path = tmp_path / "shard0.wal"
        path.write_bytes(b"\xff" * (FRAME_HEADER.size + 4))
        with pytest.raises(WalCorruptionError) as err:
            scan_wal(path)
        assert "unreadable frame header" in str(err.value)


# ---------------------------------------------------------------------------
# Torn tails vs corrupt frames
# ---------------------------------------------------------------------------


class TestTornAndCorrupt:
    def test_torn_payload_stops_scan_at_last_complete_frame(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.inject_torn_write()
        wal.close()
        scan = scan_wal(wal.path)
        assert scan.torn
        assert [f.lsn for f in scan.frames] == [1]
        assert scan.valid_end < wal.path.stat().st_size

    def test_torn_header_counts_as_torn(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.close()
        with open(wal.path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # partial header
        scan = scan_wal(wal.path)
        assert scan.torn and len(scan.frames) == 1

    def test_reopen_truncates_torn_tail_and_resumes(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.inject_torn_write()
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.tip == 1
        reopened.commit_ops(ops((2, 2, 2)))
        reopened.close()
        scan = scan_wal(reopened.path)
        assert not scan.torn
        assert [f.lsn for f in scan.frames] == [1, 2]

    def test_corrupt_frame_raises_with_lsn_quoted(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.commit_ops(ops((2, 2, 2)))
        corrupted = wal.inject_corruption(lsn=2)
        wal.close()
        assert corrupted == 2
        with pytest.raises(WalCorruptionError) as err:
            scan_wal(wal.path)
        message = str(err.value)
        assert "LSN 2" in message and str(wal.path) in message

    def test_skip_below_ignores_damage_in_covered_commits(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.commit_ops(ops((2, 2, 2)))
        wal.inject_corruption(lsn=1)
        wal.close()
        scan = scan_wal(wal.path, skip_below=1)
        assert scan.frames[0].record is None  # skipped, not validated
        assert scan.frames[1].record is not None

    def test_skip_below_still_validates_prepare_frames(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.log_prepare("e1-t1", ops((1, 1, 1)))
        wal.sync()
        corrupted = wal.inject_corruption(lsn=1)
        wal.close()
        assert corrupted == 1
        # A checkpoint cannot cover a pending prepare: always decoded.
        with pytest.raises(WalCorruptionError):
            scan_wal(wal.path, skip_below=5)


# ---------------------------------------------------------------------------
# Sync policies and fsync faults
# ---------------------------------------------------------------------------


class TestDurability:
    def test_commit_policy_syncs_every_commit(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="commit")
        wal.commit_ops(ops((1, 1, 1)))
        wal.commit_ops(ops((2, 2, 2)))
        assert wal.durable_lsn == wal.tip == 2
        assert wal.stats.syncs == 2
        wal.close()

    def test_group_policy_buffers_until_sync(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="group")
        wal.commit_ops(ops((1, 1, 1)))
        wal.commit_ops(ops((2, 2, 2)))
        assert wal.durable_lsn == 0 and wal.tip == 2
        assert wal.sync()
        assert wal.durable_lsn == 2
        assert wal.stats.syncs == 1  # one fsync for the batch
        assert wal.sync()  # nothing pending: no extra fsync
        assert wal.stats.syncs == 1
        wal.close()

    def test_unknown_sync_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            make_wal(tmp_path, sync_policy="paranoid")

    def test_fsync_fail_freezes_durable_horizon(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="group")
        wal.commit_ops(ops((1, 1, 1)))
        wal.fsync_fail = True
        assert not wal.sync()
        assert wal.stats.sync_failures == 1
        assert wal.durable_lsn == 0
        wal.fsync_fail = False
        assert wal.sync()
        assert wal.durable_lsn == 1
        wal.close()

    def test_drop_unsynced_reverts_to_durable_prefix(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="group")
        wal.commit_ops(ops((1, 1, 1)))
        wal.sync()
        wal.commit_ops(ops((2, 2, 2)))
        wal.commit_ops(ops((3, 3, 3)))
        wal.drop_unsynced()  # machine crash: buffered frames vanish
        assert wal.tip == 1
        wal.close()
        scan = scan_wal(wal.path)
        assert [f.lsn for f in scan.frames] == [1]

    def test_drop_unsynced_forgets_undurable_prepares(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="group")
        wal.log_prepare("e1-t1", ops((1, 1, 1)))
        wal.sync()
        wal.log_prepare("e1-t2", ops((2, 2, 2)))
        wal.drop_unsynced()
        assert wal.pending_prepares() == {"e1-t1": 1}
        wal.close()


# ---------------------------------------------------------------------------
# Checkpoints and truncation
# ---------------------------------------------------------------------------


def make_kv_database(rows) -> Database:
    db = Database("ckpt")
    db.create_table(
        "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
    )
    table = db.table("kv")
    for k, v in rows:
        table.insert((k, v))
    return db


class TestCheckpoints:
    def test_checkpoint_truncates_covered_frames(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.commit_ops(ops((2, 2, 2)))
        lsn = wal.write_checkpoint(make_kv_database([(1, 1), (2, 2)]))
        assert lsn == 2
        assert wal.stats.checkpoints == 1
        assert wal.stats.truncated_frames == 2
        assert scan_wal(wal.path).frames == []
        ckpt = wal.read_checkpoint()
        assert ckpt["lsn"] == 2
        (spec,) = [t for t in ckpt["tables"] if t["name"] == "kv"]
        assert [row for _, row in spec["rows"]] == [[1, 1], [2, 2]]
        wal.close()

    def test_checkpoint_without_truncation_keeps_frames(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        lsn = wal.write_checkpoint(
            make_kv_database([(1, 1)]), truncate=False
        )
        assert lsn == 1
        assert [f.lsn for f in scan_wal(wal.path).frames] == [1]
        wal.close()

    def test_truncate_below_keeps_pending_prepares(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.log_prepare("e1-t9", ops((2, 2, 2)))
        wal.sync()
        wal.commit_ops(ops((3, 3, 3)))
        dropped = wal.truncate_below(3)
        assert dropped == 2  # commits 1 and 3; the prepare survives
        scan = scan_wal(wal.path)
        assert [(f.lsn, f.kind) for f in scan.frames] == [(2, "prepare")]
        wal.close()

    def test_checkpoint_refused_when_log_not_durable(self, tmp_path):
        wal = make_wal(tmp_path, sync_policy="group")
        wal.commit_ops(ops((1, 1, 1)))
        wal.fsync_fail = True
        assert wal.write_checkpoint(make_kv_database([(1, 1)])) is None
        assert wal.read_checkpoint() is None
        wal.close()

    def test_stale_checkpoint_tmp_is_ignored(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.write_checkpoint(make_kv_database([(1, 1)]))
        # Crash mid-checkpoint: a half-written temp file is left over.
        tmp = wal.checkpoint_path.with_suffix(".ckpt.tmp")
        tmp.write_text('{"lsn": 99, "tab', encoding="utf-8")
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.read_checkpoint()["lsn"] == 1
        reopened.close()


# ---------------------------------------------------------------------------
# Reopen semantics
# ---------------------------------------------------------------------------


class TestReopen:
    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.commit_ops(ops((2, 2, 2))) == 2
        reopened.close()

    def test_reopen_after_checkpoint_resumes_past_its_lsn(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.write_checkpoint(make_kv_database([(1, 1)]))  # empties the log
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.tip == 1  # from the checkpoint, not the frames
        assert reopened.commit_ops(ops((2, 2, 2))) == 2
        reopened.close()

    def test_reopen_restores_pending_prepares(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.log_prepare("e1-t1", ops((1, 1, 1)))
        wal.log_prepare("e1-t2", ops((2, 2, 2)))
        wal.sync()
        wal.mark_resolving("e1-t1")
        wal.commit_ops([])  # resolve for t1
        wal.close()
        reopened = make_wal(tmp_path)
        assert reopened.pending_prepares() == {"e1-t2": 2}
        reopened.close()

    def test_abort_prepare_forgets_without_rewriting(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.log_prepare("e1-t1", ops((1, 1, 1)))
        wal.sync()
        wal.abort_prepare("e1-t1")
        assert wal.pending_prepares() == {}
        # The frame itself stays (appends are immutable) ...
        assert [f.kind for f in scan_wal(wal.path).frames] == ["prepare"]
        # ... but truncation no longer protects it.
        wal.truncate_below(1)
        assert scan_wal(wal.path).frames == []
        wal.close()


# ---------------------------------------------------------------------------
# Coordinator decision log
# ---------------------------------------------------------------------------


class TestCoordinatorLog:
    def test_decisions_survive_reopen(self, tmp_path):
        log = CoordinatorLog(tmp_path / "coord.wal")
        assert log.log_commit("e1-t1", [0, 2])
        log.close()
        reopened = CoordinatorLog(tmp_path / "coord.wal")
        assert reopened.committed("e1-t1")
        assert not reopened.committed("e1-t2")
        assert reopened.decisions["e1-t1"] == [0, 2]
        reopened.close()

    def test_failed_force_leaves_no_durable_decision(self, tmp_path):
        log = CoordinatorLog(tmp_path / "coord.wal")
        log.fsync_fail = True
        assert not log.log_commit("e1-t1", [0, 1])
        assert not log.committed("e1-t1")
        log.fsync_fail = False
        assert log.log_commit("e1-t2", [0, 1])
        log.close()
        reopened = CoordinatorLog(tmp_path / "coord.wal")
        assert list(reopened.decisions) == ["e1-t2"]
        reopened.close()

    def test_shard_frame_in_coordinator_log_is_corruption(self, tmp_path):
        wal = make_wal(tmp_path)
        wal.commit_ops(ops((1, 1, 1)))
        wal.close()
        with pytest.raises(WalCorruptionError) as err:
            CoordinatorLog(tmp_path / "shard0.wal")
        assert "coordinator log" in str(err.value)


# ---------------------------------------------------------------------------
# WalManager + attach_wal
# ---------------------------------------------------------------------------


class TestWalManager:
    def test_needs_at_least_one_shard(self, tmp_path):
        with pytest.raises(WalError):
            WalManager(tmp_path, shards=0)

    def test_checkpoint_shape_mismatch_rejected(self, tmp_path):
        manager = WalManager(tmp_path, shards=2)
        with pytest.raises(WalError):
            manager.checkpoint([make_kv_database([])])
        manager.close()

    def test_attach_bumps_epoch_and_namespaces_gtids(self, tmp_path):
        db = make_kv_database([(1, 10)])
        manager = attach_wal(db, tmp_path)
        assert manager.epoch == 1
        assert manager.next_gtid() == "e1-t1"
        manager.close()
        again = attach_wal(db, tmp_path)
        assert again.epoch == 2
        assert again.next_gtid() == "e2-t1"
        assert read_meta(tmp_path)["epoch"] == 2
        again.close()

    def test_attach_writes_bootstrap_checkpoint(self, tmp_path):
        db = make_kv_database([(1, 10), (2, 20)])
        manager = attach_wal(db, tmp_path)
        ckpt = manager.wals[0].read_checkpoint()
        (spec,) = [t for t in ckpt["tables"] if t["name"] == "kv"]
        assert len(spec["rows"]) == 2
        assert read_meta(tmp_path)["single"] is True
        manager.close()

    def test_meta_file_is_valid_json(self, tmp_path):
        db = make_kv_database([])
        manager = attach_wal(db, tmp_path)
        manager.close()
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["shards"] == 1 and meta["replicas"] == 0


# ---------------------------------------------------------------------------
# Checkpoint bytes under the chunk cache
# ---------------------------------------------------------------------------


def full_snapshot_bytes(database: Database, lsn: int) -> bytes:
    """One ``json.dumps`` of the whole snapshot dict: how every
    checkpoint was written before row chunks were cached, and what each
    checkpoint file must still equal byte for byte."""
    tables = []
    for table in database.tables():
        schema = table.schema
        allocator = table._next_rowid
        table.ensure_scan_order()
        tables.append({
            "name": schema.name,
            "columns": [
                [c.name, c.type.value, c.nullable] for c in schema.columns
            ],
            "primary_key": list(schema.primary_key),
            "indexes": [
                [s.name, list(s.columns), s.unique, s.ordered]
                for s in table._index_specs.values()
            ],
            "next_rowid": (
                allocator.peek()
                if isinstance(allocator, RowidAllocator) else None
            ),
            "rows": list(table.row_store.items()),
        })
    snapshot = {"lsn": lsn, "name": database.name, "tables": tables}
    return json.dumps(snapshot, separators=(",", ":")).encode("utf-8")


KV_COLUMNS = [("k", "int", False), ("v", "float"), ("s", "text")]
TAG_COLUMNS = [("id", "int", False), ("label", "text")]
_floats = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, 1e16, 0.1, 2.5]), st.none()
)
_texts = st.one_of(st.text(max_size=4), st.none())


class CheckpointMachine(RuleBasedStateMachine):
    """Random committed / rolled-back writes, truncation, drop and
    re-create, reopen and promotion, interleaved with checkpoints of a
    replicated one-shard tier under a 3-row chunk: every checkpoint file
    equals ``json.dumps`` of the full snapshot."""

    def __init__(self) -> None:
        super().__init__()
        self.chunk_rows = wal_module.CHECKPOINT_CHUNK_ROWS
        wal_module.CHECKPOINT_CHUNK_ROWS = 3
        self.directory = Path(tempfile.mkdtemp(prefix="ckpt-machine-"))
        self.sdb = ShardedDatabase(
            "ck", shards=1, replicas=2,
            scheme=ShardingScheme({"kv": TableSharding(("k",), "mod")}),
        )
        self.sdb.create_table("kv", KV_COLUMNS, primary_key=["k"])
        self.sdb.create_table("tag", TAG_COLUMNS, primary_key=["id"])
        self.manager = None
        self.conn = connect_sharded(self.sdb)
        self.open_wal()

    def teardown(self) -> None:
        self.manager.close()
        wal_module.CHECKPOINT_CHUNK_ROWS = self.chunk_rows
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers -------------------------------------------------------------

    def open_wal(self) -> None:
        """Attach (or re-attach) the logs: fresh ShardWals, empty chunk
        caches, and a bootstrap checkpoint to compare."""
        if self.manager is not None:
            self.manager.close()
        self.manager = attach_wal(self.sdb, self.directory, sync_policy="group")
        self.check_checkpoint(self.manager.wals[0].tip)

    def check_checkpoint(self, lsn) -> None:
        wal = self.manager.wals[0]
        primary = self.sdb.shards[0]
        assert wal.checkpoint_path.read_bytes() == full_snapshot_bytes(
            primary, lsn
        )
        # Dropped tables leave the cache with their checkpoint.
        assert set(wal._chunks) == {
            t.schema.name.lower() for t in primary.tables()
        }

    def copies(self):
        group = self.sdb.groups[0]
        return [group.primary] + [r.database for r in group.replicas]

    def run(self, sql, *params) -> None:
        try:
            self.conn.execute(sql, *params)
        except IntegrityError:
            pass

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: not self.conn.in_transaction)
    @rule()
    def begin(self):
        self.conn.begin()

    @precondition(lambda self: self.conn.in_transaction)
    @rule(commit=st.booleans())
    def finish(self, commit):
        if commit:
            self.conn.commit()
        else:
            self.conn.rollback()

    @rule(k=st.integers(0, 12), v=_floats, s=_texts)
    def insert(self, k, v, s):
        self.run("INSERT INTO kv (k, v, s) VALUES (?, ?, ?)", k, v, s)

    @rule(k=st.integers(0, 12), v=_floats)
    def update(self, k, v):
        self.run("UPDATE kv SET v = ? WHERE k = ?", v, k)

    @rule(k=st.integers(0, 12))
    def negate(self, k):
        """0.0 -> -0.0: an equal row that encodes differently."""
        self.run("UPDATE kv SET v = -v WHERE k = ?", k)

    @rule(k=st.integers(0, 12))
    def rewrite_unchanged(self, k):
        """A new row tuple with equal values: identity moves, bytes
        do not."""
        self.run("UPDATE kv SET s = s WHERE k = ?", k)

    @rule(k=st.integers(0, 12))
    def delete(self, k):
        self.run("DELETE FROM kv WHERE k = ?", k)

    @precondition(lambda self: not self.conn.in_transaction)
    @rule(k=st.integers(0, 12))
    def delete_rolled_back(self, k):
        """A delete-undo below the tail: rollback defers the reorder and
        ensure_scan_order rebuilds the row store."""
        self.conn.begin()
        self.run("DELETE FROM kv WHERE k = ?", k)
        self.run("INSERT INTO kv (k, v, s) VALUES (?, ?, ?)", 99, 1.0, "t")
        self.conn.rollback()

    @precondition(lambda self: not self.conn.in_transaction)
    @rule()
    def truncate(self):
        for database in self.copies():
            database.table("kv").truncate()

    @precondition(lambda self: not self.conn.in_transaction)
    @rule(labels=st.lists(_texts, max_size=5))
    def recreate_tag(self, labels):
        if self.sdb.has_table("tag"):
            self.sdb.drop_table("tag")
        self.sdb.create_table("tag", TAG_COLUMNS, primary_key=["id"])
        # Prepared plans bind the dropped table's objects.
        self.conn = connect_sharded(self.sdb)
        for index, label in enumerate(labels):
            self.run("INSERT INTO tag (id, label) VALUES (?, ?)", index, label)

    @precondition(
        lambda self: not self.conn.in_transaction
        and self.sdb.has_table("tag")
    )
    @rule()
    def drop_tag(self):
        self.sdb.drop_table("tag")
        self.conn = connect_sharded(self.sdb)

    @invariant()
    def checkpoint(self):
        """Checkpoint after every step, so each change meets a cache
        filled by the state just before it."""
        (lsn,) = self.manager.checkpoint(self.sdb.shards)
        self.check_checkpoint(lsn)

    @precondition(lambda self: not self.conn.in_transaction)
    @rule()
    def reopen(self):
        self.open_wal()

    @precondition(
        lambda self: not self.conn.in_transaction
        and self.sdb.groups[0].replicas
    )
    @rule()
    def promote(self):
        self.sdb.crash_primary(0)
        self.sdb.promote(0)


TestCheckpointMachine = CheckpointMachine.TestCase
TestCheckpointMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


class TestChunkCache:
    def test_unchanged_chunks_are_reused_and_changed_ones_re_encoded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(wal_module, "CHECKPOINT_CHUNK_ROWS", 2)
        db = make_kv_database([(k, k) for k in range(7)])
        wal = make_wal(tmp_path)
        wal.write_checkpoint(db)
        first = list(wal._chunks["kv"])
        assert [len(ids) for ids, _, _ in first] == [2, 2, 2, 1]
        wal.write_checkpoint(db)
        assert all(map(operator.is_, wal._chunks["kv"], first))
        db.table("kv").update(3, {"v": 30})  # rowid 3: the second chunk
        wal.write_checkpoint(db)
        again = wal._chunks["kv"]
        assert [a is b for a, b in zip(again, first)] == [
            True, False, True, True
        ]
        assert wal.checkpoint_path.read_bytes() == full_snapshot_bytes(db, 0)
        wal.close()

    def test_equal_rows_that_encode_differently_are_re_encoded(
        self, tmp_path
    ):
        """Reuse is decided by identity, not equality: 0.0 == -0.0."""
        db = Database("zeros")
        table = db.create_table("z", KV_COLUMNS, primary_key=["k"])
        table.insert((1, 0.0, "a"))
        wal = make_wal(tmp_path)
        wal.write_checkpoint(db)
        table.update(1, {"v": -0.0})
        wal.write_checkpoint(db)
        assert b"-0.0" in wal.checkpoint_path.read_bytes()
        assert wal.checkpoint_path.read_bytes() == full_snapshot_bytes(db, 0)
        wal.close()

    def test_recovered_and_replica_applied_rows_are_tuples(self, tmp_path):
        """The identity check is sound only for immutable rows: every
        path that installs rows without the engine's insert -- replica
        apply, checkpoint load and redo replay in recovery -- stores
        tuples."""
        sdb = ShardedDatabase(
            "tup", shards=2, replicas=1,
            scheme=ShardingScheme({"kv": TableSharding(("k",), "mod")}),
        )
        sdb.create_table("kv", KV_COLUMNS, primary_key=["k"])
        manager = attach_wal(sdb, tmp_path, sync_policy="commit")
        conn = connect_sharded(sdb)
        for k in range(6):
            conn.execute(
                "INSERT INTO kv (k, v, s) VALUES (?, ?, ?)", k, k / 2, "x"
            )
        manager.checkpoint(sdb.shards)
        conn.execute("UPDATE kv SET v = ? WHERE k = ?", 9.5, 1)
        conn.execute("INSERT INTO kv (k, v, s) VALUES (?, ?, ?)", 7, 0.0, "y")
        recovered, _ = recover_sharded(tmp_path)
        manager.close()
        replicas = [g.replicas[0].database for g in sdb.groups]
        for database in [*replicas, *recovered.shards]:
            rows = list(database.table("kv").scan())
            assert rows and all(type(row) is tuple for _, row in rows)
        assert recovered.logical_rows("kv") == sdb.logical_rows("kv")
