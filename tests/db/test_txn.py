"""Transactions and the lock manager."""

import pytest

from repro.db import Database, connect
from repro.db.errors import DeadlockError, LockTimeoutError, TransactionError
from repro.db.txn import LockManager, LockMode, Transaction


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "acct", [("id", "int", False), ("bal", "float")], primary_key=["id"]
    )
    conn = connect(database)
    conn.execute("INSERT INTO acct (id, bal) VALUES (1, 100.0)")
    conn.execute("INSERT INTO acct (id, bal) VALUES (2, 50.0)")
    return database


class TestLockModes:
    def test_shared_compatible_with_shared(self):
        assert LockMode.SHARED.compatible(LockMode.SHARED)

    def test_exclusive_incompatible(self):
        assert not LockMode.EXCLUSIVE.compatible(LockMode.SHARED)
        assert not LockMode.SHARED.compatible(LockMode.EXCLUSIVE)


class TestLockManager:
    def test_grant_and_introspect(self):
        lm = LockManager()
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.holders("r") == {1: LockMode.EXCLUSIVE}
        assert "r" in lm.held_by(1)

    def test_shared_locks_coexist(self):
        lm = LockManager()
        assert lm.acquire(1, "r", LockMode.SHARED)
        assert lm.acquire(2, "r", LockMode.SHARED)
        assert set(lm.holders("r")) == {1, 2}

    def test_exclusive_conflicts_queue(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.acquire(2, "r", LockMode.EXCLUSIVE) is False
        assert lm.waiting("r") == [(2, LockMode.EXCLUSIVE)]

    def test_reentrant(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.acquire(1, "r", LockMode.SHARED)  # X covers S

    def test_upgrade_when_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE)
        assert lm.holders("r") == {1: LockMode.EXCLUSIVE}

    def test_upgrade_blocked_by_other_shared_holder(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        lm.acquire(2, "r", LockMode.SHARED)
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE) is False

    def test_nowait_raises(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "r", LockMode.EXCLUSIVE, wait=False)

    def test_release_grants_fifo_waiter(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        lm.acquire(2, "r", LockMode.EXCLUSIVE)
        lm.acquire(3, "r", LockMode.EXCLUSIVE)
        grants = lm.release_all(1)
        assert grants == [(2, "r")]
        assert lm.holders("r") == {2: LockMode.EXCLUSIVE}
        assert lm.waiting("r") == [(3, LockMode.EXCLUSIVE)]

    def test_release_grants_shared_batch(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        lm.acquire(2, "r", LockMode.SHARED)
        lm.acquire(3, "r", LockMode.SHARED)
        grants = lm.release_all(1)
        assert {g[0] for g in grants} == {2, 3}

    def test_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "b", LockMode.EXCLUSIVE)
        assert lm.acquire(1, "b", LockMode.EXCLUSIVE) is False  # 1 waits on 2
        with pytest.raises(DeadlockError) as excinfo:
            lm.acquire(2, "a", LockMode.EXCLUSIVE)  # 2 waits on 1: cycle
        assert set(excinfo.value.cycle) >= {1, 2}

    def test_three_way_deadlock(self):
        lm = LockManager()
        for txn, resource in [(1, "a"), (2, "b"), (3, "c")]:
            lm.acquire(txn, resource, LockMode.EXCLUSIVE)
        assert lm.acquire(1, "b", LockMode.EXCLUSIVE) is False
        assert lm.acquire(2, "c", LockMode.EXCLUSIVE) is False
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", LockMode.EXCLUSIVE)

    def test_victim_can_retry_after_release(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "b", LockMode.EXCLUSIVE)
        lm.acquire(1, "b")
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a")
        # Victim 2 releases; 1 gets b and can finish.
        grants = lm.release_all(2)
        assert (1, "b") in grants

    def test_wait_for_edges_cleaned_on_release(self):
        lm = LockManager()
        lm.acquire(1, "r", LockMode.EXCLUSIVE)
        lm.acquire(2, "r", LockMode.EXCLUSIVE)
        lm.release_all(2)  # waiter gives up
        assert lm.wait_for_edges() == {}
        lm.release_all(1)
        assert lm.holders("r") == {}


class TestLockManagerRegressions:
    """Pin the two lock-manager bugs found during the MVCC audit."""

    def test_release_never_grants_back_to_released_txn(self):
        """release_all must purge the departing txn's queued requests
        *before* granting: 1 holds S with its own queued S->X upgrade;
        once the queue drains down to that upgrade, releasing 1 used to
        grant the lock back to the finished txn (leaked forever)."""
        lm = LockManager()
        callbacks = []
        lm.grant_callback = lambda t, r: callbacks.append((t, r))
        lm.acquire(1, "r", LockMode.SHARED)
        lm.acquire(2, "r", LockMode.SHARED)
        assert lm.acquire(3, "r", LockMode.EXCLUSIVE) is False
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE) is False  # upgrade
        lm.release_all(2)
        lm.release_all(3)  # waiter gives up
        seen_before_finish = len(callbacks)
        grants = lm.release_all(1)
        assert all(txn != 1 for txn, _ in grants)
        assert all(txn != 1 for txn, _ in callbacks[seen_before_finish:])
        assert 1 not in lm.holders("r")
        assert not lm.held_by(1)
        assert lm.waiting("r") == []

    def test_upgrade_waiter_has_priority_over_queued_exclusive(self):
        """An S->X upgrader queued behind another txn's X request used
        to stall forever: the head X can't be granted while the
        upgrader holds S, and the head blocked the scan."""
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        lm.acquire(2, "r", LockMode.SHARED)
        assert lm.acquire(3, "r", LockMode.EXCLUSIVE) is False
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE) is False  # upgrade
        grants = lm.release_all(2)
        assert grants == [(1, "r")]
        assert lm.holders("r") == {1: LockMode.EXCLUSIVE}
        assert lm.waiting("r") == [(3, LockMode.EXCLUSIVE)]
        # The stalled chain drains cleanly once the upgrader finishes.
        assert lm.release_all(1) == [(3, "r")]
        assert lm.holders("r") == {3: LockMode.EXCLUSIVE}

    def test_symmetric_upgraders_still_deadlock(self):
        """Two S holders both requesting X wait on each other; the
        second request must raise rather than queue."""
        lm = LockManager()
        lm.acquire(1, "r", LockMode.SHARED)
        lm.acquire(2, "r", LockMode.SHARED)
        assert lm.acquire(1, "r", LockMode.EXCLUSIVE) is False
        with pytest.raises(DeadlockError) as excinfo:
            lm.acquire(2, "r", LockMode.EXCLUSIVE)
        assert set(excinfo.value.cycle) >= {1, 2}
        # Victim aborts; the surviving upgrader gets its X.
        grants = lm.release_all(2)
        assert grants == [(1, "r")]
        assert lm.holders("r") == {1: LockMode.EXCLUSIVE}


class TestTransaction:
    def test_commit_clears_undo(self, db):
        txn = Transaction(db)
        _, undo = db.table("acct").insert((3, 1.0))
        txn.record_undo(undo)
        txn.commit()
        assert db.table("acct").lookup_pk((3,)) is not None

    def test_rollback_reverses_mutations(self, db):
        txn = Transaction(db)
        table = db.table("acct")
        _, undo = table.insert((3, 1.0))
        txn.record_undo(undo)
        rowid = table.lookup_pk((1,))
        txn.record_undo(table.update(rowid, {"bal": 0.0}))
        txn.rollback()
        assert table.lookup_pk((3,)) is None
        assert table.get(rowid) == (1, 100.0)

    def test_operations_after_commit_rejected(self, db):
        txn = Transaction(db)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.rollback()

    def test_context_manager_commits(self, db):
        with Transaction(db) as txn:
            _, undo = db.table("acct").insert((3, 1.0))
            txn.record_undo(undo)
        assert db.table("acct").lookup_pk((3,)) is not None

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(RuntimeError):
            with Transaction(db) as txn:
                _, undo = db.table("acct").insert((3, 1.0))
                txn.record_undo(undo)
                raise RuntimeError("boom")
        assert db.table("acct").lookup_pk((3,)) is None

    def test_locks_released_on_commit(self, db):
        lm = LockManager()
        txn = Transaction(db, lm)
        txn.lock_row("acct", 1)
        assert lm.held_by(txn.id)
        txn.commit()
        assert not lm.held_by(txn.id)

    def test_lock_conflict_without_wait_raises(self, db):
        lm = LockManager()
        txn1 = Transaction(db, lm)
        txn2 = Transaction(db, lm)
        txn1.lock_row("acct", 1)
        with pytest.raises(LockTimeoutError):
            txn2.lock_row("acct", 1)

    def test_shared_table_locks_coexist(self, db):
        lm = LockManager()
        txn1 = Transaction(db, lm)
        txn2 = Transaction(db, lm)
        txn1.lock_table("acct", exclusive=False)
        txn2.lock_table("acct", exclusive=False)
        txn1.commit()
        txn2.commit()


# ---------------------------------------------------------------------------
# Two-phase commit over shards
# ---------------------------------------------------------------------------


def _sharded_fixture(shards=2):
    from repro.db import ShardedDatabase, ShardingScheme, TableSharding

    scheme = ShardingScheme({"acct": TableSharding(("id",), "mod")})
    sdb = ShardedDatabase("bank", shards=shards, scheme=scheme)
    sdb.create_table(
        "acct", [("id", "int", False), ("bal", "float")], primary_key=["id"]
    )
    for i in range(6):
        sdb.insert("acct", (i, 100.0))
    managers = [LockManager() for _ in range(shards)]
    return sdb, managers


class TestTransactionPrepare:
    def test_prepare_freezes_new_work_but_allows_resolution(self, db):
        txn = Transaction(db)
        _, undo = db.table("acct").insert((3, 1.0))
        txn.record_undo(undo)
        txn.prepare()
        with pytest.raises(TransactionError):
            txn.record_undo(undo)
        txn.prepare()  # idempotent
        txn.rollback()
        assert db.table("acct").lookup_pk((3,)) is None

    def test_prepared_transaction_can_commit(self, db):
        txn = Transaction(db)
        txn.prepare()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.prepare()


class TestShardedTransaction:
    def test_cross_shard_abort_releases_all_shard_locks(self):
        from repro.db import ShardedTransaction

        sdb, managers = _sharded_fixture()
        txn = ShardedTransaction(sdb.shards, managers)
        txn.branch(0).lock_row("acct", 1)
        txn.branch(1).lock_row("acct", 2)
        assert managers[0].held_by(txn.branch(0).id)
        assert managers[1].held_by(txn.branch(1).id)
        branch_ids = [txn.branch(0).id, txn.branch(1).id]
        txn.rollback()
        for manager, branch_id in zip(managers, branch_ids):
            assert not manager.held_by(branch_id)
            assert not manager.wait_for_edges()

    def test_prepared_shard_blocks_conflicting_writers_only_there(self):
        from repro.db import ShardedTransaction

        sdb, managers = _sharded_fixture()
        txn = ShardedTransaction(sdb.shards, managers)
        txn.branch(0).lock_row("acct", 1)
        txn.prepare()
        # Conflicting writer on the prepared shard stays blocked.
        rival_same = Transaction(sdb.shards[0], managers[0],
                                 wait_for_locks=True)
        granted = managers[0].acquire(
            rival_same.id, ("row", "acct", 1), LockMode.EXCLUSIVE
        )
        assert not granted  # queued behind the prepared branch
        # A writer on the untouched shard proceeds immediately.
        rival_other = Transaction(sdb.shards[1], managers[1])
        rival_other.lock_row("acct", 2)
        rival_other.commit()
        # Resolution unblocks the queued rival.
        txn.commit()
        holders = managers[0].holders(("row", "acct", 1))
        assert holders == {rival_same.id: LockMode.EXCLUSIVE}

    def test_single_shard_commit_is_one_phase(self):
        from repro.db import ShardedTransaction
        from repro.sim.clock import VirtualClock

        sdb, managers = _sharded_fixture()
        clock = VirtualClock()
        txn = ShardedTransaction(
            sdb.shards, managers, clock=clock, one_way_latency=0.001
        )
        branch = txn.branch(0)
        _, undo = sdb.shards[0].table("acct").insert((10, 5.0))
        branch.record_undo(undo)
        txn.commit()
        assert clock.now == 0.0  # no prepare round for one participant
        assert any("1pc" in event for _, _, event in txn.timeline)
        assert all(
            phase in ("begin", "prepare", "commit", "rollback", "recovery")
            for _, phase, _ in txn.timeline
        )

    def test_cross_shard_commit_costs_two_round_trips(self):
        from repro.db import ShardedTransaction
        from repro.sim.clock import VirtualClock

        sdb, managers = _sharded_fixture()
        clock = VirtualClock()
        txn = ShardedTransaction(
            sdb.shards, managers, clock=clock, one_way_latency=0.001
        )
        txn.branch(0).lock_row("acct", 0)
        txn.branch(1).lock_row("acct", 1)
        txn.commit()
        assert abs(clock.now - 0.004) < 1e-12  # prepare + commit rounds
        events = [event for _, _, event in txn.timeline]
        assert "prepare sent" in events and "commit sent" in events
        prepared = [e for e in events if e.startswith("prepared shard")]
        committed = [e for e in events if e.startswith("committed shard")]
        assert len(prepared) == len(committed) == 2
        # Phase 1 strictly precedes phase 2.
        assert events.index("commit sent") > max(
            events.index(e) for e in prepared
        )
        # Every event carries its protocol phase label.
        phases = [phase for _, phase, _ in txn.timeline]
        assert phases.count("prepare") == 3  # sent + 2 votes
        assert phases.count("commit") == 3  # sent + 2 acks

    def test_cross_shard_rollback_undoes_every_branch(self):
        from repro.db import ShardedTransaction, connect_sharded

        sdb, managers = _sharded_fixture()
        conn = connect_sharded(sdb, sql_exec="compiled")
        before = sdb.logical_rows("acct")
        txn = conn.begin()
        conn.execute("UPDATE acct SET bal = bal + ? WHERE id = ?", 1.0, 0)
        conn.execute("UPDATE acct SET bal = bal + ? WHERE id = ?", 1.0, 1)
        conn.execute("INSERT INTO acct (id, bal) VALUES (?, ?)", 11, 1.0)
        assert len(txn.touched_shards()) == 2
        assert txn.undo_depth == 3
        conn.rollback()
        assert sdb.logical_rows("acct") == before

    def test_resolved_transaction_rejects_new_branches(self):
        from repro.db import ShardedTransaction

        sdb, managers = _sharded_fixture()
        txn = ShardedTransaction(sdb.shards, managers)
        txn.branch(0)
        txn.commit()
        with pytest.raises(TransactionError):
            txn.branch(1)
        with pytest.raises(TransactionError):
            txn.commit()


class TestShardConfigurationFailFast:
    def test_zero_shards_rejected(self):
        from repro.db import ShardedDatabase, ShardError

        with pytest.raises(ShardError):
            ShardedDatabase("bad", shards=0)

    def test_unknown_shard_key_column_rejected(self):
        from repro.db import ShardedDatabase, ShardError, ShardingScheme

        sdb = ShardedDatabase(
            "bad", shards=2,
            scheme=ShardingScheme({"acct": ("missing",)}),
        )
        with pytest.raises(ShardError, match="missing"):
            sdb.create_table(
                "acct", [("id", "int", False)], primary_key=["id"]
            )

    def test_shard_key_outside_primary_key_rejected(self):
        from repro.db import ShardedDatabase, ShardError, ShardingScheme

        sdb = ShardedDatabase(
            "bad", shards=2,
            scheme=ShardingScheme({"acct": ("bal",)}),
        )
        with pytest.raises(ShardError, match="primary key"):
            sdb.create_table(
                "acct", [("id", "int", False), ("bal", "float")],
                primary_key=["id"],
            )

    def test_updating_shard_key_rejected_at_prepare(self):
        from repro.db import ShardRoutingError, connect_sharded

        sdb, _ = _sharded_fixture()
        conn = connect_sharded(sdb)
        with pytest.raises(ShardRoutingError, match="shard key"):
            conn.prepare("UPDATE acct SET id = id + 1 WHERE bal > 0")

    def test_unroutable_cross_shard_join_rejected(self):
        from repro.db import (
            ShardRoutingError,
            ShardedDatabase,
            ShardingScheme,
            connect_sharded,
        )

        scheme = ShardingScheme({"a": ("id",), "b": ("id",)})
        sdb = ShardedDatabase("bad", shards=2, scheme=scheme)
        sdb.create_table("a", [("id", "int", False)], primary_key=["id"])
        sdb.create_table("b", [("id", "int", False)], primary_key=["id"])
        conn = connect_sharded(sdb)
        # Names the sharded tables and the shard-key columns no
        # equality predicate binds.
        with pytest.raises(
            ShardRoutingError,
            match=r"\['a', 'b'\].*\{'a': \['id'\], 'b': \['id'\]\}",
        ):
            conn.prepare(
                "SELECT a.id FROM a a JOIN b b ON a.id < b.id"
            )
        # One keyed, one not: only the unbound table is reported.
        with pytest.raises(ShardRoutingError, match=r"\{'b': \['id'\]\}"):
            conn.prepare(
                "SELECT a.id FROM a a JOIN b b ON a.id < b.id "
                "WHERE a.id = ?"
            )

    def test_unknown_strategy_rejected(self):
        from repro.db import ShardError, TableSharding

        with pytest.raises(ShardError, match="strategy"):
            TableSharding(("id",), "roundrobin")


class TestShardRoutingRegressions:
    def test_numerically_equal_keys_route_to_one_shard(self):
        """1, 1.0 and True are the same key to the engine, so the
        router must send them to the same shard (repr-hash would not)."""
        from repro.db import (
            ShardedDatabase,
            ShardingScheme,
            TableSharding,
            connect_sharded,
        )

        for strategy in ("hash", "mod"):
            scheme = ShardingScheme(
                {"kv": TableSharding(("k",), strategy)}
            )
            sdb = ShardedDatabase("t", shards=3, scheme=scheme)
            sdb.create_table(
                "kv", [("k", "int", False), ("v", "int")],
                primary_key=["k"],
            )
            conn = connect_sharded(sdb)
            conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 1, 10)
            assert conn.query_scalar(
                "SELECT v FROM kv WHERE k = ?", 1.0
            ) == 10, strategy
            assert conn.query_scalar(
                "SELECT v FROM kv WHERE k = ?", True
            ) == 10, strategy

    def test_failed_autocommit_statement_releases_locks(self):
        """A failed autocommit statement rolls its implicit transaction
        back on both deployments -- no stranded locks, no abandoned
        cross-shard undo."""
        from repro.db import (
            Database,
            ShardedDatabase,
            ShardingScheme,
            connect,
            connect_sharded,
        )
        from repro.db.errors import IntegrityError

        scheme = ShardingScheme({"kv": ("k",)})
        sdb = ShardedDatabase("t", shards=2, scheme=scheme)
        sdb.create_table(
            "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
        )
        sharded_conn = connect_sharded(sdb, use_locks=True)
        single_db = Database("s")
        single_db.create_table(
            "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
        )
        single_conn = connect(single_db, use_locks=True)
        for conn in (sharded_conn, single_conn):
            conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 1, 1)
            with pytest.raises(IntegrityError):
                conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 1, 2)
            # The table lock of the failed statement must be gone.
            assert conn.execute(
                "INSERT INTO kv (k, v) VALUES (?, ?)", 2, 2
            ) == 1
