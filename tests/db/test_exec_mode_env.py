"""Fail-fast resolution of the executor-selection environment variables.

``REPRO_INTERP`` (block runtime) and ``REPRO_SQL_EXEC`` (SQL executor)
must reject unknown values with the allowed choices in the error --
never silently fall back to a default.  What the defaults are, and that
they run every workload like the tree oracle, is pinned in
``tests/test_interp_equivalence.py``.
"""

import pytest

from repro.db import Database, connect
from repro.db.errors import ExecutionError
from repro.db.sql.compile_plan import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    SQL_EXEC_MODES,
    resolve_sql_exec_mode,
)
from repro.runtime.interpreter import (
    INTERP_ENV_VAR,
    INTERP_MODES,
    RuntimeError_,
    resolve_interp_mode,
)


class TestSqlExecMode:
    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, "")
        assert resolve_sql_exec_mode() == DEFAULT_SQL_EXEC

    @pytest.mark.parametrize("mode", SQL_EXEC_MODES)
    def test_valid_env_values(self, monkeypatch, mode):
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, mode)
        assert resolve_sql_exec_mode() == mode

    def test_env_value_normalized(self, monkeypatch):
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, "  Tree \n")
        assert resolve_sql_exec_mode() == "tree"

    @pytest.mark.parametrize("bad", ["fast", "interp", "COMPILED2", "no"])
    def test_unknown_env_value_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, bad)
        with pytest.raises(ExecutionError) as err:
            resolve_sql_exec_mode()
        # The error names every allowed choice.
        for mode in SQL_EXEC_MODES:
            assert mode in str(err.value)

    def test_unknown_argument_fails_fast(self):
        with pytest.raises(ExecutionError):
            resolve_sql_exec_mode("turbo")

    def test_connection_rejects_unknown_mode(self):
        db = Database("t")
        db.create_table("x", [("id", "int", False)], primary_key=["id"])
        with pytest.raises(ExecutionError):
            connect(db, sql_exec="turbo")

    def test_connection_reads_env_at_construction(self, monkeypatch):
        db = Database("t")
        db.create_table("x", [("id", "int", False)], primary_key=["id"])
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, "tree")
        assert connect(db).sql_exec == "tree"
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, "definitely-not-a-mode")
        with pytest.raises(ExecutionError):
            connect(db)


class TestModeKeyedPlanCache:
    """The LRU plan cache is keyed on (executor mode, sql): flipping
    ``REPRO_SQL_EXEC`` between connections (or on a live connection)
    must never serve an executor minted for a different rung."""

    def _db(self):
        db = Database("t")
        db.create_table("x", [("id", "int", False), ("v", "int")],
                        primary_key=["id"])
        conn = connect(db)
        conn.execute("INSERT INTO x (id, v) VALUES (?, ?)", 1, 10)
        return db

    def test_mode_flip_does_not_reuse_other_rungs_plan(self):
        from repro.db.sql.codegen_plan import SourcePlan
        from repro.db.sql.compile_plan import CompiledPlan

        db = self._db()
        sql = "SELECT v FROM x WHERE id = ?"
        conn = connect(db, sql_exec="compiled")
        compiled_stmt = conn.prepare(sql)
        assert isinstance(compiled_stmt.compiled, CompiledPlan)
        # Same connection object, different rung: the cached entry for
        # the compiled rung must not be served.
        conn.sql_exec = "source"
        source_stmt = conn.prepare(sql)
        assert source_stmt is not compiled_stmt
        assert isinstance(source_stmt.compiled, SourcePlan)
        conn.sql_exec = "tree"
        tree_stmt = conn.prepare(sql)
        assert tree_stmt is not compiled_stmt
        assert tree_stmt is not source_stmt
        assert tree_stmt.compiled is None
        # Flipping back serves the original cached entries.
        conn.sql_exec = "compiled"
        assert conn.prepare(sql) is compiled_stmt
        conn.sql_exec = "source"
        assert conn.prepare(sql) is source_stmt

    def test_env_flip_between_connections(self, monkeypatch):
        from repro.db.sql.codegen_plan import SourcePlan

        db = self._db()
        sql = "SELECT v FROM x WHERE id = ?"
        for mode, expect in (
            ("compiled", lambda c: c is not None
             and not isinstance(c, SourcePlan)),
            ("source", lambda c: isinstance(c, SourcePlan)),
            ("tree", lambda c: c is None),
        ):
            monkeypatch.setenv(SQL_EXEC_ENV_VAR, mode)
            conn = connect(db)
            assert conn.sql_exec == mode
            assert expect(conn.prepare(sql).compiled), mode
            assert conn.query_scalar(sql.replace("?", "1")) == 10

    def test_source_plans_counter(self):
        db = self._db()
        conn = connect(db, sql_exec="source")
        stats = conn.plan_cache_stats
        stats.reset()
        conn.prepare("SELECT v FROM x WHERE id = ?")
        assert stats.source_plans == 1
        # Source plans count toward compiled_plans too (both are
        # non-tree rungs; serve-layer reports fold them together).
        assert stats.compiled_plans == 1


class TestInterpMode:
    @pytest.mark.parametrize("mode", INTERP_MODES)
    def test_valid_env_values(self, monkeypatch, mode):
        monkeypatch.setenv(INTERP_ENV_VAR, mode)
        assert resolve_interp_mode() == mode

    @pytest.mark.parametrize("bad", ["fast", "treeee", "closure"])
    def test_unknown_env_value_fails_fast(self, monkeypatch, bad):
        monkeypatch.setenv(INTERP_ENV_VAR, bad)
        with pytest.raises(RuntimeError_) as err:
            resolve_interp_mode()
        for mode in INTERP_MODES:
            assert mode in str(err.value)

    def test_unknown_argument_fails_fast(self):
        with pytest.raises(RuntimeError_):
            resolve_interp_mode("turbo")
