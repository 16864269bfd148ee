"""The SQL source-codegen rung: generation, dumping, determinism.

Bit-identical *behavior* is covered by the differential suites
(test_sql_exec_equivalence, test_shard_equivalence, test_sql_property);
this file covers the generator itself -- deterministic text, the
planner's join-strategy / batch metadata, the hybrid hash join's
size-dependent strategy resolution, and the ``REPRO_DUMP_CODEGEN`` /
``--dump-codegen`` debugging dumps round-tripping through ``compile``.
"""

import os

import pytest

from repro.core import codegen as core_codegen
from repro.db import Database, connect
from repro.db.sql.codegen_plan import (
    compile_plan_source,
    generate_plan_source,
    maybe_compile_plan_source,
)
from repro.db.sql.parser import parse
from repro.db.sql.planner import HASH_JOIN_MIN_ROWS, Planner


def _join_db(inner_rows):
    db = Database("j")
    db.create_table("o", [("oid", "int"), ("k", "int")],
                    primary_key=("oid",))
    db.create_table("l", [("lid", "int"), ("ok", "int"), ("v", "int")],
                    primary_key=("lid",))
    conn = connect(db, sql_exec="tree")
    for i in range(30):
        conn.execute("INSERT INTO o (oid, k) VALUES (?, ?)", i, i % 10)
    for i in range(inner_rows):
        conn.execute("INSERT INTO l (lid, ok, v) VALUES (?, ?, ?)",
                     i, i % 10, i)
    return db


# Both sides carry a local filter, so the access-path ranks tie and the
# written order stands: ``o`` drives and the scanned ``l`` is the
# hash-join candidate whose size the sweeps below vary.
JOIN_SQL = ("SELECT o.oid, l.v FROM o JOIN l ON o.k = l.ok "
            "WHERE o.oid < 100 AND l.v < 50 ORDER BY o.oid, l.v")


def _plan(db, sql):
    return Planner(db).plan(parse(sql))


class TestPlannerMetadata:
    def test_join_strategy_recorded_statically(self):
        db = _join_db(8)
        plan = _plan(db, JOIN_SQL)
        assert [(t.binding, t.join_strategy) for t in plan.tables] == [
            ("o", "driver"), ("l", "hash_scan"),
        ]

    def test_filtered_side_drives_whatever_the_written_order(self):
        db = _join_db(8)
        plan = _plan(db, "SELECT o.oid, l.v FROM o JOIN l ON o.k = l.ok "
                         "WHERE l.v < 50")
        assert [(t.binding, t.join_strategy) for t in plan.tables] == [
            ("l", "driver"), ("o", "hash_scan"),
        ]
        assert [t.join_rank for t in plan.tables] == [4, 4]
        assert plan.lock_tables == ["o", "l"]

    def test_single_table_batch_eligible(self):
        db = _join_db(8)
        assert _plan(db, "SELECT v FROM l WHERE v > 2").batch_eligible
        # Point lookups and aggregates are not batch shapes.
        assert not _plan(db, "SELECT v FROM l WHERE lid = 1").batch_eligible
        assert not _plan(db, "SELECT COUNT(*) FROM l").batch_eligible
        assert not _plan(db, JOIN_SQL).batch_eligible


class TestHybridHashJoin:
    @pytest.mark.parametrize("inner_rows,expected", [
        (HASH_JOIN_MIN_ROWS - 8, "scan"),          # tiny: nested scan
        (200, "hash_scan"),                        # in-memory hash build
        (4096, "hash_scan"),                       # one build at any size
        (5000, "hash_scan"),
        (20_000, "hash_scan"),
    ])
    def test_strategy_resolves_on_inner_size(self, inner_rows, expected):
        db = _join_db(inner_rows)
        source = compile_plan_source(_plan(db, JOIN_SQL), db)
        assert dict(source.join_meta)["l"] == expected
        assert dict(source.join_meta)["o"] == "driver"

    @pytest.mark.parametrize("inner_rows", [8, 200, 4096, 5000])
    def test_all_strategies_match_tree(self, inner_rows):
        from repro.db.sql.executor import Executor

        db = _join_db(inner_rows)
        plan = _plan(db, JOIN_SQL)
        tree = Executor(db).execute(plan, (), None)
        src = compile_plan_source(plan, db).run((), None)
        assert src.rows == tree.rows
        assert src.rows_touched == tree.rows_touched
        assert src.columns == tree.columns


# TPC-W joins and the scale field that sizes the table each one probes.
# The first two are the browsing mix's own: their driver is an index
# range or a filtered scan, so the probe is an index nested loop at any
# size.  The unfiltered variants drive with a bare scan -- every driver
# row probes -- and still resolve nested / hash on the probed table's
# size.
TPCW_JOINS = {
    "best_sellers": (
        "SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
        "FROM tw_order_line ol JOIN tw_item i ON ol.ol_i_id = i.i_id "
        "WHERE i.i_subject = ? GROUP BY i.i_id, i.i_title "
        "ORDER BY sold DESC LIMIT 10",
        "orders", "ol", (("ARTS",), ("COOKING",), ("HISTORY",)), False,
    ),
    "search_by_author": (
        "SELECT i.i_id, i.i_title FROM tw_item i JOIN author a "
        "ON i.i_a_id = a.a_id WHERE a.a_lname = ? "
        "ORDER BY i.i_title LIMIT 20",
        "items", "i", tuple((f"last{n}",) for n in range(1, 41)), False,
    ),
    "all_sellers": (
        "SELECT i.i_id, i.i_title, SUM(ol.ol_qty) AS sold "
        "FROM tw_order_line ol JOIN tw_item i ON ol.ol_i_id = i.i_id "
        "GROUP BY i.i_id, i.i_title ORDER BY sold DESC LIMIT 10",
        "items", "i", ((),), True,
    ),
    "items_with_authors": (
        "SELECT i.i_id, a.a_lname FROM tw_item i JOIN author a "
        "ON i.i_a_id = a.a_id ORDER BY i.i_title LIMIT 20",
        "authors", "a", ((),), True,
    ),
}


class TestHashJoinBoundaries:
    """Where the default rung still builds, it picks the strategy from
    the build side's size at a fixed threshold; one row either side of
    it, and at 4 096 rows, every join must return exactly the tree
    oracle's rows, and the workload's own joins must not build at any
    size."""

    @pytest.mark.parametrize("join", TPCW_JOINS)
    @pytest.mark.parametrize("probed_rows,expected", [
        (HASH_JOIN_MIN_ROWS - 1, "nested"),
        (HASH_JOIN_MIN_ROWS, "hash"),
        (HASH_JOIN_MIN_ROWS + 1, "hash"),
        (4095, "hash"),
        (4096, "hash"),
        (4097, "hash"),
    ])
    def test_tpcw_joins_match_tree_across_thresholds(
        self, join, probed_rows, expected, monkeypatch
    ):
        from repro.workloads.tpcw import TpcwScale, make_tpcw_database

        monkeypatch.delenv("REPRO_SQL_EXEC", raising=False)
        sql, sized_by, inner, param_sets, builds = TPCW_JOINS[join]
        sizes = {"items": 120, "authors": 40, "customers": 40, "orders": 300}
        # ~3 lines an order: "orders" puts tw_order_line past the size.
        sizes[sized_by] = probed_rows
        db, conn = make_tpcw_database(TpcwScale(**sizes))
        if sized_by == "orders":
            assert len(db.table("tw_order_line")) >= probed_rows
        assert conn.sql_exec == "source"  # the default
        strategy = dict(conn.prepare(sql).compiled.join_meta)[inner]
        assert strategy == (expected if builds else "nested")
        tree = connect(db, sql_exec="tree")
        returned = 0
        for params in param_sets:
            got, want = conn.query(sql, *params), tree.query(sql, *params)
            assert got.columns == want.columns
            assert [r.as_tuple() for r in got] == [r.as_tuple() for r in want]
            assert got.rows_touched == want.rows_touched
            returned += len(want)
        assert returned > 0


class TestDeterminism:
    def test_regenerating_a_plan_is_byte_identical(self):
        db = _join_db(200)
        for sql in (
            JOIN_SQL,
            "SELECT v FROM l WHERE v > ? ORDER BY v",
            "SELECT COUNT(*), SUM(v) FROM l",
            "INSERT INTO l (lid, ok, v) VALUES (?, ?, ?)",
            "UPDATE l SET v = v + 1 WHERE lid = ?",
            "DELETE FROM l WHERE lid = ?",
        ):
            first = generate_plan_source(_plan(db, sql), db)[0]
            second = generate_plan_source(_plan(db, sql), db)[0]
            assert first == second, sql

    def test_inline_fold_group_by_is_byte_identical(self):
        from repro.workloads.tpcw import TpcwScale, make_tpcw_database

        tpcw, _ = make_tpcw_database(
            TpcwScale(items=120, authors=40, customers=40, orders=300)
        )
        for db, sql in (
            (tpcw, TPCW_JOINS["best_sellers"][0]),
            # AVG folds inline beside a DISTINCT aggregate's _Aggregator.
            (_join_db(200), "SELECT o.k, AVG(l.v), COUNT(DISTINCT l.v) "
                            "FROM o JOIN l ON o.k = l.ok GROUP BY o.k"),
        ):
            first = generate_plan_source(_plan(db, sql), db)[0]
            second = generate_plan_source(_plan(db, sql), db)[0]
            assert first == second, sql
            assert "_ge = groups.get(_gk)" in first, sql

    def test_join_header_states_order_and_strategy(self):
        # Per level: binding, access kind, resolved strategy and the
        # access-path rank that placed it -- the "why" a dump answers.
        db = _join_db(200)
        header = generate_plan_source(_plan(db, JOIN_SQL), db)[0]
        assert header.splitlines()[1] == (
            "# plan: select o scan driver rank=4 | l scan hash_scan rank=4"
        )
        single = generate_plan_source(_plan(db, "SELECT v FROM l"), db)[0]
        assert single.splitlines()[1] == "# plan: select l"

    def test_identically_built_databases_generate_identical_source(self):
        # Two separately-seeded but identical databases must produce the
        # same module text (the CI determinism check relies on this).
        a, b = _join_db(200), _join_db(200)
        text_a = generate_plan_source(_plan(a, JOIN_SQL), a)[0]
        text_b = generate_plan_source(_plan(b, JOIN_SQL), b)[0]
        assert text_a == text_b


class TestDumping:
    @pytest.fixture(autouse=True)
    def _clear_dump_override(self):
        yield
        core_codegen.set_dump_dir(None)

    def test_env_var_dump_round_trips_through_compile(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(core_codegen.DUMP_ENV_VAR, str(tmp_path))
        db = _join_db(200)
        source = maybe_compile_plan_source(_plan(db, JOIN_SQL), db)
        assert source is not None
        dumped = list(tmp_path.iterdir())
        assert len(dumped) == 1
        path = dumped[0]
        # Stable name: <kind>_<slug>_<sha12>.py from the full text.
        assert path.name == core_codegen.dump_filename(
            "plan", f"{source.kind}_{source.table_names[0]}", source.source
        )
        text = path.read_text(encoding="utf-8")
        assert text == source.source
        compile(text, str(path), "exec")  # round-trips: valid Python

    def test_set_dump_dir_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(core_codegen.DUMP_ENV_VAR,
                           str(tmp_path / "ignored"))
        override = tmp_path / "override"
        core_codegen.set_dump_dir(str(override))
        db = _join_db(8)
        assert maybe_compile_plan_source(
            _plan(db, "SELECT v FROM l WHERE v > ?"), db
        ) is not None
        assert override.is_dir() and len(list(override.iterdir())) == 1
        assert not (tmp_path / "ignored").exists()

    def test_block_codegen_dumps_too(self, tmp_path, monkeypatch):
        """The runtime rung shares the dump knob: generated superblock
        modules land in the same directory and re-compile cleanly."""
        from repro.core.pipeline import Pyxis
        from repro.profiler.profile_data import ProfileData
        from repro.runtime.codegen_blocks import ensure_program_source
        from repro.sim.cluster import Cluster
        from repro.workloads.micro import (
            LINKED_LIST_ENTRY_POINTS,
            LINKED_LIST_SOURCE,
        )

        monkeypatch.setenv(core_codegen.DUMP_ENV_VAR, str(tmp_path))
        pyx = Pyxis.from_source(LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS)
        part = pyx.partition(ProfileData(), budgets=[1e9]).by_budget()[0]
        program = ensure_program_source(
            part.compiled, Cluster().app.cost_model
        )
        dumped = [p for p in tmp_path.iterdir()
                  if p.name.startswith("blocks_")]
        assert len(dumped) == 1
        text = dumped[0].read_text(encoding="utf-8")
        assert text == program.text
        compile(text, str(dumped[0]), "exec")
