"""Differential test: every rung against the tree/tree oracle.

Both compilation rungs -- the closure compilers
(repro.runtime.compile_blocks, repro.db.sql.compile_plan) and the
source generators (repro.runtime.codegen_blocks,
repro.db.sql.codegen_plan) -- and the *defaults* (no ``interp=``, no
``sql_exec=``: what every caller that names no rung gets) must be
observably indistinguishable from the tree-walking block interpreter
over the tree SQL executor: identical results, identical tables, and
bit-identical ExecutionStats -- blocks, ops, control transfers, DB
calls, DB round trips and bytes sent -- across every partitioning of
every entry point of every workload.  A run on the source rungs must
also have generated every statement it prepared (no fallback to the
closure compiler or the tree executor).
"""

from dataclasses import asdict

import pytest

from repro.core.pipeline import Pyxis
from repro.db import connect
from repro.db.sql.compile_plan import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    resolve_sql_exec_mode,
)
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.interpreter import (
    DEFAULT_INTERP,
    INTERP_ENV_VAR,
    resolve_interp_mode,
)
from repro.sim.cluster import Cluster
from repro.workloads.micro import (
    LINKED_LIST_ENTRY_POINTS,
    LINKED_LIST_SOURCE,
    MicroScale,
    THREE_PHASE_ENTRY_POINTS,
    THREE_PHASE_SOURCE,
    make_micro_database,
)
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccScale,
    make_tpcc_database,
)
from repro.workloads.tpcw import (
    TPCW_ENTRY_POINTS,
    TPCW_SOURCE,
    BrowsingMix,
    TpcwScale,
    make_tpcw_database,
)
from tests.conftest import tpcc_invocations

TPCC_SCALE = TpccScale(warehouses=1, districts_per_warehouse=2,
                       customers_per_district=30, items=50)
# The browsing program derives promotion ids modulo 97: items >= 98.
TPCW_SCALE = TpcwScale(items=100, authors=30, customers=40, orders=60)

# One name for both switches; None runs the defaults.
RUNGS = ("compiled", "source", None)


def test_defaults_are_the_source_rungs(monkeypatch):
    monkeypatch.delenv(INTERP_ENV_VAR, raising=False)
    monkeypatch.delenv(SQL_EXEC_ENV_VAR, raising=False)
    assert resolve_interp_mode() == DEFAULT_INTERP == "source"
    assert resolve_sql_exec_mode() == DEFAULT_SQL_EXEC == "source"


def _partitions(source, entry_points, make_db, workload, budgets=(0.0, 1e9)):
    pyx = Pyxis.from_source(source, entry_points)
    _, conn = make_db()
    profile = pyx.profile_with(conn, workload)
    pset = pyx.partition(profile, budgets=list(budgets))
    return pset.by_budget()


def _run_rung(compiled, make_db, rung, invocations):
    """Run ``invocations`` on a fresh database with both switches at
    ``rung``; return results, stats, tables and the connection."""
    database, _ = make_db()
    conn = connect(database, sql_exec=rung)
    app = PartitionedApp(compiled, Cluster(), conn, interp=rung)
    results = [
        app.invoke(class_name, method, *args)
        for class_name, method, args in invocations
    ]
    tables = {
        table.schema.name: list(table.scan()) for table in database.tables()
    }
    return results, asdict(app.executor.stats), tables, conn


def assert_equivalent(compiled, make_db, invocations):
    tree_results, tree_stats, tree_tables, _ = _run_rung(
        compiled, make_db, "tree", invocations
    )
    for rung in RUNGS:
        results, stats, tables, conn = _run_rung(
            compiled, make_db, rung, invocations
        )
        assert results == tree_results, rung
        assert stats == tree_stats, rung  # blocks/ops/db/bytes
        assert tables == tree_tables, rung
        if conn.sql_exec == "source":
            cache = conn.plan_cache_stats
            assert cache.source_plans == cache.compiled_plans == cache.misses


def _profile(invocations):
    def workload(profiler):
        for class_name, method, args in invocations:
            profiler.invoke(class_name, method, *args)

    return workload


class TestTpcc:
    def test_all_entry_points_all_budgets_bit_identical(self):
        make_db = lambda: make_tpcc_database(TPCC_SCALE)  # noqa: E731
        parts = _partitions(
            TPCC_SOURCE, TPCC_ENTRY_POINTS, make_db,
            _profile(tpcc_invocations(TPCC_SCALE, seed=7, rounds=5)),
        )
        invocations = tpcc_invocations(TPCC_SCALE, seed=11, rounds=4)
        assert {(c, m) for c, m, _ in invocations} == set(TPCC_ENTRY_POINTS)
        for part in parts:
            assert_equivalent(part.compiled, make_db, invocations)


class TestDeterminism:
    def test_block_source_regenerates_byte_identically(self):
        """The generated block text is the default executor: two fresh
        builds (parse, analyses, profile, partition, PyxIL) of the
        TPC-C lowest- and highest-budget programs must produce the
        same text and signature (CI runs this with the plan-source
        determinism tests)."""
        from repro.runtime.codegen_blocks import ensure_program_source

        make_db = lambda: make_tpcc_database(TPCC_SCALE)  # noqa: E731
        model = Cluster().app.cost_model
        builds = []
        for _ in range(2):
            parts = _partitions(
                TPCC_SOURCE, TPCC_ENTRY_POINTS, make_db,
                _profile(tpcc_invocations(TPCC_SCALE, seed=7, rounds=5)),
            )
            builds.append([
                ensure_program_source(part.compiled, model) for part in parts
            ])
        first, second = builds
        assert len(first) == len(second) == 2
        for one, other in zip(first, second):
            assert one is not other
            assert one.text == other.text
            assert one.signature == other.signature
        assert first[0].text != first[1].text  # two different programs


class TestTpcw:
    def test_all_entry_points_all_budgets_bit_identical(self):
        make_db = lambda: make_tpcw_database(TPCW_SCALE)  # noqa: E731

        def invocations(seed, count):
            mix = BrowsingMix(TPCW_SCALE, seed=seed)
            return [
                ("TpcwBrowsing", interaction.method, interaction.args)
                for interaction in (
                    mix.next_interaction() for _ in range(count)
                )
            ]

        parts = _partitions(
            TPCW_SOURCE, TPCW_ENTRY_POINTS, make_db,
            _profile(invocations(seed=41, count=40)),
        )
        calls = invocations(seed=23, count=60)
        assert {(c, m) for c, m, _ in calls} == set(TPCW_ENTRY_POINTS)
        for part in parts:
            assert_equivalent(part.compiled, make_db, calls)


class TestMicroWorkloads:
    def test_linked_list_all_budgets(self):
        make_db = lambda: make_micro_database()  # noqa: E731
        parts = _partitions(
            LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS, make_db,
            lambda p: p.invoke("LinkedList", "run", 24),
        )
        invocations = [("LinkedList", "run", (n,)) for n in (1, 17, 120)]
        for part in parts:
            assert_equivalent(part.compiled, make_db, invocations)

    def test_three_phase_all_budgets(self):
        scale = MicroScale(queries_per_phase=12, hashes=20, keys=10)
        make_db = lambda: make_micro_database(rows=scale.keys)  # noqa: E731
        args = (scale.queries_per_phase, scale.hashes, scale.keys)
        parts = _partitions(
            THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS, make_db,
            lambda p: p.invoke("ThreePhase", "run", *args),
            budgets=(0.0, 0.5, 1e9),
        )
        invocations = [("ThreePhase", "run", args)]
        for part in parts:
            assert_equivalent(part.compiled, make_db, invocations)

    def test_stats_nonzero_sanity(self):
        # The equivalence assertions above are vacuous if nothing ran;
        # check one workload actually exercises every counter.
        make_db = lambda: make_micro_database(rows=10)  # noqa: E731
        args = (4, 5, 10)
        parts = _partitions(
            THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS, make_db,
            lambda p: p.invoke("ThreePhase", "run", *args),
            budgets=(1e9,),
        )
        _, stats, _, _ = _run_rung(
            parts[0].compiled, make_db, None,
            [("ThreePhase", "run", args)],
        )
        assert stats["blocks"] > 0
        assert stats["ops"] > 0
        assert stats["db_calls"] == 8
        assert stats["control_transfers"] > 0
        assert stats["bytes_sent"] > 0
