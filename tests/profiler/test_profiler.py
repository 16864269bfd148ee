"""Profiling instrumentation and profile data."""

import pytest

from repro.db import Database, connect
from repro.lang import parse_source
from repro.lang.ir import Assign, FieldLV, ForEach
from repro.profiler import ProfileData, Profiler, estimate_size

SOURCE = '''
class App:
    def run(self, n):
        total = 0.0
        values = range(0, n)
        for v in values:
            total = total + v
        self.history = values
        return total
'''


@pytest.fixture()
def profiled():
    program = parse_source(SOURCE, entry_points=[("App", "run")])
    profiler = Profiler(program, connect(Database()))
    profiler.invoke("App", "run", 4)
    return program, profiler.data


class TestCounts:
    def test_top_level_counts_are_one(self, profiled):
        program, data = profiled
        func = program.function("App", "run")
        first = func.body.stmts[0]
        assert data.count(first.sid) == 1

    def test_loop_body_counts_match_iterations(self, profiled):
        program, data = profiled
        func = program.function("App", "run")
        loop = next(s for s in func.walk() if isinstance(s, ForEach))
        body_sid = loop.body.stmts[0].sid
        assert data.count(body_sid) == 4

    def test_loop_node_counts_iterations_plus_test(self, profiled):
        program, data = profiled
        func = program.function("App", "run")
        loop = next(s for s in func.walk() if isinstance(s, ForEach))
        assert data.count(loop.sid) == 5

    def test_multiple_invocations_accumulate(self):
        program = parse_source(SOURCE, entry_points=[("App", "run")])
        profiler = Profiler(program, connect(Database()))
        profiler.invoke("App", "run", 2)
        profiler.invoke("App", "run", 3)
        assert profiler.data.invocations == 2
        func = program.function("App", "run")
        assert profiler.data.count(func.body.stmts[0].sid) == 2


class TestSizes:
    def test_assign_sizes_recorded(self, profiled):
        program, data = profiled
        func = program.function("App", "run")
        values_assign = next(
            s for s in func.walk()
            if isinstance(s, Assign) and not isinstance(s.target, FieldLV)
        )
        assert data.assign_size(values_assign.sid) > 0

    def test_field_sizes_recorded(self, profiled):
        _, data = profiled
        assert ("App", "history") in data.field_sizes
        assert data.field_size("App", "history") > 8

    def test_defaults_for_unobserved(self):
        data = ProfileData()
        assert data.count(999) == 0
        assert data.assign_size(999) == 8.0
        assert data.field_size("X", "y") == 8.0


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(1.5) == 8

    def test_strings_scale(self):
        assert estimate_size("abcd") > estimate_size("")

    def test_containers_sum_elements(self):
        assert estimate_size([1, 2, 3]) > estimate_size([1])

    def test_rows(self):
        from repro.db.jdbc import Row

        row = Row(["a", "b"], (1, "xyz"))
        assert estimate_size(row) > 8


class TestPersistence:
    def test_merge(self, profiled):
        _, data = profiled
        merged = ProfileData()
        merged.merge(data)
        merged.merge(data)
        assert merged.invocations == 2 * data.invocations
        assert merged.total_statement_weight() == (
            2 * data.total_statement_weight()
        )

    def test_per_invocation_weight(self, profiled):
        _, data = profiled
        assert data.per_invocation_weight() == pytest.approx(
            data.total_statement_weight()
        )

    def test_db_rows_recorded(self):
        db = Database()
        db.create_table(
            "t", [("k", "int", False)], primary_key=["k"]
        )
        conn = connect(db)
        for k in range(7):
            conn.execute("INSERT INTO t (k) VALUES (?)", k)
        source = '''
class Q:
    def run(self, x):
        return self.db.query_scalar("SELECT COUNT(*) FROM t")
'''
        program = parse_source(source, entry_points=[("Q", "run")])
        profiler = Profiler(program, conn)
        profiler.invoke("Q", "run", 0)
        sid = next(
            s.sid for s in program.all_statements()
        )
        # db_rows recorded under the statement containing the call.
        assert any(
            stat.average == 7 for stat in profiler.data.db_rows.values()
        )
