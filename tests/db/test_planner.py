"""Access-path selection."""

import pytest

from repro.db import Database, connect
from repro.db.catalog import IndexSpec
from repro.db.errors import PlanError, UnknownColumnError, UnknownTableError
from repro.db.sql.parser import parse
from repro.db.sql.planner import Planner, SelectPlan


@pytest.fixture()
def planner(people_db):
    db, _ = people_db
    return Planner(db)


def plan_select(planner, sql) -> SelectPlan:
    return planner.plan(parse(sql))


class TestAccessPaths:
    def test_pk_equality_uses_point_lookup(self, planner):
        plan = plan_select(planner, "SELECT name FROM person WHERE id = ?")
        assert plan.tables[0].access.kind == "pk"
        assert plan.tables[0].residual is None

    def test_hash_index_equality(self, planner):
        plan = plan_select(
            planner, "SELECT name FROM person WHERE city = 'boston'"
        )
        access = plan.tables[0].access
        assert access.kind == "index_eq"
        assert access.index_name == "person_by_city"

    def test_ordered_index_range(self, planner):
        plan = plan_select(
            planner, "SELECT name FROM person WHERE age > 30"
        )
        access = plan.tables[0].access
        assert access.kind == "index_range"
        assert access.index_name == "person_by_age"
        assert not access.low_inclusive

    def test_range_with_both_bounds(self, planner):
        plan = plan_select(
            planner,
            "SELECT name FROM person WHERE age >= 20 AND age <= 40",
        )
        access = plan.tables[0].access
        assert access.kind == "index_range"
        assert access.low_exprs and access.high_exprs

    def test_unindexed_predicate_scans(self, planner):
        plan = plan_select(planner, "SELECT id FROM person WHERE score > 5.0")
        assert plan.tables[0].access.kind == "scan"
        assert plan.tables[0].residual is not None

    def test_residual_kept_for_extra_predicates(self, planner):
        plan = plan_select(
            planner,
            "SELECT id FROM person WHERE city = 'sf' AND score > 5.0",
        )
        access = plan.tables[0].access
        assert access.kind == "index_eq"
        assert plan.tables[0].residual is not None

    def test_flipped_operands_still_sargable(self, planner):
        plan = plan_select(planner, "SELECT name FROM person WHERE ? = id")
        assert plan.tables[0].access.kind == "pk"

    def test_no_predicates_scans(self, planner):
        plan = plan_select(planner, "SELECT id FROM person")
        assert plan.tables[0].access.kind == "scan"


class TestJoinPlanning:
    def test_inner_table_probed_by_pk(self, people_db):
        db, conn = people_db
        db.create_table(
            "pet",
            [("pid", "int", False), ("owner", "int"), ("kind", "text")],
            primary_key=["pid"],
        )
        planner = Planner(db)
        plan = plan_select(
            planner,
            "SELECT p.name FROM pet JOIN person p ON pet.owner = p.id",
        )
        # The join key probes person's primary key.
        assert plan.tables[1].access.kind == "pk"

    def test_join_order_follows_from_clause(self, people_db):
        db, _ = people_db
        db.create_table(
            "pet",
            [("pid", "int", False), ("owner", "int")],
            primary_key=["pid"],
        )
        planner = Planner(db)
        plan = plan_select(
            planner,
            "SELECT person.name FROM person JOIN pet ON pet.owner = person.id",
        )
        assert [t.table_name for t in plan.tables] == ["person", "pet"]


# One predicate per access-path rank on a table with a primary key, a
# unique, a hash and an ordered secondary index and one plain column.
RANK_PREDICATES = [
    "{t}.id = 1",   # 0: full primary key
    "{t}.u = 1",    # 1: unique index equality
    "{t}.h = 1",    # 2: index equality
    "{t}.r > 1",    # 3: index range
    "{t}.f = 1",    # 4: filtered scan
    None,           # 5: bare scan
]


@pytest.fixture()
def rank_db():
    db = Database("ranks")
    columns = [("id", "int", False), ("u", "int"), ("h", "int"),
               ("r", "int"), ("f", "int")]
    for name in ("d1", "d2"):
        db.create_table(
            name, columns, primary_key=["id"],
            indexes=[
                IndexSpec(f"{name}_u", ("u",), unique=True),
                IndexSpec(f"{name}_h", ("h",)),
                IndexSpec(f"{name}_r", ("r",), ordered=True),
            ],
        )
    return db


def _ranked_join(first_rank, second_rank):
    where = " AND ".join(
        predicate.format(t=table)
        for table, predicate in (
            ("d1", RANK_PREDICATES[first_rank]),
            ("d2", RANK_PREDICATES[second_rank]),
        )
        if predicate is not None
    )
    return (
        "SELECT d1.id, d2.id FROM d1 JOIN d2 ON d1.f = d2.f"
        + (f" WHERE {where}" if where else "")
    )


class TestJoinOrder:
    """Greedy placement by access-path rank: schema and statement only."""

    @pytest.mark.parametrize("better", range(5))
    def test_each_rank_step_beats_the_next(self, rank_db, better):
        planner = Planner(rank_db)
        # Written first with the worse rank: the other table drives.
        plan = plan_select(planner, _ranked_join(better + 1, better))
        assert [t.binding for t in plan.tables] == ["d2", "d1"]
        assert plan.tables[0].join_rank == better
        # Written first with the better rank: nothing moves.
        plan = plan_select(planner, _ranked_join(better, better + 1))
        assert [t.binding for t in plan.tables] == ["d1", "d2"]
        assert plan.tables[0].join_rank == better

    @pytest.mark.parametrize("rank", range(6))
    def test_ties_keep_the_written_order(self, rank_db, rank):
        plan = plan_select(Planner(rank_db), _ranked_join(rank, rank))
        assert [t.binding for t in plan.tables] == ["d1", "d2"]
        flipped = _ranked_join(rank, rank).replace(
            "FROM d1 JOIN d2", "FROM d2 JOIN d1"
        )
        plan = plan_select(Planner(rank_db), flipped)
        assert [t.binding for t in plan.tables] == ["d2", "d1"]

    def test_order_ignores_table_sizes(self, rank_db):
        sql = _ranked_join(5, 4)
        before = plan_select(Planner(rank_db), sql)
        conn = connect(rank_db)
        for i in range(50):
            conn.execute(
                "INSERT INTO d2 (id, u, h, r, f) VALUES (?, ?, ?, ?, ?)",
                i, i, i, i, i,
            )
        after = plan_select(Planner(rank_db), sql)
        assert (
            [t.binding for t in before.tables]
            == [t.binding for t in after.tables]
            == ["d2", "d1"]
        )

    def test_three_table_chain_written_worst_first(self):
        db = Database("chain")
        db.create_table(
            "line", [("l_id", "int", False), ("l_o_id", "int")],
            primary_key=["l_id"],
            indexes=[IndexSpec("line_by_order", ("l_o_id",))],
        )
        db.create_table(
            "ord", [("o_id", "int", False), ("o_c_id", "int")],
            primary_key=["o_id"],
            indexes=[IndexSpec("ord_by_cust", ("o_c_id",))],
        )
        db.create_table(
            "cust", [("c_id", "int", False), ("c_name", "text")],
            primary_key=["c_id"],
        )
        conn = connect(db, sql_exec="tree")
        for c in range(10):
            conn.execute("INSERT INTO cust (c_id, c_name) VALUES (?, ?)",
                         c, f"c{c}")
        for o in range(40):
            conn.execute("INSERT INTO ord (o_id, o_c_id) VALUES (?, ?)",
                         o, o % 10)
        for l in range(200):
            conn.execute("INSERT INTO line (l_id, l_o_id) VALUES (?, ?)",
                         l, l % 40)
        sql = ("SELECT l.l_id, c.c_name FROM line l "
               "JOIN ord o ON l.l_o_id = o.o_id "
               "JOIN cust c ON o.o_c_id = c.c_id WHERE c.c_id = ?")
        plan = plan_select(Planner(db), sql)
        assert [(t.binding, t.access.kind) for t in plan.tables] == [
            ("c", "pk"), ("o", "index_eq"), ("l", "index_eq"),
        ]
        assert [t.join_rank for t in plan.tables] == [0, 2, 2]
        assert [t.join_strategy for t in plan.tables] == [
            "driver", "nested", "nested",
        ]
        result = conn.query(sql, 3)
        assert sorted(r.as_tuple() for r in result) == sorted(
            (l, "c3") for l in range(200) if (l % 40) % 10 == 3
        )
        # 1 customer + 4 orders + 20 lines, not 200 lines first.
        assert result.rows_touched == 25

    def test_star_keeps_written_column_order(self, rank_db):
        conn = connect(rank_db)
        conn.execute("INSERT INTO d1 (id, u, h, r, f) VALUES (1, 2, 3, 4, 5)")
        conn.execute("INSERT INTO d2 (id, u, h, r, f) VALUES (9, 8, 7, 6, 5)")
        sql = "SELECT * FROM d1 JOIN d2 ON d1.f = d2.f WHERE d2.id = 9"
        plan = plan_select(Planner(rank_db), sql)
        assert [t.binding for t in plan.tables] == ["d2", "d1"]
        assert plan.column_names == ["id", "u", "h", "r", "f"] * 2
        assert [r.as_tuple() for r in conn.query(sql)] == [
            (1, 2, 3, 4, 5, 9, 8, 7, 6, 5)
        ]

    @pytest.mark.parametrize("sql,error,message", [
        ("SELECT id FROM d1 JOIN d2 ON d1.f = d2.f WHERE d2.id = 1",
         PlanError, "ambiguous column 'id'"),
        ("SELECT d1.id FROM d1 JOIN d2 ON d1.f = d2.f WHERE d2.id = 1 "
         "AND f = 1", PlanError, "could not place predicate BinaryOp(op='=', "
         "left=ColumnRef(column='f', table=None), right=Literal(value=1))"),
        ("SELECT d1.id FROM d1 JOIN d2 ON d1.f = d2.f WHERE d2.id = 1 "
         "AND nope = 1", PlanError, "could not place predicate BinaryOp("
         "op='=', left=ColumnRef(column='nope', table=None), "
         "right=Literal(value=1))"),
        ("SELECT d1.nope FROM d1 JOIN d2 ON d1.f = d2.f WHERE d2.id = 1",
         UnknownColumnError, "unknown column 'nope' in table 'd1'"),
    ])
    def test_column_errors_unchanged_under_reordering(
        self, rank_db, sql, error, message
    ):
        with pytest.raises(error) as raised:
            Planner(rank_db).plan(parse(sql))
        assert str(raised.value) == message

    @pytest.mark.parametrize("sql_exec", ["tree", "source"])
    def test_locks_are_taken_in_written_order(self, rank_db, sql_exec):
        """Two statements joining the same tables in opposite written
        order join in the same (rank) order but each locks in its own
        written order, as before the planner chose join orders."""
        conn = connect(rank_db, use_locks=True, sql_exec=sql_exec)
        acquired = []
        acquire = conn.lock_manager.acquire

        def recording(txn_id, resource, mode, **kwargs):
            acquired.append(resource[1])
            return acquire(txn_id, resource, mode, **kwargs)

        conn.lock_manager.acquire = recording
        for written in (("d1", "d2"), ("d2", "d1")):
            sql = ("SELECT d1.id FROM {} JOIN {} ON d1.f = d2.f "
                   "WHERE d2.id = 1").format(*written)
            prepared = conn.prepare(sql)
            assert [t.binding for t in prepared.plan.tables] == ["d2", "d1"]
            # A fresh transaction each: one that already holds a table
            # lock does not ask the manager for it again.
            conn.begin()
            del acquired[:]
            prepared.query()
            assert acquired == list(written)
            conn.rollback()


class TestProjection:
    def test_star_expands_columns(self, planner):
        plan = plan_select(planner, "SELECT * FROM person")
        assert plan.column_names == ["id", "name", "age", "city", "score"]

    def test_aliases_in_output(self, planner):
        plan = plan_select(planner, "SELECT name AS who FROM person")
        assert plan.column_names == ["who"]

    def test_aggregate_columns(self, planner):
        plan = plan_select(
            planner, "SELECT city, COUNT(*) AS n FROM person GROUP BY city"
        )
        assert plan.column_names == ["city", "n"]
        assert len(plan.aggregates) == 1

    def test_order_by_output_alias(self, planner):
        plan = plan_select(
            planner,
            "SELECT city, COUNT(*) AS n FROM person GROUP BY city ORDER BY n DESC",
        )
        assert plan.sort_keys[0].output_index == 1


class TestPlanErrors:
    def test_unknown_table(self, planner):
        with pytest.raises(UnknownTableError):
            planner.plan(parse("SELECT a FROM missing"))

    def test_unknown_column(self, planner):
        with pytest.raises(UnknownColumnError):
            planner.plan(parse("SELECT nope FROM person"))

    def test_insert_arity_mismatch(self, planner):
        with pytest.raises(PlanError):
            planner.plan(parse("INSERT INTO person (id, name) VALUES (1)"))

    def test_update_unknown_column(self, planner):
        with pytest.raises(UnknownColumnError):
            planner.plan(parse("UPDATE person SET nope = 1"))

    def test_duplicate_binding(self, people_db):
        db, _ = people_db
        planner = Planner(db)
        with pytest.raises(PlanError):
            planner.plan(
                parse("SELECT a.id FROM person a JOIN person a ON a.id = a.id")
            )
