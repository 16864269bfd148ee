"""Property-based tests: the SQL engine versus a plain-Python model,
plus a seeded random-statement generator run through every executor.

The generator (:class:`StatementScriptGenerator`) produces reproducible
scripts covering NOT BETWEEN, DISTINCT aggregates, multi-key ORDER BY,
NULL-heavy rows and join-shaped statements; each script runs through
the tree executor, the source-codegen executor, and the sharded router
(both executor modes), and all four must agree bit-identically -- results, errors, observer streams
and final table state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, connect
from repro.db.errors import IntegrityError
from tests.conftest import examples


def fresh_conn():
    db = Database()
    db.create_table(
        "kv",
        [("k", "int", False), ("v", "int"), ("tag", "text")],
        primary_key=["k"],
    )
    return connect(db)


keys = st.integers(0, 30)
values = st.integers(-100, 100)
tags = st.sampled_from(["a", "b", "c"])


@settings(max_examples=examples(60), deadline=None)
@given(
    st.lists(st.tuples(keys, values, tags), max_size=40),
    st.integers(-100, 100),
)
def test_inserts_then_filtered_sum_matches_model(rows, threshold):
    """SUM with a WHERE filter agrees with a dict-based model."""
    conn = fresh_conn()
    model: dict[int, tuple[int, str]] = {}
    for k, v, tag in rows:
        if k in model:
            continue
        model[k] = (v, tag)
        conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, ?)", k, v, tag)
    matching = [v for v, _ in model.values() if v > threshold]
    expected = sum(matching) if matching else None
    got = conn.query_scalar("SELECT SUM(v) FROM kv WHERE v > ?", threshold)
    assert got == expected


@settings(max_examples=examples(60), deadline=None)
@given(st.lists(st.tuples(keys, values, tags), max_size=40))
def test_group_by_counts_match_model(rows):
    conn = fresh_conn()
    model: dict[str, int] = {}
    seen: set[int] = set()
    for k, v, tag in rows:
        if k in seen:
            continue
        seen.add(k)
        model[tag] = model.get(tag, 0) + 1
        conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, ?)", k, v, tag)
    got = {
        r["tag"]: r["n"]
        for r in conn.query("SELECT tag, COUNT(*) AS n FROM kv GROUP BY tag")
    }
    assert got == model


@settings(max_examples=examples(60), deadline=None)
@given(
    st.lists(st.tuples(keys, values), max_size=30),
    st.lists(st.tuples(keys, values), max_size=15),
    st.lists(keys, max_size=15),
)
def test_insert_update_delete_matches_model(inserts, updates, deletes):
    """Interleaved mutations agree with a dict model."""
    conn = fresh_conn()
    model: dict[int, int] = {}
    for k, v in inserts:
        if k in model:
            with pytest.raises(IntegrityError):
                conn.execute(
                    "INSERT INTO kv (k, v, tag) VALUES (?, ?, 'x')", k, v
                )
        else:
            model[k] = v
            conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, 'x')", k, v)
    for k, v in updates:
        changed = conn.execute("UPDATE kv SET v = ? WHERE k = ?", v, k)
        if k in model:
            assert changed == 1
            model[k] = v
        else:
            assert changed == 0
    for k in deletes:
        removed = conn.execute("DELETE FROM kv WHERE k = ?", k)
        assert removed == (1 if k in model else 0)
        model.pop(k, None)
    rows = conn.query("SELECT k, v FROM kv ORDER BY k").rows
    assert [(r["k"], r["v"]) for r in rows] == sorted(model.items())


@settings(max_examples=examples(40), deadline=None)
@given(
    st.lists(st.tuples(keys, values), max_size=25, unique_by=lambda t: t[0]),
)
def test_transaction_rollback_is_identity(rows):
    """Property: any transaction that rolls back leaves no trace."""
    conn = fresh_conn()
    for k, v in rows[: len(rows) // 2]:
        conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, 'x')", k, v)
    before = [tuple(r) for r in conn.query("SELECT k, v FROM kv ORDER BY k")]
    txn = conn.begin()
    for k, v in rows[len(rows) // 2:]:
        conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, 'y')", k, v)
    conn.execute("UPDATE kv SET v = v + 1")
    conn.execute("DELETE FROM kv WHERE v > 0")
    conn.rollback()
    after = [tuple(r) for r in conn.query("SELECT k, v FROM kv ORDER BY k")]
    assert before == after


@settings(max_examples=examples(40), deadline=None)
@given(st.lists(st.tuples(keys, values), max_size=30, unique_by=lambda t: t[0]))
def test_order_by_matches_sorted_model(rows):
    conn = fresh_conn()
    for k, v in rows:
        conn.execute("INSERT INTO kv (k, v, tag) VALUES (?, ?, 'x')", k, v)
    got = [(r["v"], r["k"]) for r in conn.query(
        "SELECT v, k FROM kv ORDER BY v DESC, k"
    )]
    expected = sorted(
        [(v, k) for k, v in rows], key=lambda t: (-t[0], t[1])
    )
    assert got == expected


# ---------------------------------------------------------------------------
# Random-statement generator: tree vs source vs sharded differential
# ---------------------------------------------------------------------------


class StatementScriptGenerator:
    """Seeded random SQL scripts over one fixed two-table schema.

    Reproducible (plain ``random.Random``); covers INSERT (NULL-heavy
    rows, occasional duplicate primary keys), UPDATE/DELETE with
    BETWEEN / NOT BETWEEN / IN predicates, SELECTs with multi-key
    ORDER BY, DISTINCT projections, DISTINCT aggregates, GROUP BY,
    LIMIT and raw scans (which pin down scan order), plus join-shaped
    statements over ``p JOIN q`` (``q`` is replicated in the sharded
    deployments so the sharded table always drives the join, and small
    enough that the source rung exercises both the nested and
    hash-join strategies as it grows across the script).
    """

    GROUPS = ("a", "b", "c", None)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def _value(self, lo=-50, hi=50, null_p=0.3):
        if self.rng.random() < null_p:
            return None
        return self.rng.randint(lo, hi)

    def _insert(self):
        return (
            "INSERT INTO p (id, grp, a, b) VALUES (?, ?, ?, ?)",
            (
                self.rng.randint(0, 45),
                self.rng.choice(self.GROUPS),
                self._value(),
                self._value(),
            ),
        )

    def _insert_q(self):
        return (
            "INSERT INTO q (qid, grp, v) VALUES (?, ?, ?)",
            (
                self.rng.randint(0, 25),
                self.rng.choice(self.GROUPS),
                self._value(),
            ),
        )

    def _join_select(self):
        choices = [
            # Equi join on a text column in either ON-operand order.
            ("SELECT p.id, q.qid, q.v FROM p JOIN q ON p.grp = q.grp "
             "ORDER BY p.id, q.qid", ()),
            ("SELECT p.id, q.qid FROM p JOIN q ON q.grp = p.grp "
             "WHERE q.v > ? ORDER BY p.id, q.qid",
             (self._value(null_p=0),)),
            # Equi join on nullable ints (SQL = never matches NULL).
            ("SELECT p.id, q.qid FROM p JOIN q ON p.a = q.v "
             "ORDER BY p.id, q.qid", ()),
            # Join + grouped aggregate.
            ("SELECT q.grp AS g, COUNT(*) AS n, SUM(p.a) AS s FROM p "
             "JOIN q ON p.grp = q.grp GROUP BY q.grp "
             "ORDER BY n DESC, g", ()),
            # Join + whole-input aggregates.
            ("SELECT COUNT(*), MIN(q.v), MAX(p.b) FROM p "
             "JOIN q ON p.grp = q.grp", ()),
            # Residual conjuncts beyond the peeled equi key.
            ("SELECT p.id, q.qid FROM p JOIN q ON p.grp = q.grp "
             "AND p.a < q.v ORDER BY p.id, q.qid", ()),
        ]
        return choices[self.rng.randrange(len(choices))]

    def _mutation(self):
        roll = self.rng.random()
        if roll < 0.1:
            # Broadcast mutations: q is replicated in the sharded
            # deployments, so these touch every shard's copy.
            return (
                "UPDATE q SET v = v + ? WHERE grp = ?",
                (self.rng.randint(-3, 3),
                 self.rng.choice(("a", "b", "c"))),
            )
        if roll < 0.15:
            return ("DELETE FROM q WHERE qid = ?",
                    (self.rng.randint(0, 25),))
        if roll < 0.35:
            return (
                "UPDATE p SET a = a + ? WHERE b NOT BETWEEN ? AND ?",
                (self.rng.randint(-3, 3), self._value(null_p=0),
                 self._value(null_p=0)),
            )
        if roll < 0.6:
            return (
                "UPDATE p SET grp = ?, b = ? WHERE a BETWEEN ? AND ?",
                (self.rng.choice(self.GROUPS), self._value(),
                 self.rng.randint(-50, 0), self.rng.randint(0, 50)),
            )
        if roll < 0.8:
            return ("DELETE FROM p WHERE id = ?",
                    (self.rng.randint(0, 45),))
        return (
            "DELETE FROM p WHERE a NOT BETWEEN ? AND ?",
            (self.rng.randint(-60, -20), self.rng.randint(20, 60)),
        )

    def _select(self):
        choices = [
            ("SELECT id, grp, a, b FROM p", ()),
            ("SELECT id, grp, a FROM p ORDER BY grp, a DESC, id", ()),
            ("SELECT id FROM p ORDER BY a, b DESC, id", ()),
            ("SELECT DISTINCT grp FROM p", ()),
            ("SELECT DISTINCT a, grp FROM p ORDER BY a, grp", ()),
            ("SELECT grp, COUNT(DISTINCT a) AS da, SUM(DISTINCT b) AS sb, "
             "COUNT(*) AS n FROM p GROUP BY grp ORDER BY n DESC, da", ()),
            ("SELECT COUNT(DISTINCT a), SUM(DISTINCT a), AVG(a), "
             "MIN(b), MAX(b) FROM p", ()),
            ("SELECT COUNT(*) FROM p WHERE a NOT BETWEEN ? AND ?",
             (self.rng.randint(-30, 0), self.rng.randint(0, 30))),
            ("SELECT id FROM p WHERE a IN (?, ?, ?) OR grp IS NULL "
             "ORDER BY id", (self._value(null_p=0), self._value(null_p=0),
                             self._value(null_p=0))),
            ("SELECT a, b FROM p WHERE id = ?", (self.rng.randint(0, 45),)),
            ("SELECT id, a FROM p WHERE grp = ? ORDER BY a DESC, id "
             "LIMIT ?", (self.rng.choice(("a", "b", "c")),
                         self.rng.randint(1, 8))),
            ("SELECT grp, b, COUNT(*) AS n FROM p "
             "GROUP BY grp, b ORDER BY n DESC, grp, b", ()),
        ]
        return choices[self.rng.randrange(len(choices))]

    def script(self, statements: int = 60):
        out = []
        for step in range(statements):
            roll = self.rng.random()
            if step < 12 or roll < 0.3:
                out.append(self._insert())
            elif step < 16 or roll < 0.42:
                out.append(self._insert_q())
            elif roll < 0.62:
                out.append(self._mutation())
            elif roll < 0.82:
                out.append(self._select())
            else:
                out.append(self._join_select())
        out.append(("SELECT id, grp, a, b FROM p", ()))
        out.append(("SELECT qid, grp, v FROM q ORDER BY qid", ()))
        out.append(("SELECT p.id, q.qid FROM p JOIN q ON p.grp = q.grp "
                    "ORDER BY p.id, q.qid", ()))
        return out


def _property_schema(db):
    db.create_table(
        "p",
        [("id", "int", False), ("grp", "text"), ("a", "int"),
         ("b", "int")],
        primary_key=["id"],
    )
    # The join inner; replicated in the sharded deployments (not in the
    # sharding scheme), so the sharded table always drives the join.
    db.create_table(
        "q",
        [("qid", "int", False), ("grp", "text"), ("v", "int")],
        primary_key=["qid"],
    )


def _property_executors():
    """{tree, source} x {single, sharded-3} over 'p'/'q'."""
    from repro.db import (
        ShardedDatabase,
        ShardingScheme,
        TableSharding,
        connect_sharded,
    )

    scheme = ShardingScheme({"p": TableSharding(("id",), "hash")})
    executors = []
    for mode in ("tree", "source"):
        db = Database(f"prop-{mode}")
        _property_schema(db)
        executors.append((f"single-{mode}", db, connect(db, sql_exec=mode)))
        sdb = ShardedDatabase(f"prop-shard-{mode}", shards=3, scheme=scheme)
        _property_schema(sdb)
        executors.append(
            (f"sharded-{mode}", sdb, connect_sharded(sdb, sql_exec=mode))
        )
    return executors


def _state_of(db):
    from repro.db import ShardedDatabase

    if isinstance(db, ShardedDatabase):
        return {
            name: list(db.logical_rows(name).items())
            for name in ("p", "q")
        }
    return {
        name: list(db.table(name).scan()) for name in ("p", "q")
    }


@pytest.mark.parametrize("seed", [1, 7, 23, 57, 101, 443])
def test_generated_scripts_three_way_differential(seed):
    script = StatementScriptGenerator(seed).script()
    executors = _property_executors()
    logs = []
    for _, _, conn in executors:
        log = []
        conn.observer = (
            lambda kind, sql, touched, rows, log=log:
            log.append((kind, sql, touched, rows))
        )
        logs.append(log)
    for sql, params in script:
        outcomes = []
        for name, _, conn in executors:
            prepared = conn.prepare(sql)
            try:
                if prepared.is_query:
                    rs = prepared.query(*params)
                    outcomes.append((
                        name,
                        "ok",
                        (list(rs.columns),
                         [row.as_tuple() for row in rs.rows],
                         rs.rows_touched),
                    ))
                else:
                    outcomes.append(
                        (name, "ok", prepared.update(*params))
                    )
            except IntegrityError as err:
                outcomes.append((name, "error", str(err)))
        reference = outcomes[0]
        for other in outcomes[1:]:
            assert other[1:] == reference[1:], (sql, params, other[0])
    # Observer streams (rows_touched per mutation) and final states.
    assert all(log == logs[0] for log in logs[1:])
    states = [_state_of(db) for _, db, _ in executors]
    assert all(state == states[0] for state in states[1:])
    # The generator actually built both tables (join coverage is real).
    assert all(len(states[0][t]) > 0 for t in ("p", "q"))


def test_generated_scripts_are_reproducible():
    first = StatementScriptGenerator(99).script()
    second = StatementScriptGenerator(99).script()
    assert first == second


# -- join order: any written order, any placement, same answer -----------------
#
# Random two- and three-table equi-joins over small tables with a
# primary key, a hash index, an ordered index and a plain column each,
# so the planner's greedy placement sees every access-path rank.  ``t1``
# is the sharded table of the router deployments and lands first, in
# the middle or last depending on the statement.

JOIN_TABLES = ("t0", "t1", "t2")
JOIN_COLUMNS = ("id", "a", "b", "c")
_OPS = {
    "=": lambda x, y: x == y,
    "<": lambda x, y: x < y,
    ">": lambda x, y: x > y,
}

cells = st.one_of(st.none(), st.integers(0, 3))
join_rows = st.lists(st.tuples(cells, cells, cells), max_size=6)


@st.composite
def join_statements(draw):
    """(sql, params, tables, equi conditions, filters)."""
    count = draw(st.integers(2, 3))
    tables = list(draw(st.permutations(JOIN_TABLES)))[:count]
    column = st.sampled_from(JOIN_COLUMNS)
    sql = "SELECT {} FROM {}".format(
        ", ".join(f"{t}.id, {t}.c" for t in tables), tables[0]
    )
    conditions = []
    for position in range(1, count):
        condition = (
            tables[position], draw(column),
            draw(st.sampled_from(tables[:position])), draw(column),
        )
        conditions.append(condition)
        sql += " JOIN {0} ON {0}.{1} = {2}.{3}".format(*condition)
    filters = draw(st.lists(
        st.tuples(st.sampled_from(tables), column,
                  st.sampled_from(sorted(_OPS)), st.integers(0, 3)),
        max_size=2,
    ))
    if filters:
        sql += " WHERE " + " AND ".join(
            f"{t}.{col} {op} ?" for t, col, op, _ in filters
        )
    return sql, tuple(f[3] for f in filters), tables, conditions, filters


def _brute_force_join(data, tables, conditions, filters):
    """The answer by a Python nested loop over the raw rows."""
    import itertools

    offset = {name: i for i, name in enumerate(JOIN_COLUMNS)}
    out = []
    for combo in itertools.product(*(data[t] for t in tables)):
        row = dict(zip(tables, combo))
        keep = all(
            row[lt][offset[lc]] is not None
            and row[lt][offset[lc]] == row[rt][offset[rc]]
            for lt, lc, rt, rc in conditions
        ) and all(
            row[t][offset[col]] is not None
            and _OPS[op](row[t][offset[col]], value)
            for t, col, op, value in filters
        )
        if keep:
            out.append(tuple(
                v for t in tables for v in (row[t][0], row[t][3])
            ))
    return out


def _join_deployments(data):
    """tree / source single servers, then the 1- and 3-shard router
    under both rungs (``t1`` hash-sharded, the other tables
    replicated)."""
    from repro.db import (
        ShardedDatabase,
        ShardingScheme,
        TableSharding,
        connect_sharded,
    )
    from repro.db.catalog import IndexSpec

    def load():
        db = Database("joins")
        for name in JOIN_TABLES:
            db.create_table(
                name,
                [("id", "int", False), ("a", "int"), ("b", "int"),
                 ("c", "int")],
                primary_key=["id"],
                indexes=[
                    IndexSpec(f"{name}_a", ("a",)),
                    IndexSpec(f"{name}_b", ("b",), ordered=True),
                ],
            )
            for row in data[name]:
                db.table(name).insert(row)
        return db

    scheme = ShardingScheme({"t1": TableSharding(("id",), "hash")})
    conns = [
        (mode, connect(load(), sql_exec=mode))
        for mode in ("tree", "source")
    ]
    for shards in (1, 3):
        for mode in ("tree", "source"):
            sdb = ShardedDatabase.from_database(load(), shards, scheme)
            conns.append(
                (f"router-{shards}-{mode}",
                 connect_sharded(sdb, sql_exec=mode))
            )
    return conns


@settings(max_examples=examples(120), deadline=None)
@given(join_rows, join_rows, join_rows, join_statements())
def test_join_order_differential(rows0, rows1, rows2, statement):
    sql, params, tables, conditions, filters = statement
    data = {
        name: [(i,) + row for i, row in enumerate(rows)]
        for name, rows in zip(JOIN_TABLES, (rows0, rows1, rows2))
    }
    outcomes = []
    for name, conn in _join_deployments(data):
        rs = conn.query(sql, *params)
        outcomes.append(
            (name, [row.as_tuple() for row in rs.rows], rs.rows_touched)
        )
    _, reference_rows, reference_touched = outcomes[0]
    # Whatever order the planner chose, the answer is the join.
    assert sorted(reference_rows, key=repr) == sorted(
        _brute_force_join(data, tables, conditions, filters), key=repr
    ), sql
    # Rows, row order and rows_touched: exact across rungs and router.
    for name, rows, touched in outcomes[1:]:
        assert rows == reference_rows, (sql, name)
        assert touched == reference_touched, (sql, name)


# -- scatter mutations: the router's UPDATE / DELETE against the tree ---------
#
# ``t1`` is sharded on ``id`` and no predicate below binds it by
# equality, so every statement fans out over the router's shards.  The
# predicates mix the ordered index (``b``: ranges, the high-only form
# included), the hash index (``a``) and residual-only columns; ``mod``
# raises on a row whose divisor is 0, part way through a statement.

_PREDICATE_OPS = ("=", "<", ">", "<=", ">=")
_ASSIGNMENTS = (
    "c = mod(c, id - ?)", "c = mod(id, b - ?)", "b = b + ?", "a = ?",
    "c = c + a",
)


@st.composite
def scatter_mutations(draw):
    """(sql, params) for one UPDATE or DELETE of ``t1``."""
    predicates = draw(st.lists(
        st.tuples(st.sampled_from(("a", "b", "c")),
                  st.sampled_from(_PREDICATE_OPS), st.integers(0, 3)),
        max_size=2,
    ))
    where = " AND ".join(f"{col} {op} ?" for col, op, _ in predicates)
    params = tuple(value for _, _, value in predicates)
    if draw(st.booleans()):
        sql = "DELETE FROM t1"
    else:
        assignment = draw(st.sampled_from(_ASSIGNMENTS))
        sql = f"UPDATE t1 SET {assignment}"
        if "?" in assignment:
            params = (draw(st.integers(-1, 3)),) + params
    return (sql + f" WHERE {where}" if where else sql), params


def _logical_tables(conn):
    database = conn.database
    if hasattr(database, "logical_rows"):
        return {name: database.logical_rows(name) for name in JOIN_TABLES}
    return {name: dict(database.table(name).scan()) for name in JOIN_TABLES}


@settings(max_examples=examples(60), deadline=None)
@given(join_rows, st.lists(st.tuples(cells, cells, cells), max_size=10),
       join_rows, st.lists(scatter_mutations(), min_size=1, max_size=4))
def test_scatter_mutation_differential(rows0, rows1, rows2, statements):
    """Rowcounts, rows_touched (the observer stream), errors and final
    tables match the single-server tree executor after each statement,
    including the partial writes a failing statement leaves behind
    without locks."""
    data = {
        name: [(i,) + row for i, row in enumerate(rows)]
        for name, rows in zip(JOIN_TABLES, (rows0, rows1, rows2))
    }
    deployments = _join_deployments(data)
    logs = []
    for _, conn in deployments:
        log = []
        conn.observer = (
            lambda kind, sql, touched, rows, log=log:
            log.append((sql, touched, rows))
        )
        logs.append(log)
    for sql, params in statements:
        outcomes = []
        for name, conn in deployments:
            prepared = conn.prepare(sql)
            if name.startswith("router"):
                assert prepared.route.mode == "scatter", sql
            try:
                outcome = ("count", prepared.update(*params))
            except ZeroDivisionError as err:
                outcome = ("error", str(err))
            outcomes.append((outcome, _logical_tables(conn)))
        for (name, _), got in zip(deployments[1:], outcomes[1:]):
            assert got == outcomes[0], (sql, params, name)
    assert all(log == logs[0] for log in logs[1:])
