"""The SELECT tail every rung shares: ORDER BY, GROUP BY folds, LIMIT.

- ``sort_result_rows`` sorts a column of exactly ``int`` / ``float`` or
  exactly ``str`` values on the bare value.  A Hypothesis property
  checks it against the old implementation, kept here verbatim as the
  oracle, position by position and by identity.
- The source rung folds plain aggregates in slots of the group entry.
  A Hypothesis differential runs GROUP BY statements through the
  source, closure and tree rungs and the 1- and 3-shard router against
  the tree executor: rows, row order, ``rows_touched`` and errors.
- ``LIMIT`` takes None (no limit) or a non-negative integer; anything
  else fails naming the value, on every rung and through the router.
"""

import enum
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Database,
    ShardedDatabase,
    ShardingScheme,
    TableSharding,
    connect,
    connect_sharded,
)
from repro.db.errors import ExecutionError
from repro.db.sql.executor import sort_result_rows


# -- the ORDER BY oracle -------------------------------------------------------


def _none_safe_key(value: Any) -> tuple:
    """Sort key that orders None first and mixed types deterministically."""
    if value is None:
        return (0, "", 0, "")
    if isinstance(value, bool):
        return (1, "", int(value), "")
    if isinstance(value, (int, float)):
        return (2, "", value, "")
    return (3, type(value).__name__, 0, str(value))


def oracle_sort_result_rows(
    plan, rows: list[tuple], hidden: int
) -> list[tuple]:
    """Apply ORDER BY to materialized output rows.

    ``hidden`` trailing values hold source-scope sort keys: when
    nonzero, the row loop appended one trailing slot *per sort key*
    (None for keys that index an output column), so the k-th sort
    key's hidden slot sits at ``width + k``.  They are stripped from
    the returned rows.  Shared by the tree and compiled executors --
    sorting happens on plain value tuples, so there is nothing
    environment-specific to specialize.
    """
    if not plan.sort_keys:
        return [row[: len(row) - hidden] for row in rows] if hidden else rows
    width = len(plan.columns)
    key_positions: list[int] = []
    for position, key in enumerate(plan.sort_keys):
        if key.output_index is not None:
            key_positions.append(key.output_index)
        else:
            key_positions.append(width + position)
    # Stable multi-key sort: apply keys from last to first.
    ordered = list(rows)
    for key, pos in reversed(list(zip(plan.sort_keys, key_positions))):
        ordered.sort(
            key=lambda row: _none_safe_key(row[pos]),
            reverse=key.descending,
        )
    if hidden:
        ordered = [row[:width] for row in ordered]
    return ordered


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 2


class Tag(str):
    pass


_NAN = float("nan")
VALUE_KINDS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-2, 2),
    "intenum": st.sampled_from(list(Level)),
    # One shared NaN object and fresh ones: identity decides ties.
    "float": st.one_of(
        st.sampled_from([-0.0, 0.0, 1.0, -1.5, 2.0, _NAN,
                         float("inf"), float("-inf")]),
        st.builds(float, st.just("nan")),
    ),
    "str": st.sampled_from(["", "a", "b", "ab", "B"]),
    "strsub": st.builds(Tag, st.sampled_from(["", "a", "b"])),
}


@st.composite
def sort_cases(draw):
    """(plan, rows, hidden): 1-3 keys over output columns or hidden
    slots, each position drawing from its own mix of value kinds."""
    width = draw(st.integers(1, 3))
    n_keys = draw(st.integers(1, 3))
    hidden = n_keys if draw(st.booleans()) else 0
    keys = []
    for _ in range(n_keys):
        index = st.integers(0, width - 1)
        if hidden:
            index = st.one_of(st.none(), index)
        keys.append(SimpleNamespace(
            output_index=draw(index), descending=draw(st.booleans()),
        ))
    cells = []
    for _ in range(width + hidden):
        kinds = draw(st.sets(st.sampled_from(sorted(VALUE_KINDS)),
                             min_size=1, max_size=3))
        cells.append(st.one_of(*(VALUE_KINDS[k] for k in sorted(kinds))))
    rows = draw(st.lists(st.tuples(*cells), max_size=12))
    plan = SimpleNamespace(columns=[None] * width, sort_keys=keys)
    return plan, rows, hidden


@settings(max_examples=400, deadline=None)
@given(sort_cases())
def test_sort_matches_the_old_key_by_identity(case):
    plan, rows, hidden = case
    want = oracle_sort_result_rows(plan, rows, hidden)
    got = sort_result_rows(plan, rows, hidden)
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        if not hidden:
            assert got_row is want_row
        assert len(got_row) == len(want_row)
        assert all(a is b for a, b in zip(got_row, want_row))


def test_typed_sort_keeps_bool_and_subclasses_apart():
    # bool sorts before every number under the old key, although
    # True == 1; an IntEnum or str subclass keeps its class's rank.
    plan = SimpleNamespace(
        columns=[None],
        sort_keys=[SimpleNamespace(output_index=0, descending=False)],
    )
    rows = [(1,), (True,), (0,), (False,)]
    got = sort_result_rows(plan, rows, 0)
    assert [repr(v) for (v,) in got] == ["False", "True", "0", "1"]
    # Class name first: "Tag" < "str".
    rows = [("b",), (Tag("a"),), ("a",)]
    got = sort_result_rows(plan, rows, 0)
    assert [type(v) for (v,) in got] == [Tag, str, str]


# -- GROUP BY: every rung and the router against the tree executor -------------

nullable = {
    "i": st.one_of(st.none(), st.integers(-2, 2)),
    "f": st.one_of(
        st.none(),
        st.sampled_from([-0.0, 0.0, 1.5, -2.0, _NAN, float("inf")]),
        st.builds(float, st.just("nan")),
    ),
    "t": st.one_of(st.none(), st.sampled_from(["a", "b", ""])),
    "b": st.one_of(st.none(), st.booleans()),
}
group_rows = st.lists(
    st.tuples(*(nullable[c] for c in "iftb")), max_size=10
)
FOLDS = ("COUNT({})", "SUM({})", "MIN({})", "MAX({})", "AVG({})")


@st.composite
def group_statements(draw):
    """(sql, params): a grouped or whole-input aggregate over ``g``,
    optionally joined to ``d`` and filtered, with one DISTINCT
    aggregate, one over an expression and a non-grouped column."""
    column = st.sampled_from("iftb")
    keys = draw(st.lists(column, unique=True, max_size=2))
    outputs = [f"g.{c}" for c in keys]
    outputs.append("COUNT(*)")
    for _ in range(draw(st.integers(1, 4))):
        outputs.append(draw(st.sampled_from(FOLDS)).format(f"g.{draw(column)}"))
    outputs.append(draw(st.sampled_from(
        ["COUNT(DISTINCT g.{})", "SUM(DISTINCT g.{})"]
    )).format(draw(column)))
    # The last choice of each raises on some rows (division by zero).
    outputs.append(draw(st.sampled_from(
        ["SUM(g.i * 2)", "MAX(g.i - g.f)", "MIN(g.f * g.i)", "MIN(g.i / g.f)"]
    )))
    extra = draw(st.sampled_from(
        [None, "g.t", "g.i + 1", "g.b", "g.f / g.i"]
    ))
    if extra is not None:
        outputs.insert(draw(st.integers(0, len(outputs))), extra)
    sql = "SELECT " + ", ".join(
        f"{text} AS c{n}" for n, text in enumerate(outputs)
    ) + " FROM g"
    if draw(st.booleans()):
        sql += " JOIN d ON g.id = d.did"
    params = ()
    if draw(st.booleans()):
        sql += " WHERE g.i > ?"
        params = (draw(st.integers(-3, 2)),)
    if keys:
        sql += " GROUP BY " + ", ".join(f"g.{c}" for c in keys)
    order = draw(st.lists(
        st.tuples(st.integers(0, len(outputs) - 1), st.booleans()),
        max_size=2,
    ))
    if order:
        sql += " ORDER BY " + ", ".join(
            f"c{n}{' DESC' if desc else ''}" for n, desc in order
        )
    return sql, params


def _group_deployments(rows, d_rows):
    def load():
        db = Database("groups")
        db.create_table(
            "g",
            [("id", "int", False), ("i", "int"), ("f", "float"),
             ("t", "text"), ("b", "bool")],
            primary_key=["id"],
        )
        db.create_table(
            "d", [("did", "int", False), ("w", "int")], primary_key=["did"],
        )
        for n, row in enumerate(rows):
            db.table("g").insert((n,) + row)
        for did in d_rows:
            db.table("d").insert((did, did % 2))
        return db

    conns = [
        (mode, connect(load(), sql_exec=mode))
        for mode in ("tree", "compiled", "source")
    ]
    scheme = ShardingScheme({"g": TableSharding(("id",), "hash")})
    for shards in (1, 3):
        sdb = ShardedDatabase.from_database(load(), shards, scheme)
        conns.append((f"router-{shards}", connect_sharded(sdb)))
    return conns


def _outcome(conn, sql, params):
    try:
        rs = conn.query(sql, *params)
    except Exception as err:  # error parity: class and message
        return ("error", type(err).__name__, str(err))
    # repr: NaN equals NaN, -0.0 differs from 0.0, 1 from 1.0 and True.
    return ("ok", repr([row.as_tuple() for row in rs.rows]), rs.rows_touched)


def _assert_rungs_agree(rows, d_rows, sql, params=()):
    outcomes = [
        (name, _outcome(conn, sql, params))
        for name, conn in _group_deployments(rows, d_rows)
    ]
    _, reference = outcomes[0]
    for name, outcome in outcomes[1:]:
        assert outcome == reference, (sql, params, name)


@settings(max_examples=150, deadline=None)
@given(group_rows, st.sets(st.integers(0, 9), max_size=8), group_statements())
def test_group_by_differential(rows, d_rows, statement):
    _assert_rungs_agree(rows, sorted(d_rows), *statement)


# Ties a fold must break as ``_Aggregator`` does: -0.0 beside 0.0,
# "b" before "a", True beside 1, two NaN objects, NULLs in every column.
FOLD_ROWS = [
    (1, 0.0, "b", True), (1, -0.0, "a", False), (None, _NAN, "a", None),
    (1, float("nan"), None, True), (2, 1.5, "", False),
    (None, -0.0, "b", True), (2, None, "ab", None), (1, _NAN, "a", False),
]


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("column", "iftb")
def test_each_inline_fold_matches_the_tree_executor(fold, column):
    arg = fold.format(f"g.{column}")
    for sql in (
        f"SELECT g.i, {arg} FROM g GROUP BY g.i",
        f"SELECT g.b, {arg}, g.t FROM g JOIN d ON g.id = d.did GROUP BY g.b",
        f"SELECT {arg}, COUNT(*) FROM g JOIN d ON g.id = d.did",
    ):
        _assert_rungs_agree(FOLD_ROWS, range(len(FOLD_ROWS)), sql)


def test_group_by_statements_reach_the_inline_fold():
    # The differential's statements generate source (no closure-rung
    # fallback), so the inline fold is what it compares.
    (_, conn), = [
        c for c in _group_deployments([(1, 1.5, "a", True)], [0])
        if c[0] == "source"
    ]
    for sql in (
        "SELECT g.t, COUNT(*), SUM(g.i), AVG(g.f), MIN(g.b), "
        "COUNT(DISTINCT g.i), MAX(g.i - g.f) FROM g GROUP BY g.i",
        "SELECT COUNT(*), AVG(g.i) FROM g JOIN d ON g.id = d.did",
    ):
        assert "_ge = groups.get(_gk)" in conn.prepare(sql).compiled.source



def test_empty_input_without_group_by_yields_one_row():
    for name, conn in _group_deployments([], []):
        rs = conn.query(
            "SELECT COUNT(*), COUNT(g.i), SUM(g.i), MIN(g.f), AVG(g.f), "
            "g.t FROM g JOIN d ON g.id = d.did"
        )
        assert [row.as_tuple() for row in rs.rows] == [
            (0, 0, None, None, None, None)
        ], name


# -- LIMIT ---------------------------------------------------------------------


def _limit_deployments():
    def load():
        db = Database("limits")
        db.create_table(
            "p", [("id", "int", False), ("v", "int")], primary_key=["id"],
        )
        for n in range(5):
            db.table("p").insert((n, n % 2))
        return db

    conns = [
        (mode, connect(load(), sql_exec=mode))
        for mode in ("tree", "compiled", "source")
    ]
    scheme = ShardingScheme({"p": TableSharding(("id",), "hash")})
    sdb = ShardedDatabase.from_database(load(), 3, scheme)
    conns.append(("router-3", connect_sharded(sdb)))
    return conns


# A scatter-gather statement (the router's own SELECT tail) and one the
# router sends whole to a single shard (that shard's compiled tail).
LIMIT_SQL = {
    "scatter": ("SELECT id FROM p ORDER BY id LIMIT ?", [0, 1, 2, 3, 4]),
    "one-shard": ("SELECT id FROM p WHERE id = ? LIMIT ?", [3]),
}


@pytest.mark.parametrize("shape", LIMIT_SQL)
@pytest.mark.parametrize("value,keep", [
    (None, None), (0, 0), (2, 2), (2.0, 2), (Level.HIGH, 2), (9, None),
])
def test_limit_keeps_that_many_rows(shape, value, keep):
    sql, all_rows = LIMIT_SQL[shape]
    params = (value,) if sql.count("?") == 1 else (3, value)
    for name, conn in _limit_deployments():
        rows = [row.as_tuple()[0] for row in conn.query(sql, *params)]
        assert rows == all_rows[:keep], (name, value)


@pytest.mark.parametrize("shape", LIMIT_SQL)
@pytest.mark.parametrize("value", [-1, -2.0, 1.5, float("nan"),
                                   True, "two", "2"])
def test_limit_rejects_anything_else_naming_it(shape, value):
    sql, _ = LIMIT_SQL[shape]
    params = (value,) if sql.count("?") == 1 else (3, value)
    for name, conn in _limit_deployments():
        with pytest.raises(ExecutionError) as err:
            conn.query(sql, *params)
        assert repr(value) in str(err.value), name
