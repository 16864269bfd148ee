"""SQL parser."""

import pytest

from repro.db.errors import SqlSyntaxError
from repro.db.sql.ast import (
    Between,
    BinaryOp,
    ColumnRef,
    Delete,
    FuncCall,
    InList,
    Insert,
    IsNull,
    Literal,
    Parameter,
    Select,
    UnaryOp,
    Update,
)
from repro.db.sql.parser import parse


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt, Select)
        assert stmt.items[0].star

    def test_column_list_with_aliases(self):
        stmt = parse("SELECT a, b AS bee, c cee FROM t")
        assert stmt.items[1].alias == "bee"
        assert stmt.items[2].alias == "cee"

    def test_qualified_columns(self):
        stmt = parse("SELECT t.a FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, ColumnRef)
        assert expr.table == "t"

    def test_table_alias(self):
        stmt = parse("SELECT x.a FROM tbl x")
        assert stmt.table.binding == "x"

    def test_where_conjunction(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 AND b > 2")
        assert isinstance(stmt.where, BinaryOp)
        assert stmt.where.op == "and"

    def test_where_or_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert stmt.where.op == "or"
        assert stmt.where.right.op == "and"

    def test_parameters_numbered_in_order(self):
        stmt = parse("SELECT a FROM t WHERE a = ? AND b = ?")
        params = [
            node
            for node in stmt.where.walk()
            if isinstance(node, Parameter)
        ]
        assert [p.index for p in params] == [0, 1]

    def test_join_with_condition(self):
        stmt = parse(
            "SELECT a.x FROM a JOIN b ON a.id = b.a_id WHERE b.y = 1"
        )
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table.name == "b"

    def test_inner_join_keyword(self):
        stmt = parse("SELECT x FROM a INNER JOIN b ON a.i = b.i")
        assert len(stmt.joins) == 1

    def test_group_by(self):
        stmt = parse("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        assert len(stmt.group_by) == 1
        assert stmt.has_aggregates

    def test_order_by_directions(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC, b ASC, c")
        assert [o.descending for o in stmt.order_by] == [True, False, False]

    def test_limit(self):
        stmt = parse("SELECT a FROM t LIMIT 10")
        assert isinstance(stmt.limit, Literal)
        assert stmt.limit.value == 10

    def test_for_update(self):
        stmt = parse("SELECT a FROM t WHERE a = 1 FOR UPDATE")
        assert stmt.for_update

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(x), AVG(y) FROM t")
        calls = [item.expr for item in stmt.items]
        assert all(isinstance(c, FuncCall) and c.is_aggregate for c in calls)
        assert calls[0].star

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesized_expression(self):
        stmt = parse("SELECT (a + b) * c FROM t")
        assert stmt.items[0].expr.op == "*"

    def test_unary_minus_folds_literals(self):
        stmt = parse("SELECT a FROM t WHERE a = -5")
        assert stmt.where.right == Literal(-5)

    def test_is_null_and_is_not_null(self):
        stmt = parse("SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL")
        left, right = stmt.where.left, stmt.where.right
        assert isinstance(left, IsNull) and not left.negated
        assert isinstance(right, IsNull) and right.negated

    def test_in_list(self):
        stmt = parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, InList)
        assert len(stmt.where.options) == 3

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 10")
        assert isinstance(stmt.where, Between)

    def test_not(self):
        stmt = parse("SELECT a FROM t WHERE NOT a = 1")
        assert isinstance(stmt.where, UnaryOp)
        assert stmt.where.op == "not"

    def test_like(self):
        stmt = parse("SELECT a FROM t WHERE name LIKE 'ab%'")
        assert stmt.where.op == "like"


class TestInsert:
    def test_with_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert isinstance(stmt, Insert)
        assert stmt.columns == ("a", "b")
        assert len(stmt.values) == 2

    def test_without_columns(self):
        stmt = parse("INSERT INTO t VALUES (1, 2)")
        assert stmt.columns == ()

    def test_with_parameters(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (?, ?)")
        assert [p.index for p in stmt.values] == [0, 1]


class TestUpdate:
    def test_assignments(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = ?")
        assert isinstance(stmt, Update)
        assert len(stmt.assignments) == 2
        assert stmt.assignments[1].value.op == "+"

    def test_without_where(self):
        stmt = parse("UPDATE t SET a = 0")
        assert stmt.where is None


class TestDelete:
    def test_with_where(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, Delete)
        assert stmt.where is not None

    def test_without_where(self):
        assert parse("DELETE FROM t").where is None


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "SELEC a FROM t",
            "SELECT FROM t",
            "SELECT a",
            "SELECT a FROM t WHERE",
            "INSERT INTO t (a VALUES (1)",
            "UPDATE t SET",
            "SELECT a FROM t extra garbage (",
            "SELECT a FROM t;;",
        ],
    )
    def test_syntax_errors(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    def test_trailing_semicolon_allowed(self):
        assert isinstance(parse("SELECT a FROM t;"), Select)
