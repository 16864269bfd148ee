"""Front-end parser: subset coverage and loud rejection."""

import pytest

from repro.lang import parse_source
from repro.lang.errors import UnsupportedConstructError
from repro.lang.ir import (
    Assign,
    BinExpr,
    CallExpr,
    CallKind,
    Const,
    FieldLV,
    ForEach,
    If,
    ListLiteral,
    Return,
    VarLV,
    VarRef,
    While,
)


def parse_method(body: str, extra: str = ""):
    source = f"""
class T:
    def m(self, x):
{body}
{extra}
"""
    program = parse_source(source, entry_points=[("T", "m")])
    return program.function("T", "m")


class TestStatements:
    def test_simple_assignment(self):
        func = parse_method("        y = x + 1")
        stmt = func.body.stmts[0]
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, BinExpr)

    def test_field_assignment(self):
        func = parse_method("        self.total = x")
        stmt = func.body.stmts[0]
        assert isinstance(stmt.target, FieldLV)

    def test_augmented_assignment_desugars(self):
        func = parse_method("        x += 2\n        return x")
        # normalized: read, add, write
        kinds = [type(s).__name__ for s in func.body.stmts]
        assert kinds[-1] == "Return"
        assert any(
            isinstance(s, Assign) and isinstance(s.target, VarLV)
            and s.target.name == "x"
            for s in func.body.stmts
        )

    def test_if_else(self):
        func = parse_method(
            "        if x > 0:\n            y = 1\n        else:\n            y = 2"
        )
        branch = [s for s in func.body.stmts if isinstance(s, If)][0]
        assert len(branch.then.stmts) == 1
        assert len(branch.orelse.stmts) == 1

    def test_while_with_header(self):
        func = parse_method(
            "        while x > 0:\n            x = x - 1"
        )
        loop = [s for s in func.body.stmts if isinstance(s, While)][0]
        assert loop.header.stmts  # the condition temp is recomputed per test

    def test_for_each(self):
        func = parse_method(
            "        t = [1, 2]\n        for v in t:\n            x = v"
        )
        loop = [s for s in func.body.stmts if isinstance(s, ForEach)][0]
        assert loop.var == "v"

    def test_break_continue(self):
        func = parse_method(
            "        while x > 0:\n"
            "            if x == 1:\n                break\n"
            "            if x == 2:\n                continue\n"
            "            x = x - 1"
        )
        names = [type(s).__name__ for s in func.walk()]
        assert "Break" in names and "Continue" in names

    def test_return_value_normalized_to_atom(self):
        func = parse_method("        return x * 2")
        ret = [s for s in func.walk() if isinstance(s, Return)][0]
        assert isinstance(ret.value, VarRef)

    def test_docstring_skipped(self):
        func = parse_method('        "doc"\n        y = 1')
        assert len(func.body.stmts) == 1

    def test_pass_skipped(self):
        func = parse_method("        pass")
        assert len(func.body.stmts) == 0


class TestCalls:
    def test_db_call(self):
        func = parse_method('        r = self.db.query_scalar("SELECT 1", x)')
        call = func.body.stmts[-1].value
        assert call.kind is CallKind.DB
        assert call.name == "query_scalar"

    def test_unknown_db_api_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_method('        self.db.run("x")')

    def test_self_method_call(self):
        func = parse_method(
            "        self.helper(x)",
            extra="    def helper(self, a):\n        return a",
        )
        call = func.body.stmts[-1].expr
        assert call.kind is CallKind.METHOD
        assert call.target == VarRef("self")

    def test_native_function(self):
        func = parse_method("        n = len(x)")
        assert func.body.stmts[-1].value.kind is CallKind.NATIVE

    def test_unknown_function_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_method("        y = mystery(x)")

    def test_native_method(self):
        func = parse_method("        t = [1]\n        t.append(x)")
        call = func.body.stmts[-1].expr
        assert call.kind is CallKind.NATIVE_METHOD

    def test_alloc_object(self):
        source = """
class Node:
    def set(self, v):
        self.v = v

class T:
    def m(self, x):
        n = Node()
        n.set(x)
        return x
"""
        program = parse_source(source, entry_points=[("T", "m")])
        func = program.function("T", "m")
        alloc = func.body.stmts[0].value
        assert alloc.kind is CallKind.ALLOC_OBJECT
        assert alloc.name == "Node"

    def test_keyword_arguments_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_method("        y = len(x=1)")


class TestExpressions:
    def test_list_literal(self):
        func = parse_method("        t = [x, 1]")
        assert isinstance(func.body.stmts[-1].value, ListLiteral)

    def test_list_repeat_is_allocation(self):
        func = parse_method("        t = [0.0] * x")
        call = func.body.stmts[-1].value
        assert call.kind is CallKind.ALLOC_LIST
        assert call.name == "repeat"

    def test_nested_expression_flattened(self):
        func = parse_method("        y = (x + 1) * (x - 2)")
        # Three-address form: two temps plus the final assignment.
        assigns = [s for s in func.body.stmts if isinstance(s, Assign)]
        assert len(assigns) == 3

    def test_bool_ops_strict(self):
        func = parse_method("        y = x > 1 and x < 5")
        final = func.body.stmts[-1].value
        assert isinstance(final, BinExpr)
        assert final.op == "and"

    def test_comparison_operators(self):
        for op_text, op in [("==", "=="), ("!=", "!="), ("<=", "<=")]:
            func = parse_method(f"        y = x {op_text} 3")
            assert func.body.stmts[-1].value.op == op

    def test_unary(self):
        func = parse_method("        y = -x\n        z = not y")
        assert func.body.stmts[0].value.op == "-"
        assert func.body.stmts[1].value.op == "not"

    def test_modulo_and_floordiv(self):
        func = parse_method("        y = x % 3\n        z = x // 2")
        assert func.body.stmts[0].value.op == "%"
        assert func.body.stmts[1].value.op == "//"


class TestRejections:
    @pytest.mark.parametrize(
        "body",
        [
            "        y = [i for i in x]",       # comprehension
            "        a, b = x, x",              # tuple unpack
            "        y = x if x else 0",        # ternary
            "        y = lambda: 1",            # lambda
            "        del x",                    # del
            "        y = f'{x}'",               # f-string
            "        import os",                # import
            "        y = x ** 2",               # power
            "        with x:\n            pass",  # with
            "        try:\n            pass\n        except Exception:\n            pass",
            "        y = x < 1 < 2",            # chained comparison
            "        self.db = x",              # rebinding the connection
            "        y = self.db",              # db escaping
        ],
    )
    def test_unsupported_constructs(self, body):
        with pytest.raises(UnsupportedConstructError):
            parse_method(body)

    def test_method_without_self_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_source("class T:\n    def m(x):\n        return x")

    def test_default_args_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_source("class T:\n    def m(self, x=1):\n        return x")

    def test_no_classes_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse_source("def f():\n    return 1")


class TestProgramStructure:
    def test_fields_collected(self):
        source = """
class T:
    def m(self, x):
        self.a = x
        self.b = 1
        return self.c
"""
        program = parse_source(source, entry_points=[("T", "m")])
        assert program.cls("T").fields == ["a", "b", "c"]

    def test_default_entry_points_are_public_methods(self):
        source = """
class T:
    def visible(self, x):
        return x
    def _hidden(self, x):
        return x
"""
        program = parse_source(source)
        assert ("T", "visible") in program.entry_points
        assert ("T", "_hidden") not in program.entry_points

    @pytest.mark.parametrize("entry", [("Missing", "m"), ("T", "missing")])
    def test_bad_entry_point_is_named(self, entry):
        source = """
class T:
    def m(self, x):
        return x
"""
        with pytest.raises(UnsupportedConstructError,
                           match=r"entry point %s\.%s " % entry):
            parse_source(source, entry_points=[("T", "m"), entry])

    def test_sids_unique(self):
        source = """
class T:
    def a(self, x):
        y = x + 1
        return y
    def b(self, x):
        z = x * 2
        return z
"""
        program = parse_source(source)
        program.validate()
