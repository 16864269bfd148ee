"""Call graph and interprocedural summaries."""

import pytest

from repro.analysis.interproc import AnalysisError, build_call_graph
from repro.lang import parse_source


def graph_for(source: str):
    program = parse_source(source)
    return program, build_call_graph(program)


class TestCallGraph:
    def test_call_sites_resolved(self):
        source = """
class T:
    def m(self, x):
        a = self.f(x)
        self.g(a)
        return a
    def f(self, v):
        return v + 1
    def g(self, v):
        self.last = v
"""
        program, cg = graph_for(source)
        callees = {c for site in cg.call_sites.values() for c in site.callees}
        assert callees == {"T.f", "T.g"}

    def test_result_var_tracked(self):
        source = """
class T:
    def m(self, x):
        a = self.f(x)
        return a
    def f(self, v):
        return v
"""
        program, cg = graph_for(source)
        site = next(iter(cg.call_sites.values()))
        assert site.result_var == "a"

    def test_callers_of(self):
        source = """
class T:
    def m(self, x):
        self.f(x)
        self.f(x)
        return x
    def f(self, v):
        return v
"""
        program, cg = graph_for(source)
        assert len(cg.callers_of("T.f")) == 2

    def test_function_of(self):
        source = """
class T:
    def m(self, x):
        y = x + 1
        return y
"""
        program, cg = graph_for(source)
        sid = program.function("T", "m").body.stmts[0].sid
        assert cg.function_of(sid) == "T.m"

    def test_constructor_edges(self):
        source = """
class Node:
    def __init__(self):
        self.v = 0

class T:
    def m(self, x):
        n = Node()
        return x
"""
        program, cg = graph_for(source)
        assert any(
            "Node.__init__" in site.callees
            for site in cg.call_sites.values()
        )


class TestRecursionRejection:
    def test_direct_recursion_rejected(self):
        source = """
class T:
    def m(self, x):
        return self.m(x)
"""
        with pytest.raises(AnalysisError, match="recursive"):
            graph_for(source)

    def test_mutual_recursion_rejected(self):
        source = """
class T:
    def a(self, x):
        return self.b(x)
    def b(self, x):
        return self.a(x)
"""
        with pytest.raises(AnalysisError, match="recursive"):
            graph_for(source)

    def test_diamond_is_fine(self):
        source = """
class T:
    def m(self, x):
        a = self.left(x)
        b = self.right(x)
        return a + b
    def left(self, x):
        return self.shared(x)
    def right(self, x):
        return self.shared(x)
    def shared(self, x):
        return x
"""
        graph_for(source)  # should not raise


class TestFunctionAnalysis:
    def test_entry_level_sids(self):
        source = """
class T:
    def m(self, x):
        a = x + 1
        if a > 0:
            b = 1
        return a
"""
        program, cg = graph_for(source)
        analysis = cg.analysis("T.m")
        entry_level = analysis.entry_level_sids()
        func = program.function("T", "m")
        top_sids = {s.sid for s in func.body.stmts}
        assert entry_level == top_sids

    def test_return_stmts(self):
        source = """
class T:
    def m(self, x):
        if x > 0:
            return 1
        return 2
"""
        program, cg = graph_for(source)
        assert len(cg.analysis("T.m").return_stmts()) == 2
