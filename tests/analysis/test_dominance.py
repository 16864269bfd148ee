"""Dominator and post-dominator computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dominance import dominators, post_dominators
from repro.lang import build_cfg, parse_source
from repro.lang.cfg import CFG, ENTRY, EXIT
from repro.lang.ir import If, Return, While


def cfg_for(body: str):
    source = f"class T:\n    def m(self, x):\n{body}"
    program = parse_source(source, entry_points=[("T", "m")])
    func = program.function("T", "m")
    return func, build_cfg(func)


class TestDominators:
    def test_straight_line_chain(self):
        func, cfg = cfg_for("        a = x\n        b = a\n        return b")
        dom = dominators(cfg)
        sids = [s.sid for s in func.body.stmts]
        assert dom.idom[sids[0]] == ENTRY
        assert dom.idom[sids[1]] == sids[0]
        assert dom.idom[sids[2]] == sids[1]

    def test_branch_join_dominated_by_condition(self):
        func, cfg = cfg_for(
            "        if x > 0:\n            a = 1\n"
            "        else:\n            a = 2\n"
            "        return a"
        )
        dom = dominators(cfg)
        branch = next(s for s in func.walk() if isinstance(s, If))
        ret = next(s for s in func.walk() if isinstance(s, Return))
        # Neither branch arm dominates the join; the condition does.
        assert dom.idom[ret.sid] == branch.sid

    def test_reflexive(self):
        func, cfg = cfg_for("        return x")
        dom = dominators(cfg)
        for sid in cfg.sids():
            assert dom.dominates(sid, sid)

    def test_entry_dominates_everything_reachable(self):
        func, cfg = cfg_for(
            "        while x > 0:\n            x = x - 1\n        return x"
        )
        dom = dominators(cfg)
        for sid in cfg.sids():
            assert dom.dominates(ENTRY, sid)


class TestPostDominators:
    def test_exit_postdominates_everything(self):
        func, cfg = cfg_for(
            "        if x > 0:\n            a = 1\n        return x"
        )
        pdom = post_dominators(cfg)
        for sid in cfg.sids():
            assert pdom.dominates(EXIT, sid)

    def test_join_postdominates_branch(self):
        func, cfg = cfg_for(
            "        if x > 0:\n            a = 1\n"
            "        else:\n            a = 2\n"
            "        return a"
        )
        pdom = post_dominators(cfg)
        branch = next(s for s in func.walk() if isinstance(s, If))
        ret = next(s for s in func.walk() if isinstance(s, Return))
        assert pdom.dominates(ret.sid, branch.sid)

    def test_branch_arm_does_not_postdominate(self):
        func, cfg = cfg_for(
            "        if x > 0:\n            a = 1\n"
            "        else:\n            a = 2\n"
            "        return a"
        )
        pdom = post_dominators(cfg)
        branch = next(s for s in func.walk() if isinstance(s, If))
        then_sid = branch.then.stmts[0].sid
        assert not pdom.dominates(then_sid, branch.sid)

    def test_loop_body_does_not_postdominate_header(self):
        func, cfg = cfg_for(
            "        while x > 0:\n            x = x - 1\n        return x"
        )
        pdom = post_dominators(cfg)
        loop = next(s for s in func.walk() if isinstance(s, While))
        body_sid = loop.body.stmts[-1].sid
        assert not pdom.dominates(body_sid, loop.sid)


@st.composite
def random_cfgs(draw):
    """Random connected DAG-ish CFGs rooted at ENTRY, sunk at EXIT."""
    n = draw(st.integers(2, 10))
    cfg = CFG("random")
    nodes = list(range(1, n + 1))
    cfg.add_edge(ENTRY, 1)
    for node in nodes:
        # Each node gets 1-2 successors among later nodes or EXIT.
        n_succ = draw(st.integers(1, 2))
        for _ in range(n_succ):
            later = [m for m in nodes if m > node]
            succ = draw(st.sampled_from(later + [EXIT]))
            cfg.add_edge(node, succ)
    return cfg


@settings(max_examples=60, deadline=None)
@given(random_cfgs())
def test_dominance_properties_on_random_graphs(cfg):
    """Properties: idom is a strict dominator; dom sets are consistent
    with idom chains; ENTRY dominates every reachable node."""
    dom = dominators(cfg)
    for node, parents in dom.idom.items():
        assert dom.strictly_dominates(dom.idom[node], node)
    for node in dom.dom:
        if node == ENTRY:
            continue
        assert ENTRY in dom.dom[node]
        # Every strict dominator appears on the idom chain.
        chain, current = {node}, node
        while current != dom.root and current in dom.idom:
            current = dom.idom[current]
            chain.add(current)
        assert dom.dom[node] <= chain


@settings(max_examples=60, deadline=None)
@given(random_cfgs())
def test_postdominance_mirrors_dominance_of_reverse(cfg):
    pdom = post_dominators(cfg)
    for node in pdom.dom:
        if node == EXIT:
            continue
        assert EXIT in pdom.dom[node]
