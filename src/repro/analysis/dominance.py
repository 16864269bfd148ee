"""Dominator and post-dominator trees.

Uses the classic iterative dataflow formulation (adequate at our CFG
sizes and easy to verify).  Post-dominators are dominators of the
reversed CFG rooted at EXIT; they feed the Ferrante-Ottenstein-Warren
control-dependence construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.lang.cfg import CFG, ENTRY, EXIT


@dataclass
class DominatorTree:
    """Result of a dominance computation.

    ``idom`` maps each node to its immediate dominator (absent for the
    root); ``dom`` maps each node to the full set of its dominators
    (including itself).
    """

    root: int
    idom: dict[int, int] = field(default_factory=dict)
    dom: dict[int, frozenset[int]] = field(default_factory=dict)

    def dominates(self, a: int, b: int) -> bool:
        """True if ``a`` dominates ``b`` (reflexive)."""
        return a in self.dom.get(b, frozenset())

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def parent(self, node: int) -> Optional[int]:
        return self.idom.get(node)


def _compute(
    nodes: list[int],
    root: int,
    preds: Callable[[int], list[int]],
) -> DominatorTree:
    """Iterative dominator computation for ``root`` over ``nodes``."""
    reachable = _reachable_from(root, nodes, preds)
    universe = frozenset(reachable)
    dom: dict[int, frozenset[int]] = {n: universe for n in reachable}
    dom[root] = frozenset({root})
    changed = True
    while changed:
        changed = False
        for node in reachable:
            if node == root:
                continue
            node_preds = [p for p in preds(node) if p in dom]
            if node_preds:
                merged = dom[node_preds[0]]
                for pred in node_preds[1:]:
                    merged = merged & dom[pred]
            else:
                merged = frozenset()
            new_dom = merged | {node}
            if new_dom != dom[node]:
                dom[node] = new_dom
                changed = True

    idom: dict[int, int] = {}
    for node in reachable:
        if node == root:
            continue
        strict = dom[node] - {node}
        # The immediate dominator is the strict dominator that all
        # other strict dominators dominate (the closest one to node).
        for candidate in strict:
            if all(
                other in dom[candidate] or other == candidate
                for other in strict
            ):
                idom[node] = candidate
                break
    return DominatorTree(root=root, idom=idom, dom=dom)


def _reachable_from(
    root: int, nodes: list[int], preds: Callable[[int], list[int]]
) -> list[int]:
    """Nodes reachable from root following the *forward* direction.

    ``preds`` here is the predecessor function of the traversal
    direction's reverse; we need successors, so invert: a node m is a
    successor of n iff n is in preds(m).
    """
    succ_map: dict[int, list[int]] = {n: [] for n in nodes}
    for node in nodes:
        for pred in preds(node):
            if pred in succ_map:
                succ_map[pred].append(node)
    seen = {root}
    stack = [root]
    order = [root]
    while stack:
        current = stack.pop()
        for nxt in succ_map.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
                order.append(nxt)
    return order


def dominators(cfg: CFG) -> DominatorTree:
    """Dominator tree rooted at ENTRY."""
    nodes = list(cfg.nodes)
    return _compute(nodes, ENTRY, cfg.preds)


def post_dominators(cfg: CFG) -> DominatorTree:
    """Post-dominator tree rooted at EXIT (dominators of reversed CFG)."""
    nodes = list(cfg.nodes)
    return _compute(nodes, EXIT, cfg.succs)
