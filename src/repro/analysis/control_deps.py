"""Control dependence (Ferrante-Ottenstein-Warren construction).

A statement *y* is control dependent on a branch *x* when one outgoing
edge of *x* always leads to *y* (i.e. *y* post-dominates that edge's
target) while another edge can avoid *y*.  Computed per function from
the post-dominator tree: for each CFG edge ``x -> y`` where ``y`` does
not post-dominate ``x``, every node on the post-dominator tree path
from ``y`` up to (but excluding) ``ipdom(x)`` is control dependent on
``x``.

Statements control dependent on ENTRY are the method's top-level
statements; the partition-graph builder re-targets those dependencies
to each call site of the method (the paper summarizes interprocedural
effects at call sites, Section 4.4 footnote).
"""

from __future__ import annotations

from repro.lang.cfg import CFG, ENTRY, EXIT
from repro.analysis.dominance import post_dominators


def control_dependencies(cfg: CFG) -> dict[int, set[int]]:
    """Map each controlling node to the set of nodes dependent on it.

    Keys may include ENTRY; values only contain real statement ids.
    The CFG is augmented with the standard virtual ENTRY -> EXIT edge
    so unconditionally executed statements come out dependent on ENTRY.
    """
    augmented = _augment(cfg)
    pdom = post_dominators(augmented)
    deps: dict[int, set[int]] = {}
    for x in augmented.nodes:
        if x == EXIT:
            continue
        for y in augmented.succs(x):
            if y == EXIT:
                continue
            # Skip if y post-dominates x: that edge cannot create
            # control dependence.
            if pdom.dominates(y, x):
                continue
            # Walk from y up the post-dominator tree to ipdom(x)
            # (exclusive); every visited node is dependent on x.
            stop = pdom.parent(x)
            current: int | None = y
            guard = 0
            while current is not None and current != stop and current != EXIT:
                if current >= 0 and current != x:
                    deps.setdefault(x, set()).add(current)
                elif current >= 0 and current == x:
                    # A loop header is control dependent on itself (the
                    # back edge decides whether it runs again); record it.
                    deps.setdefault(x, set()).add(current)
                current = pdom.parent(current)
                guard += 1
                if guard > len(augmented.nodes) + 2:  # pragma: no cover
                    raise RuntimeError("post-dominator walk did not terminate")
    return deps


def _augment(cfg: CFG) -> CFG:
    """Copy ``cfg`` and add the virtual ENTRY -> EXIT edge."""
    copy = CFG(cfg.func_name)
    for sid, node in cfg.nodes.items():
        copy.ensure(sid)
        for succ in node.succs:
            copy.add_edge(sid, succ)
    copy.add_edge(ENTRY, EXIT)
    return copy
