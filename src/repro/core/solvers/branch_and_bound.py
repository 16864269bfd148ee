"""Exact BIP solver: a minimum s-t cut plus one knapsack row.

Without the budget row the program of Figure 5 *is* a minimum cut: APP
is the source, DB the sink, a folded ``linear`` term a terminal arc
(source -> i when placing i on DB costs, i -> sink when it saves) and
a free-free edge a pair of symmetric arcs.  One max-flow solves it;
of the minimum cuts the one with the smallest DB side is taken (the
tie-break rule in DESIGN.md).  If it fits the budget it is optimal.

Otherwise the budget row is relaxed with a multiplier ``lam >= 0``:
``min cost(x) + lam * (load(x) - room)`` is again a minimum cut, with
terminal arcs re-priced by ``lam * load``, and a lower bound for every
``lam``.  Secant steps between one cut over budget and one within it
maximise that bound; cuts within budget, and the ``warm_start`` seed,
feed the incumbent.  A node the bound cannot prune branches on the
heaviest variable on which the two last cuts disagree.  Presolve pins
to APP, at every node, each variable heavier than the budget left.

``problem.solve_stats`` records nodes, max-flows and the proven bound.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ilp import ILPProblem, SolverError

INF = float("inf")
# Residual capacities and cost differences below this are zero.
EPS = 1e-12
LOAD_SLACK = 1e-9
Cut = tuple[float, float, list[int]]  # (cost, DB load, values)


class NodeLimitError(SolverError):
    """The exact search ran out of nodes before proving optimality."""


class FlowNetwork:
    """Dinic's max-flow over flat arc lists; arc ``a`` pairs with
    ``a ^ 1``, its reverse."""

    def __init__(self, num_nodes: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self.head: list[int] = []   # arc -> the node it enters
        self.cap: list[float] = []  # arc -> residual capacity

    def add_arc(self, u: int, v: int, cap: float, back: float = 0.0) -> None:
        """Add ``u -> v`` (and ``v -> u`` with capacity ``back``)."""
        arc = len(self.head)
        self.adj[u].append(arc)
        self.adj[v].append(arc + 1)
        self.head += (v, u)
        self.cap += (cap, back)

    def max_flow(self, s: int, t: int) -> tuple[float, list[bool]]:
        """(flow value, sink side): the nodes that still reach ``t``
        form the sink side of the minimum cut with the fewest nodes."""
        adj, head, cap = self.adj, self.head, self.cap
        total = 0.0
        while True:
            # Residual distance to t; then a blocking flow, depth-first
            # along arcs that step one closer (``nxt[u]``: the first
            # arc of u not yet exhausted).
            dist = [-1] * len(adj)
            dist[t] = 0
            queue = [t]
            for v in queue:
                farther = dist[v] + 1
                for a in adj[v]:
                    u = head[a]
                    if dist[u] < 0 and cap[a ^ 1] > EPS:
                        dist[u] = farther
                        queue.append(u)
            if dist[s] < 0:
                return total, [d >= 0 for d in dist]
            nxt = [0] * len(adj)
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = min([cap[a] for a in path])
                    total += push
                    for a in path:
                        cap[a] -= push
                        cap[a ^ 1] += push
                    # Back to the tail of the first saturated arc.
                    for k, a in enumerate(path):
                        if cap[a] <= EPS:
                            break
                    u = head[a ^ 1]
                    del path[k:]
                    continue
                arcs = adj[u]
                closer = dist[u] - 1
                for k in range(nxt[u], len(arcs)):
                    a = arcs[k]
                    if cap[a] > EPS and dist[head[a]] == closer:
                        nxt[u] = k
                        path.append(a)
                        u = head[a]
                        break
                else:
                    if not path:
                        break
                    nxt[u] = len(arcs)
                    u = head[path.pop() ^ 1]
                    nxt[u] += 1


def solve_branch_and_bound(
    problem: ILPProblem,
    max_nodes: int = 100_000,
    warm_start: Optional[list[int]] = None,
) -> list[int]:
    n = problem.num_vars
    stats = problem.solve_stats = {"nodes": 0, "max_flows": 0}
    if n == 0:
        stats["lower_bound"] = problem.constant
        return []
    loads, linear = problem.loads, problem.linear
    # Sorted, so the answer cannot depend on the order of the edge list.
    edges = sorted(problem.edges)
    room = problem.budget + LOAD_SLACK  # as ``ILPProblem.feasible``

    source, sink = n, n + 1
    net = FlowNetwork(n + 2)
    for i in range(n):
        net.add_arc(source, i, 0.0)  # arc 4 * i
        net.add_arc(i, sink, 0.0)    # arc 4 * i + 2
    for i, j, weight in edges:
        net.add_arc(i, j, weight, weight)
    pristine = net.cap[:]

    def min_cut(fixed: list[int], lam: float) -> Cut:
        """(cost, load, values) minimising ``cost + lam * load`` over
        the assignments that agree with ``fixed`` (-1 where free)."""
        cap = net.cap
        cap[:] = pristine
        for i, pin in enumerate(fixed):
            if pin < 0:
                price = linear[i] + (lam * loads[i] if loads[i] else 0.0)
                cap[4 * i if price > 0 else 4 * i + 2] = abs(price)
            else:
                cap[4 * i + 2 if pin else 4 * i] = INF
        stats["max_flows"] += 1
        side = net.max_flow(source, sink)[1]
        return evaluate([int(side[i]) for i in range(n)])

    def evaluate(values: list[int]) -> Cut:
        cost = problem.constant + sum(c for c, v in zip(linear, values) if v)
        cost += sum(w for i, j, w in edges if values[i] != values[j])
        return cost, problem.db_load_of(values), values

    best: Cut = (INF, INF, [])

    def offer(cut: Cut) -> None:
        """Keep the cheaper; at equal cost the lighter DB side, then the
        assignment with the lowest-indexed variables on APP."""
        nonlocal best
        if cut[1] <= room and (
            cut[0] < best[0] - EPS
            or (cut[0] <= best[0] + EPS and cut[1:] < best[1:])
        ):
            best = cut

    if warm_start is not None and len(warm_start) == n:
        offer(evaluate(list(warm_start)))
    proven = INF
    # Depth-first; an entry is (the parent's bound, the pins, the
    # parent's best multiplier -- the child's is close to it).
    stack = [(-INF, [-1] * n, 0.0)]
    while stack:
        bound, fixed, lam = stack.pop()
        if bound >= best[0] - EPS:
            proven = min(proven, bound)
            continue
        if stats["nodes"] >= max_nodes:
            floor = min([proven, bound] + [entry[0] for entry in stack])
            raise NodeLimitError(
                f"exact search stopped after {max_nodes} nodes "
                f"({n} variables, {len(edges)} edges, budget "
                f"{problem.budget:g}): best objective {best[0]:.9g}, "
                f"proven lower bound {floor:.9g}, gap "
                f"{best[0] - floor:.3g}; raise max_nodes or use "
                "--solver scipy"
            )
        stats["nodes"] += 1
        left = room - problem.db_load_of([pin == 1 for pin in fixed])
        if left < 0:  # by an ulp: the parent's presolve let the pin pass
            continue
        for i in range(n):
            if fixed[i] < 0 and loads[i] > left:
                fixed[i] = 0
        # Maximise the dual: every cut bounds the node from below, so
        # stop as soon as the incumbent is out of reach.  ``low`` is
        # the last cut over budget, ``high`` the last one within it.
        low = high = None
        while True:
            cut = min_cut(fixed, lam)
            offer(cut)
            if lam < INF:
                bound = max(bound, cut[0] + lam * (cut[1] - room))
            if bound >= best[0] - EPS or (
                low and high
                and cut[0] + lam * cut[1] >= low[0] + lam * low[1] - EPS
            ):
                break
            if cut[1] <= room:
                high = cut
            else:
                low = cut
            if low is None:
                lam = 0.0
            elif high is None:
                lam = INF
            else:
                lam = (high[0] - low[0]) / (low[1] - high[1])
        if bound >= best[0] - EPS:
            proven = min(proven, bound)
            continue
        branch = max(
            (i for i in range(n) if low[2][i] != high[2][i]),
            key=lambda i: (loads[i], -i),
        )
        for pin in (1, 0):
            child = fixed[:]
            child[branch] = pin
            stack.append((bound, child, lam))
    stats["lower_bound"] = min(proven, best[0])
    return best[2]
