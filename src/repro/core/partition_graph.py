"""The partition graph (Section 4.2).

A program dependence graph augmented with:

* **weights** on edges modelling the cost of satisfying a dependency
  remotely, and on nodes modelling server CPU load;
* **pins** forcing nodes to one server (database code -> DB, console
  output -> APP);
* **co-location groups** forcing sets of nodes onto the same (free)
  placement -- used for JDBC calls, which share unserializable driver
  state, and for arrays, which live where their allocation site lives.

Node id conventions: ``s<sid>`` statements, ``f:<Class>.<field>``
fields, ``a<sid>`` arrays/native allocations, ``entry:<func>`` entry
points, ``dbcode`` the database.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional


class Placement(enum.Enum):
    APP = "app"
    DB = "db"

    @property
    def other(self) -> "Placement":
        return Placement.DB if self is Placement.APP else Placement.APP


class NodeKind(enum.Enum):
    STMT = "stmt"
    FIELD = "field"
    ARRAY = "array"
    DBCODE = "dbcode"
    ENTRY = "entry"


class EdgeKind(enum.Enum):
    CONTROL = "control"
    DATA = "data"
    UPDATE = "update"
    # Unweighted ordering edges (output / anti dependencies) used only
    # during code generation (Section 4.4).
    ORDER = "order"

    @property
    def weighted(self) -> bool:
        return self is not EdgeKind.ORDER


@dataclass
class Node:
    id: str
    kind: NodeKind
    weight: float = 0.0  # CPU load contribution (cnt(s) for statements)
    pin: Optional[Placement] = None
    sid: Optional[int] = None
    label: str = ""


@dataclass
class Edge:
    src: str
    dst: str
    kind: EdgeKind
    weight: float = 0.0
    label: str = ""
    # Weight *recipes* recorded at structure-build time so a new
    # profile can recompute ``weight`` without re-running analysis
    # (see repro.core.builder.reweight_graph).  Parallel edges of the
    # same kind merge by accumulating their specs.
    specs: list = field(default_factory=list)


def stmt_node_id(sid: int) -> str:
    return f"s{sid}"


def field_node_id(class_name: str, field_name: str) -> str:
    return f"f:{class_name}.{field_name}"


def array_node_id(sid: int) -> str:
    return f"a{sid}"


def entry_node_id(func: str) -> str:
    return f"entry:{func}"


DBCODE_NODE_ID = "dbcode"


class PartitionGraph:
    """Mutable partition graph with weight/pin/co-location bookkeeping."""

    def __init__(self) -> None:
        self.nodes: dict[str, Node] = {}
        self._edges: dict[tuple[str, str, EdgeKind], Edge] = {}
        self.colocate_groups: list[set[str]] = []

    # -- construction -----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        existing = self.nodes.get(node.id)
        if existing is not None:
            return existing
        self.nodes[node.id] = node
        return node

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self.nodes

    def add_edge(
        self,
        src: str,
        dst: str,
        kind: EdgeKind,
        weight: float = 0.0,
        label: str = "",
        spec=None,
    ) -> None:
        """Add an edge; parallel edges of the same kind merge weights."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError(f"edge endpoints must exist: {src} -> {dst}")
        if src == dst:
            return  # self-dependencies never cost anything
        key = (src, dst, kind)
        edge = self._edges.get(key)
        if edge is None:
            edge = Edge(src, dst, kind, weight, label)
            if spec is not None:
                edge.specs.append(spec)
            self._edges[key] = edge
        else:
            edge.weight += weight
            if spec is not None:
                edge.specs.append(spec)

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    def weighted_edges(self) -> list[Edge]:
        return [e for e in self._edges.values() if e.kind.weighted]

    def order_edges(self) -> list[Edge]:
        return [e for e in self._edges.values() if e.kind is EdgeKind.ORDER]

    def pin(self, node_id: str, placement: Placement) -> None:
        node = self.nodes[node_id]
        if node.pin is not None and node.pin is not placement:
            raise ValueError(
                f"conflicting pins for {node_id}: {node.pin} vs {placement}"
            )
        node.pin = placement

    def colocate(self, node_ids: Iterable[str]) -> None:
        """Force ``node_ids`` onto the same placement (one ILP variable)."""
        group = {nid for nid in node_ids}
        for nid in group:
            if nid not in self.nodes:
                raise KeyError(f"cannot colocate unknown node {nid}")
        if len(group) > 1:
            self.colocate_groups.append(group)

    # -- evaluation ----------------------------------------------------------------

    def db_load(self, assignment: dict[str, Placement]) -> float:
        """Total node weight assigned to the database server."""
        return sum(
            node.weight
            for node in self.nodes.values()
            if assignment[node.id] is Placement.DB
        )

    def check_assignment(self, assignment: dict[str, Placement]) -> None:
        """Validate pins and co-location; raises ValueError on violation."""
        for node in self.nodes.values():
            if node.id not in assignment:
                raise ValueError(f"assignment missing node {node.id}")
            if node.pin is not None and assignment[node.id] is not node.pin:
                raise ValueError(
                    f"assignment violates pin on {node.id} "
                    f"({assignment[node.id]} != {node.pin})"
                )
        for group in self.colocate_groups:
            placements = {assignment[nid] for nid in group}
            if len(placements) > 1:
                raise ValueError(
                    f"assignment splits co-location group {sorted(group)}"
                )

    # -- conveniences ----------------------------------------------------------------

    def summary(self) -> str:
        kinds: dict[str, int] = {}
        for node in self.nodes.values():
            kinds[node.kind.value] = kinds.get(node.kind.value, 0) + 1
        edge_kinds: dict[str, int] = {}
        for edge in self._edges.values():
            edge_kinds[edge.kind.value] = edge_kinds.get(edge.kind.value, 0) + 1
        return (
            f"PartitionGraph(nodes={kinds}, edges={edge_kinds}, "
            f"colocate_groups={len(self.colocate_groups)})"
        )
