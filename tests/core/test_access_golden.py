"""Golden digests of what the partitioner derives from heap accesses.

The partition graph prices which field or allocation site each
statement touches, and the sync plan ships exactly those locations;
both must read one derivation of them.  Two SHA-1s per program pin the
result:

* the graph digest covers :attr:`PartitionService.structure` -- every
  node, every edge with its kind, label and ``WeightSpec`` recipes, in
  insertion order, plus pins and co-location groups;
* the sync digest covers ``field_sync`` / ``array_sync`` of the sync
  plan at every default-ladder placement (the programs of
  ``tests/core/workload_graphs.CASES``) and at the first
  ``RANDOM_DRAWS`` random legal placements of
  ``tests/pyxil/test_random_placements.py`` (the programs it draws
  for).

A refactor of either derivation must leave every digest unchanged.
"""

import hashlib
import random

import pytest

from repro.core.ilp import PartitioningResult
from repro.core.pipeline import Pyxis
from repro.pyxil.program import PlacedProgram
from repro.pyxil.sync_insertion import compute_sync_plan
from tests.conftest import ORDER_ENTRY_POINTS, ORDER_SOURCE
from tests.core.workload_graphs import CASES
from tests.pyxil.test_random_placements import PROGRAMS, random_assignment

RANDOM_DRAWS = 10

# case -> (graph digest, sync digest)
GOLDEN = {
    "linked_list": ("4d4725d8710ffb8c5a64e20711318ed6f3e878cd",
                    "5568ce04a3fa2a38839ac001988ee36c2a3ed87a"),
    "order": ("2ecef20735b45e8b9ca0802acfce1980bfb4b5b9",
              "d8a6fbd3528cc77f26f5f9899ddd2d3c4b73fd61"),
    "storefront": ("b84cbb7e2ac25a5f0b91072a2877e1204f91938c",
                   "188a41a06d6e90a0836f315465b0ef234b6dbc11"),
    "three_phase": ("6fb17c48ead16a4509bad683613aac2d4d3b91f4",
                    "edf13c2ea92a4d0a43e4f4514f379be45dcd2412"),
    "tpcc": ("3dbfd840413f551ddd7f733d6f47bed384872fd8",
             "22a362c6300511e7cc8b5f0452c48e32322419fd"),
    "tpcc_w4": ("3dbfd840413f551ddd7f733d6f47bed384872fd8",
                "dfc5d736c1f2ed76997d8c378eb51d36416948d1"),
    "tpcw": ("8941d4fd90172bd8805b7a3f5a47c9d381e61cae",
             "243b6c3b0989a47fe979873710d1c166cf279199"),
}


def _sha1(lines):
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def graph_digest(graph):
    # Sorted: call-graph callee sets are string sets, so the order in
    # which edges (and an edge's merged recipes) arrive varies with the
    # hash seed.
    lines = [
        f"node {n.id} {n.kind.value} pin={n.pin and n.pin.value} "
        f"sid={n.sid} {n.label!r}"
        for n in graph.nodes.values()
    ]
    lines += [
        f"edge {e.src} {e.dst} {e.kind.value} {e.label!r} "
        f"{sorted(map(repr, e.specs))}"
        for e in graph.edges
    ]
    lines += [f"group {sorted(g)}" for g in graph.colocate_groups]
    return _sha1(sorted(lines))


def sync_lines(plan):
    return [
        f"fields {sorted(plan.field_sync.items())}",
        f"arrays {sorted(plan.array_sync.items())}",
    ]


def _session(name):
    if name == "order":
        return Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS), None
    return CASES[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_graph_and_sync_plan_digests_are_unchanged(name):
    pyxis, profile = _session(name)
    graph = pyxis.structure
    lines = []
    if profile is not None:
        for part in pyxis.partition(profile).partitions:
            lines += sync_lines(part.sync_plan)
    if name in PROGRAMS:
        rng = random.Random(f"placements:{name}")
        for draw in range(RANDOM_DRAWS):
            result = PartitioningResult(
                assignment=random_assignment(graph, rng), objective=0.0,
                db_load=0.0, budget=0.0, solver="random",
            )
            placed = PlacedProgram(pyxis.program, result, name=f"draw{draw}")
            lines += sync_lines(
                compute_sync_plan(placed, pyxis.access_map)
            )
    assert (graph_digest(graph), _sha1(lines)) == GOLDEN[name]
