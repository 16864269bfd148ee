"""The partition graph comes out in the same order under every hash seed.

Call-graph callee sets are string sets, whose iteration order follows
``PYTHONHASHSEED``.  Anything built by walking them -- the partition
graph's edges, an edge's merged ``WeightSpec`` recipes -- must walk
them sorted, or two processes build the same graph in two orders and
whatever sums or breaks ties along that order may differ.  This test
builds the structure of the seven programs (``workload_graphs.CASES``
plus the running example) in two subprocesses under two hash seeds and
compares digests taken in insertion order.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import hashlib
from repro.core.pipeline import Pyxis
from tests.conftest import ORDER_ENTRY_POINTS, ORDER_SOURCE
from tests.core.workload_graphs import CASES

def digest(graph):
    lines = [f"node {n.id} {n.kind.value} {n.label!r}"
             for n in graph.nodes.values()]
    lines += [f"edge {e.src} {e.dst} {e.kind.value} {e.label!r} "
              f"{list(map(repr, e.specs))}" for e in graph.edges]
    lines += [f"group {sorted(g)}" for g in graph.colocate_groups]
    return hashlib.sha1("\\n".join(lines).encode()).hexdigest()

sessions = {"order": Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)}
sessions.update((name, build()[0]) for name, build in CASES.items())
for name in sorted(sessions):
    print(name, digest(sessions[name].structure))
"""


def _digests(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    return dict(line.split() for line in out.splitlines())


def test_structure_insertion_order_is_independent_of_the_hash_seed():
    first, second = _digests(0), _digests(1)
    assert len(first) == 7
    assert first == second
