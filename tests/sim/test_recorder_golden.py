"""Golden traces: the recorder in :mod:`repro.sim.cluster` and the
generated message sizing must reproduce, bit for bit, the stages the
commit before their rewrite recorded.

A seeded TPC-C run (all three entry points) is digested -- every
stage's kind, duration, bytes and shard, plus ``cluster.clock.now`` --
for the lowest- and highest-budget partitions x {1, 4 shards} x {no
fault, ``set_shard_slowdown(1, 4.0)`` (shard 0 where there is only
one)}, on each rung.  The digests below were produced by
running :func:`trace_digest` on commit fcd66e5, the parent of the
rewrite.
"""

import hashlib

import pytest

from repro.core.pipeline import Pyxis
from repro.db import connect
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.interpreter import INTERP_MODES
from repro.sim.cluster import Cluster, ClusterConfig
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccScale,
    make_sharded_tpcc_database,
    make_tpcc_database,
)
from tests.conftest import tpcc_invocations

SCALE = TpccScale(warehouses=4, districts_per_warehouse=2,
                  customers_per_district=30, items=60)

# rung -> (budget, shards, slowed) -> (sha1 of the stages, clock.now).
# The rungs differ from one another in the last bits of a few CPU
# durations (the source rung multiplies visit counts by segment costs
# where the tree adds charge by charge); each is pinned on its own.
GOLDEN = {
    "source": {
        ('lowest', 1, False):
            ('ea410733786df5757a6c835c779a16fb26f53eea', 0.7654622479999962),
        ('lowest', 1, True):
            ('8713662a0d4b53ccbb81d945bc11706c25ad1160', 0.8275922479999919),
        ('lowest', 4, False):
            ('968d390e8eb2b569ccfbdedf577223de94245458', 0.764162247999996),
        ('lowest', 4, True):
            ('7ac6ecef8ba9f5ded1698846178051c578a20369', 0.7720222479999953),
        ('highest', 1, False):
            ('919613ac0717a5f55cc9143daed2685c05f17109', 0.064457552),
        ('highest', 1, True):
            ('95c305abb64eef82e001ea17f71d55d2c68cb24d', 0.14962731200000004),
        ('highest', 4, False):
            ('168fb0dfb8d29d9881a13316f7fc4927bc35ceea', 0.06315755200000002),
        ('highest', 4, True):
            ('77ea24657fb2ae1e26a334b09375003b1d5e5203', 0.07386270400000002),
    },
    "tree": {
        ('lowest', 1, False):
            ('026f5203842782b39ee5159f1f6b4be0d0f3339e', 0.7654622479999962),
        ('lowest', 1, True):
            ('7b9f08bc5b76c9f8484d21021443e27a594e09ea', 0.8275922479999919),
        ('lowest', 4, False):
            ('685f446e126a52f70f9ad6499d87d1768b116fed', 0.764162247999996),
        ('lowest', 4, True):
            ('d394a11a24938c6a86399e45e71921c4570d595d', 0.7720222479999953),
        ('highest', 1, False):
            ('7b46324bd1e5984e01cae7a50bf3ab4489685fbb', 0.06445755199999999),
        ('highest', 1, True):
            ('209f6470676d6882621b002346897e7c6403163d', 0.14962731199999998),
        ('highest', 4, False):
            ('14c506121ce5c051274c39a5b1eca98de469a5e1', 0.063157552),
        ('highest', 4, True):
            ('a7cfa252d3f6e7d4ddf8177b86e5c73e1e36f4e9', 0.07386270399999999),
    },
}


@pytest.fixture(scope="module")
def partitions():
    pyxis = Pyxis.from_source(TPCC_SOURCE, TPCC_ENTRY_POINTS)
    _, conn = make_tpcc_database(SCALE)

    def workload(profiler):
        for class_name, method, args in tpcc_invocations(SCALE, 31, 6):
            profiler.invoke(class_name, method, *args)

    pset = pyxis.partition(
        pyxis.profile_with(conn, workload), budgets=[0.0, 1e9]
    )
    return {"lowest": pset.lowest().compiled,
            "highest": pset.highest().compiled}


def trace_digest(compiled, shards, slowed, interp, sql_exec):
    """(sha1 over every stage of every trace, ``clock.now``)."""
    cluster = Cluster(ClusterConfig(db_shards=shards))
    if shards == 1:
        database, _ = make_tpcc_database(SCALE)
        conn = connect(database, sql_exec=sql_exec)
    else:
        database, conn = make_sharded_tpcc_database(
            SCALE, shards=shards, sql_exec=sql_exec
        )
        cluster.attach_sharded_database(database)
    if slowed:
        cluster.set_shard_slowdown(min(1, shards - 1), 4.0)
    app = PartitionedApp(compiled, cluster, conn, interp=interp)
    digest = hashlib.sha1()
    for class_name, method, args in tpcc_invocations(SCALE, 5, 6):
        trace = app.invoke_traced(class_name, method, *args).trace
        digest.update(repr((trace.name, [
            (s.kind.value, s.duration, s.nbytes, s.shard)
            for s in trace.stages
        ])).encode())
    return digest.hexdigest(), cluster.clock.now


@pytest.mark.parametrize("slowed", [False, True])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("budget", ["lowest", "highest"])
@pytest.mark.parametrize("rung", INTERP_MODES)
def test_traces_equal_the_parent_commits(
    partitions, rung, budget, shards, slowed
):
    got = trace_digest(partitions[budget], shards, slowed, rung, rung)
    assert got == GOLDEN[rung][(budget, shards, slowed)]
