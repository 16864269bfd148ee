"""Generated block source for every production placement, pinned.

Each signature below is ``source_signature`` of the module
:func:`~repro.runtime.codegen_blocks.ensure_program_source` generates
for one rung of the default budget ladder, under the application
server's default cost model, on the graphs the workloads partition
(``tests.core.workload_graphs``) plus the paper's running example.
They were recorded at e7003b8, where the generator still cross-checked
every segment's ``n_ops`` and CPU seconds against a second, closure-based
compiler.  The emitter's own counts now bake those numbers into the
text as literals, so a drift in segment accounting shows up here as a
changed signature.  Rungs of one ladder that solve to the same
partitioning generate the same text.

Every placement must also run exactly as the tree interpreter over the
tree SQL executor runs it: same results, same tables, bit-identical
``ExecutionStats`` and the same virtual clock up to the last bits, with
every statement generated rather than left to the tree executor.
"""

import random
from dataclasses import asdict
from functools import lru_cache

import pytest

from repro.core.pipeline import Pyxis
from repro.db import connect
from repro.runtime.codegen_blocks import ensure_program_source
from repro.runtime.entrypoints import PartitionedApp
from repro.serve.workload import ShiftScale, make_storefront_database
from repro.sim.cluster import Cluster
from repro.workloads.micro import make_micro_database
from repro.workloads.tpcc import TpccScale, make_tpcc_database
from repro.workloads.tpcw import BrowsingMix, TpcwScale, make_tpcw_database
from tests.conftest import (
    ORDER_ENTRY_POINTS,
    ORDER_SOURCE,
    make_order_database,
    tpcc_invocations,
)
from tests.core.workload_graphs import CASES

TPCC_JDBC = "b1a9ea843566bd95335b3999f8d3d5ecaf26f4a90975e752d24079dc16c4e8db"
TPCW_JDBC = "edcdd3be9798c120d090f5bd33dcd3f629c8b73ce114f6056ed7036515a982d8"
LINKED_LIST = (
    "4ccac297e39b0f1637eb67c6ef289285e4b7e8589b32b3f9f58025b01ba84749"
)
STORE_DB = "66ccfa49a49e4443a89cc0266c6e05d9eaf4b994e31c589e555590c8851d3bd6"

# case -> the signature of each rung of the default four-rung ladder
GOLDEN = {
    "linked_list": [LINKED_LIST] * 4,
    "order": [
        "36eec53b45a13b0a1ef71e64a7122c6406ac3ed09c40c111074b57c9cf84d00d",
        "26fb7a5c32d6329fb4b958fdb08b230dc3d612052ef5f04ae64f540a6232681c",
        "e3834d997e164aeba265cf24ec7e7c68e04a325f4dca1713f6344660f194c4a4",
        "9666c6f277c73b76235421432e8d30981055201c6c1b9e31d04b9a4775a485b3",
    ],
    "storefront": [
        "6e7e0d1e29f228519d97afaab6e517fec9e3a858efddeadf625cbf02ffce592c",
    ] + [STORE_DB] * 3,
    "three_phase": [
        "df2aece3bf2eae8376035e2759133a89e2509e6c4c46946ad4b49cecb4d60015",
        "8b947006c70347823e7e70360152b0d106ee5dea98be7543d732563bc7eaaab4",
        "0267f6c3a3e110b04deeb3fac4748c233d5f34a339b73a3c2fc0a72a1a097164",
        "e9167b2ba748126ccfd94fa5bf02cc324182056540e40eab01cc128db0f45262",
    ],
    "tpcc": [TPCC_JDBC] * 3 + [
        "738753598f59fe2926b8a9ac68706eb3c107c75441613a26a68c8e7ecfd45556",
    ],
    "tpcc_w4": [TPCC_JDBC] * 3 + [
        "57f36cbba26759b760dc8297c08dd862bb09b31e34c4ab0297ab4bef0adf4370",
    ],
    "tpcw": [TPCW_JDBC] * 3 + [
        "dbb6ee04c6f0e0fd4f7c57b321282ec2cd46f88d94c63ac7fd47f698abc0fa0b",
    ],
}
LADDER = range(4)


def _order():
    pyxis = Pyxis.from_source(ORDER_SOURCE, ORDER_ENTRY_POINTS)
    _, conn = make_order_database()
    return pyxis, pyxis.profile_with(
        conn, lambda p: p.invoke("Order", "place_order", 7, 0.9)
    )


BUILDERS = dict(CASES, order=_order)


@lru_cache(maxsize=None)
def _ladder(name):
    pyxis, profile = BUILDERS[name]()
    parts = pyxis.partition(profile, budgets=None).by_budget()
    assert len(parts) == len(LADDER)
    return parts


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(BUILDERS)


@pytest.mark.parametrize("rung", LADDER)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_block_source_matches_golden(name, rung):
    compiled = _ladder(name)[rung].compiled
    generated = ensure_program_source(compiled, Cluster().app.cost_model)
    assert generated.signature == GOLDEN[name][rung]


# -- the same placements against the tree oracle -------------------------------

TPCC_SCALE = TpccScale(warehouses=1, districts_per_warehouse=2,
                       customers_per_district=30, items=50)
# The browsing program derives promotion ids modulo 97: items >= 98.
TPCW_SCALE = TpcwScale(items=100, authors=30, customers=40, orders=60)
SHIFT_SCALE = ShiftScale(browse_hashes=20, checkout_items=4,
                         checkout_hashes=20, keys=16)


def _tpcw_calls():
    mix = BrowsingMix(TPCW_SCALE, seed=23)
    return [
        ("TpcwBrowsing", interaction.method, interaction.args)
        for interaction in (mix.next_interaction() for _ in range(30))
    ]


def _storefront_calls():
    rng = random.Random(5)
    calls = [
        ("Storefront", "browse",
         (SHIFT_SCALE.browse_hashes, rng.randrange(SHIFT_SCALE.keys)))
        for _ in range(3)
    ]
    calls.append((
        "Storefront", "checkout",
        (SHIFT_SCALE.checkout_items, SHIFT_SCALE.checkout_hashes),
    ))
    return calls


# case -> (fresh database factory, invocations)
RUNS = {
    "linked_list": (make_micro_database, [("LinkedList", "run", (6,))]),
    "order": (make_order_database, [("Order", "place_order", (7, 0.9))]),
    "storefront": (
        lambda: make_storefront_database(SHIFT_SCALE), _storefront_calls(),
    ),
    "three_phase": (
        lambda: make_micro_database(rows=10),
        [("ThreePhase", "run", (4, 3, 10))],
    ),
    "tpcc": (
        lambda: make_tpcc_database(TPCC_SCALE),
        tpcc_invocations(TPCC_SCALE, seed=11, rounds=2),
    ),
    "tpcc_w4": (
        lambda: make_tpcc_database(TPCC_SCALE),
        tpcc_invocations(TPCC_SCALE, seed=13, rounds=2),
    ),
    "tpcw": (lambda: make_tpcw_database(TPCW_SCALE), _tpcw_calls()),
}


def _run(compiled, make_db, rung, invocations):
    database, _ = make_db()
    conn = connect(database, sql_exec=rung)
    cluster = Cluster()
    app = PartitionedApp(compiled, cluster, conn, interp=rung)
    results = [
        app.invoke(class_name, method, *args)
        for class_name, method, args in invocations
    ]
    tables = {
        table.schema.name: list(table.scan()) for table in database.tables()
    }
    stats = asdict(app.executor.stats)
    return results, stats, tables, cluster.clock.now, conn


@pytest.mark.parametrize("rung", LADDER)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_placement_runs_as_the_tree_oracle(name, rung):
    compiled = _ladder(name)[rung].compiled
    make_db, invocations = RUNS[name]
    tree = _run(compiled, make_db, "tree", invocations)
    results, stats, tables, now, conn = _run(
        compiled, make_db, "source", invocations
    )
    assert results == tree[0]
    assert stats == tree[1]  # blocks/ops/db/bytes
    assert tables == tree[2]
    # The virtual clock: CPU charged per segment plus messages.  The
    # source rung multiplies visit counts by baked segment costs where
    # the tree adds charge by charge, so the last bits may differ.
    assert now == pytest.approx(tree[3], rel=1e-12, abs=0.0)
    cache = conn.plan_cache_stats
    assert cache.compiled_plans == cache.misses
