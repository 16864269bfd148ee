"""The partition problems the repo's own workloads pose.

Each builder returns ``(Pyxis session, profile)`` for one program,
profiled exactly as the BENCHMARK workloads and the serve workload
factories profile it, so that the solver tests and the golden
signatures run on the graphs that production partitions.
"""

import random

from repro.core.pipeline import Pyxis, PyxisConfig
from repro.serve.workload import (
    SERVE_TPCC_ONE_WAY_LATENCY,
    SERVE_TPCW_ONE_WAY_LATENCY,
    SHIFT_ONE_WAY_LATENCY,
    STOREFRONT_ENTRY_POINTS,
    STOREFRONT_SOURCE,
    ShiftScale,
    make_storefront_database,
)
from repro.workloads.micro import (
    LINKED_LIST_ENTRY_POINTS,
    LINKED_LIST_SOURCE,
    THREE_PHASE_ENTRY_POINTS,
    THREE_PHASE_SOURCE,
    MicroScale,
    make_micro_database,
)
from repro.workloads.tpcc import (
    TPCC_ENTRY_POINTS,
    TPCC_SOURCE,
    TpccInputGenerator,
    TpccScale,
    make_tpcc_database,
)
from repro.workloads.tpcw import (
    TPCW_ENTRY_POINTS,
    TPCW_SOURCE,
    BrowsingMix,
    TpcwScale,
    make_tpcw_database,
)


def _tpcc(scale):
    pyxis = Pyxis.from_source(
        TPCC_SOURCE, TPCC_ENTRY_POINTS,
        PyxisConfig(latency=SERVE_TPCC_ONE_WAY_LATENCY),
    )
    _, conn = make_tpcc_database(scale)
    gen = TpccInputGenerator(scale, seed=31)

    def run(profiler):
        for _ in range(10):
            order = gen.new_order(rollback_fraction=0.0)
            profiler.invoke(
                "TpccTransactions", "new_order",
                order.w_id, order.d_id, order.c_id,
                order.item_ids, order.supply_w_ids, order.quantities,
            )

    return pyxis, pyxis.profile_with(conn, run)


def _tpcw():
    scale = TpcwScale()
    pyxis = Pyxis.from_source(
        TPCW_SOURCE, TPCW_ENTRY_POINTS,
        PyxisConfig(latency=SERVE_TPCW_ONE_WAY_LATENCY),
    )
    _, conn = make_tpcw_database(scale)
    mix = BrowsingMix(scale, seed=41)

    def run(profiler):
        for _ in range(40):
            interaction = mix.next_interaction()
            profiler.invoke(
                "TpcwBrowsing", interaction.method, *interaction.args
            )

    return pyxis, pyxis.profile_with(conn, run)


def _three_phase():
    scale = MicroScale()
    pyxis = Pyxis.from_source(
        THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS,
        PyxisConfig(latency=0.001),
    )
    _, conn = make_micro_database(rows=scale.keys)
    args = (scale.queries_per_phase, scale.hashes, scale.keys)
    return pyxis, pyxis.profile_with(
        conn, lambda p: p.invoke("ThreePhase", "run", *args)
    )


def _linked_list():
    pyxis = Pyxis.from_source(LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS)
    _, conn = make_micro_database()
    return pyxis, pyxis.profile_with(
        conn, lambda p: p.invoke("LinkedList", "run", 32)
    )


def _storefront():
    scale = ShiftScale()
    pyxis = Pyxis.from_source(
        STOREFRONT_SOURCE, STOREFRONT_ENTRY_POINTS,
        PyxisConfig(latency=SHIFT_ONE_WAY_LATENCY),
    )
    _, conn = make_storefront_database(scale)
    rng = random.Random(23)

    def run(profiler):
        for _ in range(6):
            profiler.invoke(
                "Storefront", "browse",
                scale.browse_hashes, rng.randrange(scale.keys),
            )

    return pyxis, pyxis.profile_with(conn, run)


# case -> builder of (session, profile); the comment says who
# partitions that graph.
CASES = {
    # BENCHMARK tpcc_bare / tpcc_tier
    "tpcc_w4": lambda: _tpcc(TpccScale(warehouses=4)),
    # BENCHMARK serve_sim, make_tpcc_workload
    "tpcc": lambda: _tpcc(TpccScale()),
    # BENCHMARK tpcw_browse, make_tpcw_workload
    "tpcw": _tpcw,
    # make_micro_workload
    "three_phase": _three_phase,
    "linked_list": _linked_list,
    # make_shifting_workload (browse traffic only: checkout is unweighted)
    "storefront": _storefront,
}
