"""Transaction sources for the serving engine.

A *workload* hands the engine one
:class:`~repro.sim.queueing.TransactionTrace` per transaction, for a
given partition option (index 0 = lowest CPU budget, matching
:class:`~repro.runtime.switcher.DynamicSwitcher`).

:class:`LiveWorkload` executes **real compiled-block programs** through
:class:`~repro.runtime.entrypoints.PartitionedApp` -- every trace in
circulation was produced by actually running the partitioned program
(generated block code, managed heaps, real SQL against the in-memory
engine) during the serve run.  Because a live execution costs real wall
time, each option keeps a bounded trace pool: the first ``pool_size``
transactions per option run live, later ones replay a uniformly drawn
pooled trace (``refresh_every`` forces a periodic live refresh so a
long run keeps sampling the program).  :class:`TraceWorkload` serves
pre-collected traces and exists for tests and custom experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.runtime.entrypoints import PartitionedApp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.session import Partition, PartitionService
    from repro.profiler.live import LiveProfiler
    from repro.profiler.profile_data import ProfileData
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.queueing import SimNetworkParams, TransactionTrace
from repro.sim.server import CostModel

# One (method, args) invocation of a partitioned entry point.
CallFactory = Callable[[], tuple[str, tuple]]


class ServeWorkload:
    """Interface: named partition options that yield stage traces."""

    labels: list[str]

    @property
    def n_options(self) -> int:
        return len(self.labels)

    def draw(self, option: int, rng: random.Random) -> TransactionTrace:
        raise NotImplementedError

    @property
    def live_executions(self) -> int:
        return 0

    @property
    def trace_replays(self) -> int:
        return 0


class TraceWorkload(ServeWorkload):
    """Serve pre-collected traces (uniform draw per option)."""

    def __init__(
        self,
        options: Sequence[Sequence[TransactionTrace]],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        if not options or any(not opt for opt in options):
            raise ValueError("each option needs at least one trace")
        self._options = [list(opt) for opt in options]
        self.labels = (
            list(labels)
            if labels is not None
            else [f"option{i}" for i in range(len(options))]
        )
        if len(self.labels) != len(self._options):
            raise ValueError("labels must match options")
        self._replays = 0

    def draw(self, option: int, rng: random.Random) -> TransactionTrace:
        pool = self._options[option]
        self._replays += 1
        return pool[rng.randrange(len(pool))]

    @property
    def trace_replays(self) -> int:
        return self._replays


@dataclass
class ProgramOption:
    """One partitioning of one application, ready to execute.

    ``pool_key`` (optional) buckets the option's bounded trace pool by
    a property of the drawn call -- e.g. the TPC-C warehouse, so that
    replayed traces preserve the live mix's shard affinity instead of
    whatever shards the first few live executions happened to hit, or
    the entry-point method, so that a workload whose call mix shifts
    mid-run is served traces of the *current* mix rather than replays
    of the old one.  When set, every draw consults ``next_call``;
    without it the factory is only consulted on live executions.
    """

    label: str
    class_name: str
    app: PartitionedApp
    next_call: CallFactory
    lock_groups: Optional[int] = None
    pool_key: Optional[Callable[[str, tuple], str]] = None


class LiveWorkload(ServeWorkload):
    """Execute compiled-block programs, with bounded trace pools.

    ``profiler`` (a :class:`~repro.profiler.live.LiveProfiler`) closes
    the observation loop: live executions record per-statement counts
    through :meth:`~repro.runtime.entrypoints.PartitionedApp.
    invoke_profiled`, and replayed traces fold in the counts recorded
    when they were produced, so the windowed live profile keeps
    tracking the transaction mix even when most draws replay.
    """

    def __init__(
        self,
        options: Sequence[ProgramOption],
        pool_size: int = 16,
        refresh_every: int = 0,
        profiler: Optional["LiveProfiler"] = None,
    ) -> None:
        if not options:
            raise ValueError("need at least one program option")
        if pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        self.options = list(options)
        self.labels = [opt.label for opt in self.options]
        self.pool_size = pool_size
        self.refresh_every = refresh_every
        self.profiler = profiler
        # Per option: pool key -> bounded pool of (trace, sid_counts).
        # Without a pool_key a single "" key is used.  Each pool
        # rotates its replacement slot with its own counter so every
        # slot is eventually refreshed regardless of how draws
        # interleave across pools.
        self._pools: list[dict[str, list[tuple[TransactionTrace, dict]]]] = [
            {} for _ in self.options
        ]
        self._pool_inserts: dict[tuple[int, str], int] = {}
        self._draws = [0] * len(self.options)
        self._live = 0
        self._replays = 0

    def add_option(self, option: ProgramOption) -> int:
        """Register a dynamically minted partitioning; returns its index.

        The serve controller calls this when online repartitioning
        produces a fresh compiled program mid-run.
        """
        self.options.append(option)
        self.labels.append(option.label)
        self._pools.append({})
        self._draws.append(0)
        return len(self.options) - 1

    def _observe(self, sid_counts: dict) -> None:
        if self.profiler is not None and sid_counts:
            self.profiler.observe(sid_counts)

    def _execute(
        self,
        option: int,
        pool: list,
        method: Optional[str] = None,
        args: Optional[tuple] = None,
        key: str = "",
    ) -> TransactionTrace:
        opt = self.options[option]
        pool_key = (option, key)
        if method is None:
            method, args = opt.next_call()
        if self.profiler is not None and hasattr(opt.app, "invoke_profiled"):
            outcome, sid_counts = opt.app.invoke_profiled(
                opt.class_name, method, *args
            )
        else:
            outcome = opt.app.invoke_traced(opt.class_name, method, *args)
            sid_counts = {}
        self._live += 1
        trace = outcome.trace
        if opt.lock_groups:
            trace = TransactionTrace(
                name=trace.name, stages=trace.stages,
                lock_groups=opt.lock_groups,
            )
        inserts = self._pool_inserts.get(pool_key, 0)
        if len(pool) >= self.pool_size:
            pool[inserts % self.pool_size] = (trace, sid_counts)
        else:
            pool.append((trace, sid_counts))
        self._pool_inserts[pool_key] = inserts + 1
        self._observe(sid_counts)
        return trace

    def draw(self, option: int, rng: random.Random) -> TransactionTrace:
        self._draws[option] += 1
        opt = self.options[option]
        method: Optional[str] = None
        args: Optional[tuple] = None
        key = ""
        if opt.pool_key is not None:
            method, args = opt.next_call()
            key = opt.pool_key(method, args)
        pool = self._pools[option].setdefault(key, [])
        if len(pool) < self.pool_size or (
            self.refresh_every
            and self._draws[option] % self.refresh_every == 0
        ):
            return self._execute(option, pool, method, args, key)
        self._replays += 1
        trace, sid_counts = pool[rng.randrange(len(pool))]
        self._observe(sid_counts)
        return trace

    @property
    def live_executions(self) -> int:
        return self._live

    @property
    def trace_replays(self) -> int:
        return self._replays


# ---------------------------------------------------------------------------
# Workload factories
# ---------------------------------------------------------------------------

# Serving-scenario cost model for TPC-C.  Relative to the fig9/fig10
# calibration the per-statement cost is raised so the stored-procedure
# partition's extra DB-side logic is clearly visible against its
# round-trip savings -- that separation is what makes the low/high
# budget choice (and the online switch) matter under load.
SERVE_TPCC_ONE_WAY_LATENCY = 0.00025
SERVE_TPCC_COST_MODEL = CostModel(
    statement_cost=12e-6,
    block_dispatch_cost=2e-6,
    db_fixed_cost=150e-6,
    db_row_cost=20e-6,
)

SERVE_TPCW_ONE_WAY_LATENCY = 0.0005
SERVE_TPCW_COST_MODEL = CostModel(
    statement_cost=20e-6,
    native_call_cost=25e-6,
    block_dispatch_cost=2e-6,
)


@dataclass
class BuiltWorkload:
    """A live workload plus the link its options' clusters traced with.

    ``databases`` and ``clusters`` list each option's sharded database
    and cluster (in option order) when the workload runs against a
    sharded tier -- the serve engine's fault injector and replica
    supervisor need every live-execution backend, since each partition
    option executes on its own copy of the data.
    """

    workload: LiveWorkload
    network: SimNetworkParams
    notes: dict = field(default_factory=dict)
    databases: list = field(default_factory=list)
    clusters: list = field(default_factory=list)


def _two_budget_partitions(source: str, entry_points, latency: float,
                           profile_run) -> tuple:
    """``(pyxis, partition set)``: the program profiled by
    ``profile_run(pyxis) -> (connection, run)`` and partitioned at the
    two extreme budgets, 0 and 1e9."""
    from repro.core.pipeline import Pyxis, PyxisConfig

    pyxis = Pyxis.from_source(
        source, entry_points, PyxisConfig(latency=latency)
    )
    profile = pyxis.profile_with(*profile_run(pyxis))
    return pyxis, pyxis.partition(profile, budgets=[0.0, 1e9])


def tpcc_partitions(scale, seed: int = 31) -> tuple:
    """TPC-C profiled on ten new-orders drawn with ``seed`` and
    partitioned at budgets 0 and 1e9: ``(pyxis, partition set)``.  The
    serve factory and the paper-figure experiments share it."""
    from repro.workloads.tpcc import (
        TPCC_ENTRY_POINTS,
        TPCC_SOURCE,
        TpccInputGenerator,
        make_tpcc_database,
    )

    def profile_run(pyxis):
        _, conn = make_tpcc_database(scale)
        gen = TpccInputGenerator(scale, seed=seed)

        def run(profiler):
            for _ in range(10):
                order = gen.new_order(rollback_fraction=0.0)
                profiler.invoke(
                    "TpccTransactions", "new_order",
                    order.w_id, order.d_id, order.c_id,
                    order.item_ids, order.supply_w_ids, order.quantities,
                )

        return conn, run

    return _two_budget_partitions(
        TPCC_SOURCE, TPCC_ENTRY_POINTS, SERVE_TPCC_ONE_WAY_LATENCY,
        profile_run,
    )


def tpcw_partitions(scale, seed: int = 41) -> tuple:
    """TPC-W profiled on forty browsing interactions drawn with
    ``seed`` and partitioned at budgets 0 and 1e9: ``(pyxis, partition
    set)``, shared like :func:`tpcc_partitions`."""
    from repro.workloads.tpcw import (
        TPCW_ENTRY_POINTS,
        TPCW_SOURCE,
        BrowsingMix,
        make_tpcw_database,
    )

    def profile_run(pyxis):
        _, conn = make_tpcw_database(scale)
        mix = BrowsingMix(scale, seed=seed)

        def run(profiler):
            for _ in range(40):
                interaction = mix.next_interaction()
                profiler.invoke(
                    "TpcwBrowsing", interaction.method, *interaction.args
                )

        return conn, run

    return _two_budget_partitions(
        TPCW_SOURCE, TPCW_ENTRY_POINTS, SERVE_TPCW_ONE_WAY_LATENCY,
        profile_run,
    )


def make_tpcc_workload(
    db_cores: int = 16,
    seed: int = 31,
    pool_size: int = 16,
    interp: Optional[str] = None,
    shards: int = 1,
    shard_key: str = "warehouse",
    warehouses: Optional[int] = None,
    replicas: int = 0,
) -> BuiltWorkload:
    """TPC-C new-order under two partitionings (JDBC-like, proc-like).

    ``shards`` > 1 deploys the sharded database tier: every option
    runs against a :class:`~repro.db.shard.ShardedDatabase` of that
    many single-``db_cores`` servers through the statement router,
    with ``shard_key`` choosing warehouse-affine or hashed placement.
    ``warehouses`` overrides the scale (the shard sweep pins it so a
    1 -> 4 shard comparison runs the same logical workload at every
    point); by default a sharded tier gets at least four.
    ``replicas`` > 0 makes every shard a replica group (primary +
    that many log-shipped replicas) so a serve run can inject primary
    crashes and fail over; it requires the sharded tier.
    """
    from repro.workloads.tpcc import (
        TpccInputGenerator,
        TpccScale,
        make_sharded_tpcc_database,
        make_tpcc_database,
    )

    if shards < 1:
        raise ValueError("shards must be at least 1")
    if replicas < 0:
        raise ValueError("replicas must be non-negative")
    if replicas and shards < 2:
        raise ValueError(
            "replica groups ride on the sharded tier; use shards >= 2 "
            "with replicas"
        )
    scale = TpccScale()
    if warehouses is not None:
        scale = TpccScale(warehouses=max(warehouses, shards))
    elif shards > 1:
        scale = TpccScale(warehouses=max(4, scale.warehouses, shards))
    lock_groups = scale.warehouses * scale.districts_per_warehouse
    _, pset = tpcc_partitions(scale, seed)
    low, high = pset.lowest(), pset.highest()

    databases: list = []
    clusters: list = []

    def make_option(label: str, part) -> ProgramOption:
        cluster = Cluster(
            ClusterConfig(
                app_cores=8, db_cores=db_cores,
                one_way_latency=SERVE_TPCC_ONE_WAY_LATENCY, db_shards=shards,
            ),
            SERVE_TPCC_COST_MODEL,
        )
        if shards > 1:
            sdb, conn = make_sharded_tpcc_database(
                scale, shards=shards, shard_key=shard_key,
                replicas=replicas, replica_reads=replicas > 0,
            )
            cluster.attach_sharded_database(sdb)
            databases.append(sdb)
            clusters.append(cluster)
        else:
            _, conn = make_tpcc_database(scale)
        gen = TpccInputGenerator(scale, seed=seed + 1)

        def next_call() -> tuple[str, tuple]:
            order = gen.new_order(rollback_fraction=0.0)
            return "new_order", (
                order.w_id, order.d_id, order.c_id,
                order.item_ids, order.supply_w_ids, order.quantities,
            )

        app = PartitionedApp(part.compiled, cluster, conn, interp=interp)
        # With a sharded tier, pool replayed traces per warehouse:
        # each trace is pinned to the shard it executed on, so the
        # replay mix must preserve the warehouse distribution for the
        # load to spread across shard servers.
        pool_key = (
            (lambda method, args: f"w{args[0]}") if shards > 1 else None
        )
        return ProgramOption(
            label=label, class_name="TpccTransactions", app=app,
            next_call=next_call, lock_groups=lock_groups,
            pool_key=pool_key,
        )

    workload = LiveWorkload(
        [make_option("jdbc_like", low), make_option("proc_like", high)],
        pool_size=pool_size,
    )
    return BuiltWorkload(
        workload=workload,
        network=workload.options[0].app.cluster.network,
        notes={"lock_groups": lock_groups,
               "shards": shards,
               "shard_key": shard_key if shards > 1 else None,
               "warehouses": scale.warehouses,
               "replicas": replicas,
               "fraction_on_db": {
                   "jdbc_like": low.fraction_on_db,
                   "proc_like": high.fraction_on_db,
               }},
        databases=databases,
        clusters=clusters,
    )


def _reject_shards(workload: str, shards: int, replicas: int = 0) -> None:
    if shards != 1:
        raise ValueError(
            f"workload {workload!r} does not support a sharded database "
            "tier yet; use --workload tpcc with --shards"
        )
    if replicas:
        raise ValueError(
            f"workload {workload!r} does not support replica groups; "
            "use --workload tpcc with --shards and --replicas"
        )


def make_tpcw_workload(
    db_cores: int = 16,
    seed: int = 41,
    pool_size: int = 16,
    interp: Optional[str] = None,
    shards: int = 1,
    shard_key: str = "warehouse",
    replicas: int = 0,
) -> BuiltWorkload:
    """TPC-W browsing mix under two partitionings."""
    _reject_shards("tpcw", shards, replicas)
    from repro.workloads.tpcw import (
        BrowsingMix,
        TpcwScale,
        make_tpcw_database,
    )

    scale = TpcwScale()
    _, pset = tpcw_partitions(scale, seed)
    low, high = pset.lowest(), pset.highest()

    def make_option(label: str, part) -> ProgramOption:
        _, conn = make_tpcw_database(scale)
        cluster = Cluster(
            ClusterConfig(
                app_cores=8, db_cores=db_cores,
                one_way_latency=SERVE_TPCW_ONE_WAY_LATENCY,
            ),
            SERVE_TPCW_COST_MODEL,
        )
        mix = BrowsingMix(scale, seed=seed + 1)

        def next_call() -> tuple[str, tuple]:
            interaction = mix.next_interaction()
            return interaction.method, tuple(interaction.args)

        app = PartitionedApp(part.compiled, cluster, conn, interp=interp)
        return ProgramOption(
            label=label, class_name="TpcwBrowsing", app=app,
            next_call=next_call,
        )

    workload = LiveWorkload(
        [make_option("jdbc_like", low), make_option("proc_like", high)],
        pool_size=pool_size,
    )
    return BuiltWorkload(
        workload=workload,
        network=workload.options[0].app.cluster.network,
    )


def make_micro_workload(
    db_cores: int = 16,
    seed: int = 11,
    pool_size: int = 4,
    interp: Optional[str] = None,
    shards: int = 1,
    shard_key: str = "warehouse",
    replicas: int = 0,
) -> BuiltWorkload:
    """Three-phase microbenchmark under two partitionings (APP, DB)."""
    _reject_shards("micro", shards, replicas)
    from repro.workloads.micro import (
        THREE_PHASE_ENTRY_POINTS,
        THREE_PHASE_SOURCE,
        MicroScale,
        make_micro_database,
    )

    scale = MicroScale()
    latency = 0.001
    args = (scale.queries_per_phase, scale.hashes, scale.keys)

    def profile_run(pyxis):
        _, conn = make_micro_database(rows=scale.keys)
        return conn, lambda p: p.invoke("ThreePhase", "run", *args)

    _, pset = _two_budget_partitions(
        THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS, latency, profile_run
    )
    low, high = pset.lowest(), pset.highest()

    def make_option(label: str, part) -> ProgramOption:
        _, conn = make_micro_database(rows=scale.keys)
        cluster = Cluster(
            ClusterConfig(
                app_cores=8, db_cores=db_cores, one_way_latency=latency
            ),
        )
        app = PartitionedApp(part.compiled, cluster, conn, interp=interp)
        return ProgramOption(
            label=label, class_name="ThreePhase", app=app,
            next_call=lambda: ("run", args),
        )

    workload = LiveWorkload(
        [make_option("app_like", low), make_option("db_like", high)],
        pool_size=pool_size,
    )
    return BuiltWorkload(
        workload=workload,
        network=workload.options[0].app.cluster.network,
    )


# ---------------------------------------------------------------------------
# Mix-shift workload (online repartitioning scenario)
# ---------------------------------------------------------------------------

# A storefront with two entry points whose optimal placements differ:
# ``browse`` is compute-heavy with a single lookup, ``checkout`` runs
# a per-item query loop plus a compute-heavy receipt digest.  Profiled
# on browse traffic alone, the budget ladder never needs a partition
# that splits checkout (its statements are unprofiled); once the mix
# shifts to checkout, the right placement -- query loop on the
# database, digest loop on the application server -- only exists if
# the partitioning service re-solves on the live profile.
STOREFRONT_SOURCE = '''
class Storefront:
    def browse(self, rounds, key):
        digest = "seed"
        i = 0
        while i < rounds:
            digest = sha1_hex(digest)
            i = i + 1
        price = self.db.query_scalar("SELECT v FROM kv WHERE k = ?", key)
        self.last_price = price
        return price

    def checkout(self, items, rounds):
        total = 0.0
        i = 0
        while i < items:
            v = self.db.query_scalar("SELECT v FROM kv WHERE k = ?", i)
            total = total + v
            i = i + 1
        digest = "receipt"
        j = 0
        while j < rounds:
            digest = sha1_hex(digest)
            j = j + 1
        self.db.execute("UPDATE carts SET c_total = ? WHERE c_id = ?",
                        total, 1)
        self.last_total = total
        return total
'''

STOREFRONT_ENTRY_POINTS = [
    ("Storefront", "browse"),
    ("Storefront", "checkout"),
]

# Cheap DB operations, expensive digests (sha1_hex costs 10us on the
# executing server): the checkout digest loop is what saturates a
# small database server when everything is pushed there.
SHIFT_ONE_WAY_LATENCY = 0.001
SHIFT_COST_MODEL = CostModel(
    statement_cost=2e-6,
    block_dispatch_cost=2e-6,
    db_fixed_cost=30e-6,
    db_row_cost=5e-6,
)


@dataclass(frozen=True)
class ShiftScale:
    """Mix-shift scenario parameters."""

    browse_hashes: int = 150
    checkout_items: int = 12
    checkout_hashes: int = 400
    keys: int = 64


class MixShift:
    """Shared call-mix state read by every option's call factory.

    The serving script flips :meth:`set_phase` mid-run (on the
    engine's virtual clock) to move all clients from browse traffic
    to checkout traffic.
    """

    def __init__(self, scale: ShiftScale, seed: int = 7) -> None:
        self.scale = scale
        self.phase = "browse"
        self._rng = random.Random(seed)

    def set_phase(self, phase: str) -> None:
        if phase not in ("browse", "checkout"):
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    def next_call(self) -> tuple[str, tuple]:
        scale = self.scale
        if self.phase == "browse":
            return "browse", (
                scale.browse_hashes, self._rng.randrange(scale.keys)
            )
        return "checkout", (scale.checkout_items, scale.checkout_hashes)


def make_storefront_database(scale: ShiftScale):
    from repro.db import Database, connect

    db = Database("storefront")
    db.create_table(
        "kv", [("k", "int", False), ("v", "float")], primary_key=["k"]
    )
    db.create_table(
        "carts",
        [("c_id", "int", False), ("c_total", "float")],
        primary_key=["c_id"],
    )
    conn = connect(db)
    rng = random.Random(5)
    for k in range(scale.keys):
        conn.execute(
            "INSERT INTO kv (k, v) VALUES (?, ?)",
            k, round(rng.uniform(1.0, 9.0), 2),
        )
    conn.execute("INSERT INTO carts (c_id, c_total) VALUES (?, ?)", 1, 0.0)
    return db, conn


@dataclass
class ShiftingWorkload:
    """Everything the repartitioning serve scenario needs.

    ``make_option`` wraps a freshly minted
    :class:`~repro.core.session.Partition` into a
    :class:`ProgramOption` on its own database/cluster, reading the
    same shared :class:`MixShift` -- the repartition controller uses
    it to register online candidates with the live workload.
    """

    built: BuiltWorkload
    service: "PartitionService"
    profiler: "LiveProfiler"
    base_profile: "ProfileData"
    mix: MixShift
    make_option: Callable[[str, "Partition"], ProgramOption]


def make_shifting_workload(
    db_cores: int = 2,
    seed: int = 23,
    pool_size: int = 6,
    interp: Optional[str] = None,
    scale: Optional[ShiftScale] = None,
) -> ShiftingWorkload:
    """Storefront under a shifting browse/checkout mix.

    Built on the incremental :class:`~repro.core.session.
    PartitionService`: the initial two-budget ladder is profiled on
    browse traffic only, a :class:`~repro.profiler.live.LiveProfiler`
    tracks the mix from live executions, and the returned
    ``make_option`` lets the serve controller mint new partitionings
    from the same session mid-run (cached artifacts, warm solves).
    """
    from repro.core.session import PartitionService, PyxisConfig
    from repro.profiler.live import LiveProfiler

    scale = scale if scale is not None else ShiftScale()
    latency = SHIFT_ONE_WAY_LATENCY
    service = PartitionService.from_source(
        STOREFRONT_SOURCE,
        STOREFRONT_ENTRY_POINTS,
        PyxisConfig(latency=latency),
    )
    _, profile_conn = make_storefront_database(scale)
    profile_rng = random.Random(seed)

    def profile_run(profiler):
        for _ in range(6):
            profiler.invoke(
                "Storefront", "browse",
                scale.browse_hashes, profile_rng.randrange(scale.keys),
            )

    base_profile = service.profile_with(profile_conn, profile_run)
    pset = service.partition(base_profile, budgets=[0.0, 1e9])
    low, high = pset.lowest(), pset.highest()

    mix = MixShift(scale, seed=seed + 1)
    live_profiler = LiveProfiler(
        base=base_profile, window=6, bucket_txns=16
    )

    def make_option(label: str, part) -> ProgramOption:
        _, conn = make_storefront_database(scale)
        cluster = Cluster(
            ClusterConfig(
                app_cores=8, db_cores=db_cores, one_way_latency=latency
            ),
            SHIFT_COST_MODEL,
        )
        app = PartitionedApp(part.compiled, cluster, conn, interp=interp)
        return ProgramOption(
            label=label, class_name="Storefront", app=app,
            next_call=mix.next_call,
            pool_key=lambda method, args: method,
        )

    workload = LiveWorkload(
        [make_option("app_like", low), make_option("db_like", high)],
        pool_size=pool_size,
        profiler=live_profiler,
    )
    built = BuiltWorkload(
        workload=workload,
        network=workload.options[0].app.cluster.network,
        notes={"fraction_on_db": {
            "app_like": low.fraction_on_db,
            "db_like": high.fraction_on_db,
        }},
    )
    return ShiftingWorkload(
        built=built,
        service=service,
        profiler=live_profiler,
        base_profile=base_profile,
        mix=mix,
        make_option=make_option,
    )


WORKLOAD_FACTORIES: dict[str, Callable[..., BuiltWorkload]] = {
    "tpcc": make_tpcc_workload,
    "tpcw": make_tpcw_workload,
    "micro": make_micro_workload,
}
