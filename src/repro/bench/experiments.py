"""One function per paper table / figure.

Every experiment follows the paper's methodology: build the workload
database, profile the application, let Pyxis generate partitions under
different CPU budgets, collect per-transaction traces for the JDBC /
Manual / Pyxis implementations, and replay them under open-loop load
on the simulated cluster.  ``fast=True`` (the default, used by tests)
shrinks sweep sizes and durations; ``fast=False`` produces the numbers
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.bench.harness import (
    TraceSet,
    collect_tpcc_traces,
    collect_tpcw_traces,
    sweep,
)
from repro.core.pipeline import Pyxis, PyxisConfig
from repro.runtime.entrypoints import PartitionedApp
from repro.runtime.switcher import DynamicSwitcher, SwitcherConfig
from repro.serve.workload import (
    SERVE_TPCC_ONE_WAY_LATENCY as TPCC_ONE_WAY_LATENCY,
    SERVE_TPCW_COST_MODEL as TPCW_COST_MODEL,
    SERVE_TPCW_ONE_WAY_LATENCY as TPCW_ONE_WAY_LATENCY,
    tpcc_partitions,
    tpcw_partitions,
)
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.queueing import (
    QueueingSimulator,
    SimNetworkParams,
    SimResult,
    TransactionTrace,
)
from repro.sim.server import CostModel
from repro.workloads.micro import (
    LINKED_LIST_ENTRY_POINTS,
    LINKED_LIST_SOURCE,
    MicroScale,
    THREE_PHASE_ENTRY_POINTS,
    THREE_PHASE_SOURCE,
    make_micro_database,
    native_linked_list,
)
from repro.workloads.tpcc import (
    TpccInputGenerator,
    TpccScale,
    make_tpcc_database,
)
from repro.workloads.tpcw import (
    BrowsingMix,
    TpcwScale,
    make_tpcw_database,
)


@dataclass
class CurvePoint:
    """One point of a latency/utilization-vs-throughput curve."""

    offered_rate: float
    throughput: float
    latency_ms: float
    p95_latency_ms: float
    app_util: float
    db_util: float
    net_kb_per_sec: float

    @classmethod
    def from_sim(cls, result: SimResult) -> "CurvePoint":
        return cls(
            offered_rate=result.offered_rate,
            throughput=result.throughput,
            latency_ms=result.mean_latency_ms,
            p95_latency_ms=1000.0 * result.percentile(95),
            app_util=result.app_utilization,
            db_util=result.db_utilization,
            net_kb_per_sec=result.net_kb_per_sec,
        )


@dataclass
class ExperimentResult:
    """Curves per implementation plus free-form notes."""

    name: str
    curves: dict[str, list[CurvePoint]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def implementations(self) -> list[str]:
        return sorted(self.curves)

    def best_latency(self, impl: str) -> float:
        return min(p.latency_ms for p in self.curves[impl])

    def max_throughput(self, impl: str, latency_cap_ms: float = 1e9) -> float:
        eligible = [
            p.throughput
            for p in self.curves[impl]
            if p.latency_ms <= latency_cap_ms
        ]
        return max(eligible) if eligible else 0.0


# ---------------------------------------------------------------------------
# Shared TPC-C machinery
# ---------------------------------------------------------------------------

# TPC-C experiment parameters.  TPCC_ONE_WAY_LATENCY, the serve
# scenarios' value, is chosen so the JDBC-versus-Manual latency gap
# lands near the paper's ~3x (see EXPERIMENTS.md: the paper's 2 ms
# ping with ~46 JDBC calls per new-order would give a much larger gap;
# we keep the call structure and shrink the wire instead).  The serve
# scenarios raise the per-statement cost; the figures keep this one.
TPCC_COST_MODEL = CostModel(
    statement_cost=5e-6,
    block_dispatch_cost=2e-6,
    db_fixed_cost=150e-6,
    db_row_cost=20e-6,
)


def _tpcc_cluster_config(db_cores: int) -> ClusterConfig:
    return ClusterConfig(
        app_cores=8, db_cores=db_cores,
        one_way_latency=TPCC_ONE_WAY_LATENCY,
    )


@dataclass
class TpccSetup:
    pyxis: Pyxis
    scale: TpccScale
    inputs: list[tuple]
    trace_set_high: TraceSet
    trace_set_low: TraceSet
    lock_groups: int


def _tpcc_setup(
    db_cores: int, n_inputs: int, seed: int = 31
) -> TpccSetup:
    scale = TpccScale()
    lock_groups = scale.warehouses * scale.districts_per_warehouse
    pyxis, pset = tpcc_partitions(scale, seed)
    low, high = pset.lowest(), pset.highest()

    input_gen = TpccInputGenerator(scale, seed=seed + 1)
    inputs = []
    for _ in range(n_inputs):
        order = input_gen.new_order(rollback_fraction=0.0)
        inputs.append(
            (order.w_id, order.d_id, order.c_id, order.item_ids,
             order.supply_w_ids, order.quantities)
        )

    def make_connection():
        _, conn = make_tpcc_database(scale)
        return conn

    def cluster_factory() -> Cluster:
        return Cluster(_tpcc_cluster_config(db_cores), TPCC_COST_MODEL)

    trace_set_high = collect_tpcc_traces(
        {"pyxis": high.compiled}, pyxis.program, make_connection,
        inputs, cluster_factory, lock_groups=lock_groups,
    )
    trace_set_low = collect_tpcc_traces(
        {"pyxis": low.compiled}, pyxis.program, make_connection,
        inputs, cluster_factory, lock_groups=lock_groups,
    )
    return TpccSetup(
        pyxis=pyxis, scale=scale, inputs=inputs,
        trace_set_high=trace_set_high, trace_set_low=trace_set_low,
        lock_groups=lock_groups,
    )


def _rate_grid(
    trace_set: TraceSet, db_cores: int, points: int
) -> list[float]:
    """Offered rates spanning up to just past the system's capacity."""
    network = SimNetworkParams(one_way_latency=TPCC_ONE_WAY_LATENCY)
    manual = trace_set.mean_trace("manual")
    jdbc = trace_set.mean_trace("jdbc")
    cpu_cap = db_cores / max(manual.db_cpu, 1e-9)
    caps = [cpu_cap]
    if jdbc.lock_groups:
        caps.append(jdbc.lock_groups / jdbc.unloaded_latency(network))
    top = 1.1 * max(min(caps), 1.0)
    return [max(top * i / points, 1.0) for i in range(1, points + 1)]


def _run_tpcc_experiment(
    name: str,
    db_cores: int,
    trace_key: str,
    fast: bool,
) -> ExperimentResult:
    n_inputs = 10 if fast else 40
    points = 4 if fast else 8
    duration = 5.0 if fast else 30.0
    setup = _tpcc_setup(db_cores, n_inputs)
    trace_set = (
        setup.trace_set_high if trace_key == "high" else setup.trace_set_low
    )
    rates = _rate_grid(trace_set, db_cores, points)
    network = SimNetworkParams(one_way_latency=TPCC_ONE_WAY_LATENCY)
    curves = sweep(
        trace_set, rates, duration=duration,
        app_cores=8, db_cores=db_cores, network=network,
    )
    result = ExperimentResult(name=name)
    for impl, sims in curves.items():
        result.curves[impl] = [CurvePoint.from_sim(s) for s in sims]
    result.notes["db_cores"] = db_cores
    return result


def fig9(fast: bool = True) -> ExperimentResult:
    """TPC-C on a 16-core database server (paper Figure 9).

    Expected shape: Manual and Pyxis(high budget) nearly coincide with
    ~3x lower latency than JDBC, and sustain higher throughput (the
    JDBC curve is capped by lock contention on district rows).
    """
    return _run_tpcc_experiment("fig9", db_cores=16, trace_key="high", fast=fast)


def fig10(fast: bool = True) -> ExperimentResult:
    """TPC-C on a 3-core database server (paper Figure 10).

    Pyxis is given a small budget and produces a JDBC-like partition:
    Manual wins at low rates but saturates the 3 cores; JDBC and Pyxis
    sustain higher throughput.
    """
    return _run_tpcc_experiment("fig10", db_cores=3, trace_key="low", fast=fast)


# ---------------------------------------------------------------------------
# Figure 11: dynamic switching
# ---------------------------------------------------------------------------


@dataclass
class Fig11Result:
    """The jdbc, manual and pyxis runs under the same mid-run DB load.

    The figure plots each run's mean latency per ``bucket`` seconds and
    the share of Pyxis's completions that ran the ``jdbc_like`` trace
    per ``mix_bucket`` seconds.
    """

    load_time: float
    bucket: float
    mix_bucket: float
    jdbc_like: str
    runs: dict[str, SimResult] = field(default_factory=dict)


def fig11(fast: bool = True) -> Fig11Result:
    """TPC-C with the database loaded mid-run (paper Figure 11).

    At ``load_time`` an external tenant occupies most DB cores.  The
    Manual implementation's latency climbs; JDBC stays flat; Pyxis
    starts Manual-like and, as the EWMA load estimate crosses the 40%
    threshold, switches to the JDBC-like partition.
    """
    duration = 120.0 if fast else 600.0
    load_time = duration * 0.3
    n_inputs = 8 if fast else 30

    setup = _tpcc_setup(16, n_inputs)
    network = SimNetworkParams(one_way_latency=TPCC_ONE_WAY_LATENCY)
    high = setup.trace_set_high
    low = setup.trace_set_low

    manual_demand = high.mean_trace("manual").db_cpu
    jdbc_demand = high.mean_trace("jdbc").db_cpu
    # Run at half the JDBC lock-contention capacity.
    jdbc_lat = high.mean_trace("jdbc").unloaded_latency(network)
    rate = 0.5 * setup.lock_groups / jdbc_lat
    # Reserve cores so the remaining capacity falls between the JDBC
    # and Manual CPU demands: Manual becomes unstable, JDBC stays up.
    free = rate * (0.75 * manual_demand + 0.25 * jdbc_demand)
    reserved_fraction = max(0.0, 1.0 - free / 16)

    result = Fig11Result(
        load_time=load_time, bucket=duration / 20.0,
        mix_bucket=duration / 10.0, jdbc_like=low.traces["pyxis"][0].name,
    )

    def run(name: str, selector) -> SimResult:
        sim = QueueingSimulator(app_cores=8, db_cores=16, network=network)
        sim.schedule(
            load_time, lambda: sim.set_db_external_load(reserved_fraction)
        )
        return sim.run(selector, rate=rate, duration=duration, name=name)

    for name, samples in (("jdbc", high.traces["jdbc"]),
                          ("manual", high.traces["manual"])):
        result.runs[name] = run(name, samples)

    # Pyxis: EWMA-driven selection between the two partitions' traces.
    switcher: DynamicSwitcher[list[TransactionTrace]] = DynamicSwitcher(
        [low.traces["pyxis"], high.traces["pyxis"]],
        SwitcherConfig(alpha=0.2, poll_interval=10.0, threshold_percent=40.0),
    )
    sim = QueueingSimulator(app_cores=8, db_cores=16, network=network)
    sim.schedule(load_time, lambda: sim.set_db_external_load(reserved_fraction))

    def poll() -> None:
        switcher.observe_load(sim.now, 100.0 * sim.db_utilization_window())
        if sim.now < duration:
            sim.schedule(10.0, poll)

    sim.schedule(10.0, poll)

    def selector(now: float, simulator) -> TransactionTrace:
        options = switcher.choose()
        return simulator.rng.choice(options)

    result.runs["pyxis"] = sim.run(
        selector, rate=rate, duration=duration, name="pyxis"
    )
    return result


# ---------------------------------------------------------------------------
# TPC-W (figures 12 and 13)
# ---------------------------------------------------------------------------

# TPC-W interactions carry much more application logic than TPC-C
# (HTML assembly, price computation), so TPCW_COST_MODEL (the serve
# scenarios' model) charges more per interpreted statement.  This is
# what makes Manual lose at high WIPS on a 3-core database in the
# paper's Figure 13.


def _tpcw_setup(n_interactions: int, seed: int = 41):
    scale = TpcwScale()
    pyxis, pset = tpcw_partitions(scale, seed)
    gen = BrowsingMix(scale, seed=seed + 1)
    interactions = [gen.next_interaction() for _ in range(n_interactions)]

    def make_connection():
        _, conn = make_tpcw_database(scale)
        return conn

    def cluster_factory() -> Cluster:
        return Cluster(
            ClusterConfig(
                app_cores=8, db_cores=16,
                one_way_latency=TPCW_ONE_WAY_LATENCY,
            ),
            TPCW_COST_MODEL,
        )

    return pyxis, pset, interactions, make_connection, cluster_factory


def _run_tpcw_experiment(
    name: str, db_cores: int, budget: str, fast: bool
) -> ExperimentResult:
    n_interactions = 20 if fast else 60
    points = 4 if fast else 8
    duration = 5.0 if fast else 30.0
    pyxis, pset, interactions, make_connection, cluster_factory = (
        _tpcw_setup(n_interactions)
    )
    part = pset.highest() if budget == "high" else pset.lowest()
    trace_set = collect_tpcw_traces(
        {"pyxis": part.compiled}, pyxis.program, make_connection,
        interactions, cluster_factory,
    )
    network = SimNetworkParams(one_way_latency=TPCW_ONE_WAY_LATENCY)
    manual_cpu = max(
        sum(t.db_cpu for t in trace_set.traces["manual"])
        / len(trace_set.traces["manual"]),
        1e-9,
    )
    top = 1.15 * db_cores / manual_cpu
    rates = [max(top * i / points, 1.0) for i in range(1, points + 1)]
    curves = sweep(
        trace_set, rates, duration=duration,
        app_cores=8, db_cores=db_cores, network=network,
    )
    result = ExperimentResult(name=name)
    for impl, sims in curves.items():
        result.curves[impl] = [CurvePoint.from_sim(s) for s in sims]
    result.notes["db_cores"] = db_cores
    return result


def fig12(fast: bool = True) -> ExperimentResult:
    """TPC-W browsing mix, 16-core DB (paper Figure 12).

    Pyxis(high budget) tracks Manual with a slightly larger gap than
    on TPC-C (more application logic travels through the runtime), and
    no-database interactions stay on the application server.
    """
    return _run_tpcw_experiment("fig12", db_cores=16, budget="high", fast=fast)


def fig13(fast: bool = True) -> ExperimentResult:
    """TPC-W browsing mix, 3-core DB (paper Figure 13)."""
    return _run_tpcw_experiment("fig13", db_cores=3, budget="low", fast=fast)


# ---------------------------------------------------------------------------
# Microbenchmark 1: runtime overhead (Section 7.3)
# ---------------------------------------------------------------------------


@dataclass
class Micro1Result:
    native_seconds: float
    pyxis_seconds: float
    n: int
    repeats: int

    @property
    def overhead(self) -> float:
        return (
            self.pyxis_seconds / self.native_seconds
            if self.native_seconds > 0
            else float("inf")
        )


@dataclass
class InterpComparisonResult:
    """Wall-clock timings for the two block-runtime implementations.

    ``*_seconds`` are medians over the timed runs; ``*_best_seconds``
    the fastest runs.  ``speedup`` is the source rung over the
    tree-walker on medians, ``best_speedup`` on the fastest runs.
    """

    tree_seconds: float
    source_seconds: float
    tree_best_seconds: float
    source_best_seconds: float
    n: int
    repeats: int

    @property
    def speedup(self) -> float:
        return _ratio(self.tree_seconds, self.source_seconds)

    @property
    def best_speedup(self) -> float:
        return _ratio(self.tree_best_seconds, self.source_best_seconds)


def _ratio(slow: float, fast: float) -> float:
    return slow / fast if fast > 0 else float("inf")


def interp_comparison(n: int = 600, repeats: int = 5) -> InterpComparisonResult:
    """Micro1 under the tree and source block runtimes.

    The linked-list workload has no DB calls and (under budget 0) no
    control transfers, so the measured time is pure interpreter
    overhead -- exactly what the source-codegen rung attacks.  Reports
    the median and the fastest of ``repeats`` timed runs per
    implementation.
    """
    import statistics

    _, conn = make_micro_database()
    pyxis = Pyxis.from_source(LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS)
    profile = pyxis.profile_with(
        conn, lambda p: p.invoke("LinkedList", "run", 32)
    )
    part = pyxis.partition(profile, budgets=[0.0]).partitions[0]
    expected = native_linked_list(n)

    def timed_seconds(interp: str) -> tuple[float, float]:
        app = PartitionedApp(
            part.compiled, Cluster(), conn, interp=interp
        )
        # Warm-up doubles as a correctness guard (not an `assert`, so
        # python -O cannot strip it and skew the first timed sample).
        warm = app.invoke("LinkedList", "run", n)
        if warm != expected:
            raise RuntimeError(
                f"{interp} interpreter returned {warm!r}, expected {expected!r}"
            )
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            app.invoke("LinkedList", "run", n)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples), min(samples)

    tree_median, tree_best = timed_seconds("tree")
    source_median, source_best = timed_seconds("source")
    return InterpComparisonResult(
        tree_seconds=tree_median,
        source_seconds=source_median,
        tree_best_seconds=tree_best,
        source_best_seconds=source_best,
        n=n,
        repeats=repeats,
    )


@dataclass
class SqlExecComparisonResult:
    """Wall-clock timings for the two SQL executors on one mix.

    ``*_seconds`` are medians over the timed passes; ``*_best_seconds``
    are the fastest passes.  The headline ``speedup`` (source over
    tree) compares the fastest passes: external noise only ever adds
    time, so best-of-N is the stable estimator for a ratio guarded by
    a CI floor (same reasoning as ``timeit``'s min).
    """

    tree_seconds: float
    source_seconds: float
    tree_best_seconds: float
    source_best_seconds: float
    transactions: int
    statements: int
    repeats: int

    @property
    def speedup(self) -> float:
        return _ratio(self.tree_best_seconds, self.source_best_seconds)

    @property
    def median_speedup(self) -> float:
        return _ratio(self.tree_seconds, self.source_seconds)

    @property
    def tree_statements_per_second(self) -> float:
        return self.statements / self.tree_seconds

    @property
    def source_statements_per_second(self) -> float:
        return self.statements / self.source_seconds


def sql_exec_comparison(
    transactions: int = 50, repeats: int = 7, seed: int = 7
) -> SqlExecComparisonResult:
    """The TPC-C new-order statement mix under both SQL executors.

    Prepares the mix's distinct statements once per implementation
    (source generation happens at prepare time, composing with the
    plan cache), then times executor-level statement execution -- the
    layer the generated code attacks.  Each timed pass runs inside a
    transaction that is rolled back afterwards (outside the timed
    region), so every pass replays the identical statement script
    against the identical database state; both executors record the
    same undo stream (bit equality is the differential suite's job,
    not the benchmark's).

    The timed passes *interleave* across the two modes (pass ``i`` of
    each mode runs back to back) instead of timing each mode as a
    sequential block: the floor asserts a speedup *ratio*, and
    machine-state drift over the run -- frequency scaling, thermal
    state, a background task -- would bias a ratio of two blocks
    measured seconds apart, while it cancels out of adjacent samples.
    Reports the median and fastest of ``repeats`` passes per
    implementation.
    """
    import statistics

    from repro.db.jdbc import connect
    from repro.db.txn import Transaction
    from repro.workloads.tpcc import (
        TpccScale,
        make_tpcc_database,
        new_order_statement_script,
    )

    scale = TpccScale()
    script = new_order_statement_script(
        scale, transactions=transactions, seed=seed
    )
    modes = ("tree", "source")

    def make_runner(mode: str):
        db, _ = make_tpcc_database(scale)
        conn = connect(db, sql_exec=mode)
        if mode == "source":
            prepared = [
                (conn.prepare(sql).compiled.run, params)
                for sql, params in script
            ]

            def run_pass(txn: Transaction) -> None:
                for run, params in prepared:
                    run(params, txn)
        else:
            execute = conn.executor.execute
            plans = [
                (conn.prepare(sql).plan, params) for sql, params in script
            ]

            def run_pass(txn: Transaction) -> None:
                for plan, params in plans:
                    execute(plan, params, txn)

        # Warm-up pass: first-touch costs (method caches, branch
        # warm-up) stay out of the timed samples.
        warm = Transaction(db, None)
        run_pass(warm)
        warm.rollback()
        return db, run_pass

    runners = {mode: make_runner(mode) for mode in modes}
    samples: dict[str, list[float]] = {mode: [] for mode in modes}
    for _ in range(repeats):
        for mode in modes:
            db, run_pass = runners[mode]
            txn = Transaction(db, None)
            start = time.perf_counter()
            run_pass(txn)
            samples[mode].append(time.perf_counter() - start)
            txn.rollback()

    return SqlExecComparisonResult(
        tree_seconds=statistics.median(samples["tree"]),
        source_seconds=statistics.median(samples["source"]),
        tree_best_seconds=min(samples["tree"]),
        source_best_seconds=min(samples["source"]),
        transactions=transactions,
        statements=len(script),
        repeats=repeats,
    )


def micro1(n: int = 400, repeats: int = 5) -> Micro1Result:
    """Wall-clock overhead of the block runtime versus native Python.

    All fields and statements are placed on one server (budget 0 with
    no DB calls leaves everything on APP), so there are no control
    transfers: the slowdown is pure execution-block + managed heap
    overhead.  The paper measures ~6x versus native Java.
    """
    _, conn = make_micro_database()
    pyxis = Pyxis.from_source(LINKED_LIST_SOURCE, LINKED_LIST_ENTRY_POINTS)
    profile = pyxis.profile_with(
        conn, lambda p: p.invoke("LinkedList", "run", 32)
    )
    part = pyxis.partition(profile, budgets=[0.0]).partitions[0]

    cluster = Cluster()
    app = PartitionedApp(part.compiled, cluster, conn)
    # Warm up both paths (a correctness guard, not an `assert`: it must
    # survive python -O or the first timed sample runs cold).
    warm = app.invoke("LinkedList", "run", n)
    if warm != native_linked_list(n):
        raise RuntimeError(f"pyxis runtime returned {warm!r} for micro1")

    # GC hygiene (same as timeit's): the native window is sub-millisecond,
    # so a single gen-2 collection of a large live heap (e.g. a long test
    # session's) landing inside it would dwarf the measurement and invert
    # the overhead ratio.
    import gc

    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # Best-of-repeats per side (the smokes' idiom): external noise
        # only ever adds time, and a single scheduler stall inside one
        # sub-millisecond native rep must not skew the ratio.
        pyxis_samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            app.invoke("LinkedList", "run", n)
            pyxis_samples.append(time.perf_counter() - start)
        native_samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            native_linked_list(n)
            native_samples.append(time.perf_counter() - start)
        pyxis_seconds = min(pyxis_samples)
        native_seconds = min(native_samples)
    finally:
        if gc_was_enabled:
            gc.enable()
    return Micro1Result(
        native_seconds=native_seconds,
        pyxis_seconds=pyxis_seconds,
        n=n,
        repeats=repeats,
    )


# ---------------------------------------------------------------------------
# Figure 14: microbenchmark 2 (three budgets x three loads)
# ---------------------------------------------------------------------------

FIG14_COST_MODEL = CostModel(
    statement_cost=6e-6,
    block_dispatch_cost=4e-6,
    db_fixed_cost=50e-6,
    db_row_cost=10e-6,
)
FIG14_LOADS: dict[str, tuple[float, float]] = {
    # load name -> (app speed factor, db speed factor)
    "no_load": (1.0, 1.0),
    "partial_load": (1.0, 0.5),
    "full_load": (1.0, 0.015),
}


@dataclass
class Fig14Result:
    """Completion time (seconds) per (partition, load)."""

    times: dict[tuple[str, str], float] = field(default_factory=dict)
    partitions: list[str] = field(default_factory=list)
    loads: list[str] = field(default_factory=list)
    fractions_on_db: dict[str, float] = field(default_factory=dict)

    def best_for(self, load: str) -> str:
        return min(
            self.partitions, key=lambda p: self.times[(p, load)]
        )


def _completion_time(
    trace: TransactionTrace,
    app_speed: float,
    db_speed: float,
    network: SimNetworkParams,
) -> float:
    from repro.sim.queueing import StageKind

    total = 0.0
    for stage in trace.stages:
        if stage.kind is StageKind.APP_CPU:
            total += stage.duration / app_speed
        elif stage.kind is StageKind.DB_CPU:
            total += stage.duration / db_speed
        else:
            total += network.message_delay(stage.nbytes)
    return total


def fig14(scale: Optional[MicroScale] = None) -> Fig14Result:
    """Microbenchmark 2 (paper Figure 14).

    Three partitions (generated under low / medium / high budgets)
    run under three database-server load levels; the fastest partition
    per load level should follow the paper's diagonal: APP under full
    load, APP--DB under partial load, DB with no load.
    """
    scale = scale if scale is not None else MicroScale()
    _, conn = make_micro_database(rows=scale.keys)
    config = PyxisConfig(latency=0.001)
    pyxis = Pyxis.from_source(
        THREE_PHASE_SOURCE, THREE_PHASE_ENTRY_POINTS, config
    )
    args = (scale.queries_per_phase, scale.hashes, scale.keys)
    profile = pyxis.profile_with(
        conn, lambda p: p.invoke("ThreePhase", "run", *args)
    )
    total_weight = profile.total_statement_weight()
    pset = pyxis.partition(
        profile, budgets=[0.0, total_weight * 0.62, 1e9]
    )
    labels = ["APP", "APP-DB", "DB"]
    network = SimNetworkParams(one_way_latency=0.001)

    result = Fig14Result(
        partitions=labels, loads=list(FIG14_LOADS)
    )
    for label, part in zip(labels, pset.by_budget()):
        _, run_conn = make_micro_database(rows=scale.keys)
        cluster = Cluster(
            ClusterConfig(one_way_latency=0.001), FIG14_COST_MODEL
        )
        app = PartitionedApp(part.compiled, cluster, run_conn)
        outcome = app.invoke_traced("ThreePhase", "run", *args)
        result.fractions_on_db[label] = part.fraction_on_db
        for load, (app_speed, db_speed) in FIG14_LOADS.items():
            result.times[(label, load)] = _completion_time(
                outcome.trace, app_speed, db_speed, network
            )
    return result
