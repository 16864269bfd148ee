"""Command-line interface.

Four subcommands::

    python -m repro partition FILE --entry Class.method [...]
        Parse, profile (with a synthetic single-invocation workload or
        user-provided args), partition, and print the PyxIL listing and
        placement summary for each budget.

    python -m repro experiments [fig9 fig10 fig11 fig12 fig13 fig14 micro1]
        Regenerate the paper's figures/tables and print the series.

    python -m repro serve [--workload tpcc] [--clients 1,4,16,64] [...]
        Drive the concurrent serving engine: a load sweep over client
        counts comparing the static partitionings with the online
        adaptive switcher, or (--switching) the mid-run load-spike
        scenario.

    python -m repro demo
        Run the quickstart (the paper's running example) end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.pipeline import SOLVERS, Pyxis, PyxisConfig
from repro.db.sql.compile_plan import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    SQL_EXEC_MODES,
)


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.pyxil.program import format_pyxil

    if args.dump_codegen:
        from repro.core.codegen import set_dump_dir

        set_dump_dir(args.dump_codegen)

    source = open(args.file).read()
    entry_points = []
    for entry in args.entry:
        if "." not in entry:
            print(f"error: entry {entry!r} must be Class.method",
                  file=sys.stderr)
            return 2
        class_name, method = entry.split(".", 1)
        entry_points.append((class_name, method))
    pyxis = Pyxis.from_source(
        source,
        entry_points or None,
        PyxisConfig(latency=args.latency, solver=args.solver),
    )
    print(f"parsed {len(list(pyxis.program.functions()))} methods; "
          f"entry points: {pyxis.program.entry_points}")

    # Without a workload we partition on the static structure alone
    # (every statement weighted 1) -- still useful for inspection.
    from repro.profiler.profile_data import ProfileData

    profile = ProfileData()
    budgets = args.budget if args.budget else None
    budget_list = [float(b) for b in budgets] if budgets else [0.0, 1e9]
    pset = pyxis.partition(profile, budgets=budget_list)
    print(pset.graph.summary())
    for part in pset.by_budget():
        print(f"\n=== budget {part.budget:.0f} "
              f"({part.fraction_on_db * 100:.0f}% of statements on DB, "
              f"objective {part.result.objective * 1000:.3f} ms) ===")
        stats = part.result.solve_stats
        if stats:
            print(f"proven lower bound "
                  f"{stats['lower_bound'] * 1000:.3f} ms after "
                  f"{stats['nodes']} node(s), "
                  f"{stats['max_flows']} max-flow(s)")
        if args.pyxil:
            print(format_pyxil(part.placed))
    if args.dump_codegen:
        # Force the source rung to generate (and therefore dump) every
        # partitioning's module; normally generation is lazy on the
        # first source-mode execution.
        from repro.runtime.codegen_blocks import ensure_program_source
        from repro.sim.cluster import Cluster

        model = Cluster().app.cost_model
        dumped = 0
        for part in pset.by_budget():
            ensure_program_source(part.compiled, model)
            dumped += 1
        print(f"\ndumped {dumped} generated source module(s) to "
              f"{args.dump_codegen}")
    if args.reuse_artifacts:
        # Demonstrate the incremental session: re-solve the same
        # ladder against the cached artifacts and report what was
        # actually recomputed (expect warm solves + PyxIL reuse).
        import time

        start = time.perf_counter()
        again = pyxis.partition(profile, budgets=budget_list)
        elapsed = time.perf_counter() - start
        reused = sum(
            1
            for a, b in zip(pset.by_budget(), again.by_budget())
            if a.compiled is b.compiled
        )
        stats = pyxis.stats.snapshot()
        print(f"\n=== incremental re-solve (--reuse-artifacts) ===")
        print(f"re-solved {len(budget_list)} budget(s) in "
              f"{elapsed * 1000:.1f} ms; {reused} compiled program(s) "
              f"reused identically")
        print(f"session stats: {stats}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.bench import experiments as experiments_mod
    from repro.bench import report as report_mod

    available = {
        "fig9": lambda: report_mod.format_curves(
            experiments_mod.fig9(fast=args.fast)
        ),
        "fig10": lambda: report_mod.format_curves(
            experiments_mod.fig10(fast=args.fast)
        ),
        "fig11": lambda: report_mod.format_fig11(
            experiments_mod.fig11(fast=args.fast)
        ),
        "fig12": lambda: report_mod.format_curves(
            experiments_mod.fig12(fast=args.fast)
        ),
        "fig13": lambda: report_mod.format_curves(
            experiments_mod.fig13(fast=args.fast)
        ),
        "fig14": lambda: report_mod.format_fig14(experiments_mod.fig14()),
        "micro1": lambda: report_mod.format_micro1(
            experiments_mod.micro1()
        ),
    }
    names = args.names or list(available)
    unknown = [n for n in names if n not in available]
    if unknown:
        print(f"error: unknown experiments {unknown}; "
              f"options: {sorted(available)}", file=sys.stderr)
        return 2
    for name in names:
        print(available[name]())
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.bench import serve_experiments as serve_mod
    from repro.bench import report as report_mod

    if args.sql_exec is not None:
        # The workload factories open their own connections; the env
        # var is the process-wide default they all read.
        os.environ[SQL_EXEC_ENV_VAR] = args.sql_exec

    # --inject composes with --wal (storage faults ride the
    # crash/recovery scenario); on its own it selects the failover one.
    scenarios = [
        name for name, on in (
            ("--switching", args.switching),
            ("--repartition", args.repartition),
            ("--shard-sweep", args.shard_sweep),
            ("--htap", args.htap),
            ("--wal", bool(args.wal)),
            ("--inject", bool(args.inject) and not args.wal),
        ) if on
    ]
    if len(scenarios) > 1:
        print(f"error: {' and '.join(scenarios)} are mutually "
              "exclusive scenarios", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be at least 1", file=sys.stderr)
        return 2
    if args.replicas < 0:
        print("error: --replicas must be non-negative", file=sys.stderr)
        return 2
    if args.replicas and args.shards < 2:
        print("error: --replicas rides on the sharded tier; use "
              "--shards >= 2", file=sys.stderr)
        return 2
    if (args.replicas or args.inject or args.wal) and args.workload != "tpcc":
        print("error: --replicas/--inject/--wal need the TPC-C workload "
              f"(--workload {args.workload} is not replicated yet)",
              file=sys.stderr)
        return 2
    # Each --inject may carry several comma-separated specs.
    inject_specs = [
        spec.strip()
        for arg in (args.inject or [])
        for spec in arg.split(",")
        if spec.strip()
    ]
    if inject_specs and not (args.replicas or args.wal):
        print("error: --inject needs --replicas (failover) or --wal "
              "(crash recovery), e.g. --shards 2 --replicas 2 or "
              "--shards 2 --wal /tmp/wal", file=sys.stderr)
        return 2
    if (args.trace_out or args.metrics_out) and not (
        inject_specs or args.wal
    ):
        print("error: --trace-out/--metrics-out export the --inject or "
              "--wal scenarios; add one (e.g. --inject crash:db1@5)",
              file=sys.stderr)
        return 2
    if (args.kill_at is not None or args.restart) and not args.wal:
        print("error: --kill-at/--restart shape the --wal crash "
              "scenario; add --wal DIR", file=sys.stderr)
        return 2

    if args.wal:
        if args.replicas:
            print("error: --wal durability and --replicas failover are "
                  "separate scenarios; pick one", file=sys.stderr)
            return 2
        if args.shards < 2:
            print("error: --wal crash recovery exercises the 2PC "
                  "decision log; use --shards >= 2", file=sys.stderr)
            return 2
        db_cores = args.db_cores if args.db_cores is not None else 2
        try:
            clients = (
                int(args.clients.split(",")[0]) if args.clients else 48
            )
        except ValueError:
            print(f"error: --clients must be an int for --wal, "
                  f"got {args.clients!r}", file=sys.stderr)
            return 2
        try:
            result = serve_mod.serve_wal_recovery(
                args.wal,
                fast=args.fast,
                clients=clients,
                shards=args.shards,
                db_cores=db_cores,
                duration=args.duration,
                kill_at=args.kill_at,
                think_time=args.think if args.think is not None else 0.01,
                fault_specs=inject_specs or None,
                seed=args.seed,
                restart=args.restart,
                tracing=bool(args.trace_out),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report_mod.format_wal_recovery(result))
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(result.trace_json or "")
            print(f"trace written to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(result.metrics_json or "")
            print(f"metrics written to {args.metrics_out}")
        return 0

    if inject_specs:
        from repro.sim.cluster import STORAGE_FAULT_KINDS

        storage = [
            spec for spec in inject_specs
            if spec.split(":", 1)[0] in STORAGE_FAULT_KINDS
        ]
        if storage:
            print(f"error: storage fault(s) {storage} need a WAL to "
                  "damage; add --wal DIR", file=sys.stderr)
            return 2
        db_cores = args.db_cores if args.db_cores is not None else 2
        try:
            clients = (
                int(args.clients.split(",")[0]) if args.clients else 96
            )
        except ValueError:
            print(f"error: --clients must be an int for --inject, "
                  f"got {args.clients!r}", file=sys.stderr)
            return 2
        try:
            result = serve_mod.serve_failover(
                fast=args.fast,
                clients=clients,
                shards=args.shards,
                replicas=args.replicas,
                db_cores=db_cores,
                duration=args.duration,
                think_time=args.think if args.think is not None else 0.01,
                fault_specs=inject_specs,
                seed=args.seed,
                tracing=bool(args.trace_out),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report_mod.format_serve_failover(result))
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(result.trace_json or "")
            print(f"trace written to {args.trace_out}")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(result.metrics_json or "")
            print(f"metrics written to {args.metrics_out}")
        return 0

    if args.htap:
        if args.workload != "tpcc":
            print("error: --htap runs the TPC-C workload; "
                  f"--workload {args.workload} has no analytics suite",
                  file=sys.stderr)
            return 2
        if args.shards != 1:
            print("error: --htap mirrors the single-server tier; "
                  "drop --shards", file=sys.stderr)
            return 2
        db_cores = args.db_cores if args.db_cores is not None else 4
        try:
            clients = (
                int(args.clients.split(",")[0]) if args.clients else 32
            )
        except ValueError:
            print(f"error: --clients must be an int for --htap, "
                  f"got {args.clients!r}", file=sys.stderr)
            return 2
        try:
            result = serve_mod.serve_htap(
                fast=args.fast,
                clients=clients,
                db_cores=db_cores,
                duration=args.duration,
                think_time=args.think if args.think is not None else 0.02,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report_mod.format_serve_htap(result))
        return 0

    if args.shard_sweep:
        if args.workload != "tpcc":
            print("error: --shard-sweep runs the TPC-C workload; "
                  f"--workload {args.workload} is not sharded yet",
                  file=sys.stderr)
            return 2
        top = args.shards if args.shards > 1 else 4
        db_cores = args.db_cores if args.db_cores is not None else 2
        try:
            clients = (
                int(args.clients.split(",")[0]) if args.clients else 96
            )
        except ValueError:
            print(f"error: --clients must be an int for --shard-sweep, "
                  f"got {args.clients!r}", file=sys.stderr)
            return 2
        result = serve_mod.serve_shard_sweep(
            fast=args.fast,
            shard_counts=tuple(sorted({1, 2, top})),
            clients=clients,
            db_cores=db_cores,
            duration=args.duration,
            think_time=args.think if args.think is not None else 0.01,
            shard_key=args.shard_key,
            seed=args.seed,
        )
        print(report_mod.format_serve_shard_sweep(result))
        return 0
    if args.clients is None:
        clients = [16] if args.repartition else [1, 4, 16, 64]
    else:
        try:
            clients = [int(c) for c in args.clients.split(",") if c.strip()]
        except ValueError:
            print(f"error: --clients must be a comma-separated list of "
                  f"ints, got {args.clients!r}", file=sys.stderr)
            return 2
    if not clients or any(c < 1 for c in clients):
        print("error: client counts must be positive", file=sys.stderr)
        return 2

    if args.repartition:
        if len(clients) > 1:
            print("error: --repartition runs one scenario; give a single "
                  "--clients count", file=sys.stderr)
            return 2
        db_cores = args.db_cores if args.db_cores is not None else 2
        result = serve_mod.serve_repartition(
            fast=args.fast,
            clients=clients[0],
            db_cores=db_cores,
            duration=args.duration,
            think_time=args.think if args.think is not None else 0.05,
            seed=args.seed,
        )
        print(report_mod.format_serve_repartition(result))
        return 0

    if args.switching:
        # Switching needs CPU headroom to start from (external load eats
        # it mid-run); the sweep wants a CPU-constrained DB so the
        # static partitionings separate.  Hence different defaults.
        db_cores = args.db_cores if args.db_cores is not None else 16
        result = serve_mod.serve_dynamic_switching(
            fast=args.fast,
            workload=args.workload,
            clients=clients[0],
            db_cores=db_cores,
            duration=args.duration,
            think_time=args.think if args.think is not None else 0.05,
            accept_queue_limit=args.accept_limit,
            seed=args.seed,
            shards=args.shards,
            shard_key=args.shard_key,
            replicas=args.replicas,
        )
        print(report_mod.format_serve_switching(result))
        return 0

    db_cores = args.db_cores if args.db_cores is not None else 3
    result = serve_mod.serve_load_sweep(
        fast=args.fast,
        workload=args.workload,
        client_counts=clients,
        db_cores=db_cores,
        duration=args.duration,
        think_time=args.think if args.think is not None else 0.05,
        accept_queue_limit=args.accept_limit,
        seed=args.seed,
        shards=args.shards,
        shard_key=args.shard_key,
        replicas=args.replicas,
    )
    print(report_mod.format_serve_sweep(result))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.bench import report as report_mod
    from repro.db.errors import WalError
    from repro.db.recovery import recover
    from repro.db.wal import META_FILE

    root = Path(args.wal)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    if (root / META_FILE).exists():
        targets = [root]
    else:
        targets = sorted(
            path for path in root.iterdir()
            if path.is_dir() and (path / META_FILE).exists()
        )
    if not targets:
        print(f"error: no WAL found: neither {root} nor its "
              f"subdirectories contain {META_FILE}", file=sys.stderr)
        return 2
    for target in targets:
        start = time.perf_counter()
        try:
            _, report = recover(target)
        except WalError as exc:
            print(f"error: recovery of {target} failed: {exc}",
                  file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - start
        print(report_mod.format_recovery_report(report))
        print(f"recovered in {elapsed * 1000:.1f} ms (wall clock)")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    import examples.quickstart as quickstart  # type: ignore[import-not-found]

    quickstart.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pyxis reproduction: automatic partitioning of "
                    "database applications (VLDB 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition an application file")
    p_part.add_argument("file", help="Python source with partitionable classes")
    p_part.add_argument(
        "--entry", action="append", default=[],
        help="entry point as Class.method (repeatable)",
    )
    p_part.add_argument("--budget", action="append", default=[],
                        help="CPU budget (repeatable)")
    p_part.add_argument("--latency", type=float, default=0.001,
                        help="one-way network latency in seconds")
    p_part.add_argument("--solver", default=PyxisConfig().solver,
                        choices=sorted(SOLVERS))
    p_part.add_argument("--pyxil", action="store_true",
                        help="print the PyxIL listing per budget")
    p_part.add_argument(
        "--reuse-artifacts", action="store_true",
        help="after the first pass, re-solve the same budgets on the "
             "cached session artifacts and report reuse statistics",
    )
    p_part.add_argument(
        "--dump-codegen", metavar="DIR", default=None,
        help="write each generated source module (codegen rung) to DIR "
             "with a stable name derived from its signature hash; "
             "equivalent to setting REPRO_DUMP_CODEGEN=DIR",
    )
    p_part.set_defaults(func=_cmd_partition)

    p_exp = sub.add_parser("experiments", help="regenerate paper figures")
    p_exp.add_argument("names", nargs="*", help="fig9 fig10 ... micro1")
    p_exp.add_argument("--full", dest="fast", action="store_false",
                       help="full-length sweeps (slow)")
    p_exp.set_defaults(func=_cmd_experiments, fast=True)

    p_serve = sub.add_parser(
        "serve", help="drive the concurrent serving engine"
    )
    p_serve.add_argument(
        "--workload", default="tpcc", choices=["tpcc", "tpcw", "micro"],
        help="transaction workload (default: tpcc)",
    )
    p_serve.add_argument(
        "--clients", default=None,
        help="comma-separated client counts to sweep "
             "(--switching uses the first; default: 1,4,16,64, "
             "or 16 for --repartition)",
    )
    p_serve.add_argument(
        "--db-cores", type=int, default=None,
        help="database server cores (default: 3 for the sweep, "
             "16 for --switching)",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None,
        help="virtual seconds per run (default: fast presets)",
    )
    p_serve.add_argument(
        "--think", type=float, default=None,
        help="mean client think time in seconds (default: 0.05, "
             "or 0.01 for --shard-sweep)",
    )
    p_serve.add_argument(
        "--accept-limit", type=int, default=None,
        help="admission control: max transactions waiting for a "
             "session before rejection (default: unbounded)",
    )
    p_serve.add_argument("--seed", type=int, default=17)
    p_serve.add_argument(
        "--sql-exec", default=None, choices=SQL_EXEC_MODES,
        help="SQL executor for the embedded engine: 'source' generates "
             "one Python function per plan at prepare time, 'compiled' "
             "fuses each plan into closures, 'tree' walks the operator "
             f"tree (sets {SQL_EXEC_ENV_VAR} for the run; default: "
             f"{DEFAULT_SQL_EXEC})",
    )
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="database shards behind the statement router (TPC-C "
             "only; default: 1 = the classic single server)",
    )
    p_serve.add_argument(
        "--shard-key", default="warehouse", choices=["warehouse", "hash"],
        help="shard placement: 'warehouse' routes by warehouse id "
             "(affine, transactions stay on one shard), 'hash' "
             "spreads the same keys by stable hash (default: "
             "warehouse)",
    )
    p_serve.add_argument(
        "--replicas", type=int, default=0,
        help="log-shipped replicas per shard primary (TPC-C with "
             "--shards >= 2 only; default: 0 = unreplicated)",
    )
    p_serve.add_argument(
        "--inject", action="append", default=None, metavar="SPEC",
        help="inject faults (repeatable or comma-separated; "
             "kind:db<shard>@<t>[x<factor>][:until=<t>] with kind in "
             "crash/slow/partition/tornwrite/corrupt/fsyncfail, e.g. "
             "crash:db1@5 or tornwrite:db0@3,corrupt:db1@4; "
             "crash/slow/partition need --replicas, storage kinds "
             "need --wal)",
    )
    p_serve.add_argument(
        "--wal", metavar="DIR", default=None,
        help="run the crash/recovery scenario: serve TPC-C with "
             "per-shard write-ahead logs under DIR, kill the whole "
             "cluster at --kill-at, and rebuild it from checkpoint + "
             "redo replay (needs --shards >= 2)",
    )
    p_serve.add_argument(
        "--kill-at", type=float, default=None, metavar="T",
        help="virtual second at which the --wal scenario crashes the "
             "cluster (default: 60%% of the duration)",
    )
    p_serve.add_argument(
        "--restart", action="store_true",
        help="after --wal recovery, restart the cluster from disk and "
             "serve the rest of the duration",
    )
    p_serve.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="export a Chrome trace_event JSON of the run (open in "
             "Perfetto / chrome://tracing; --inject scenario only)",
    )
    p_serve.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="export the run's metrics registry snapshot as JSON "
             "(--inject scenario only)",
    )
    p_serve.add_argument(
        "--shard-sweep", action="store_true",
        help="sweep the shard count (1 -> --shards, default 4) at a "
             "fixed client population and report the scaling curve",
    )
    p_serve.add_argument(
        "--htap", action="store_true",
        help="run the hybrid OLTP+analytics scenario: TPC-C with "
             "recurring analytical sessions (best-seller report, "
             "district GROUP BY) served by a redo-maintained columnar "
             "mirror, reporting the OLTP throughput cost",
    )
    p_serve.add_argument(
        "--switching", action="store_true",
        help="run the mid-run load-spike scenario instead of the sweep",
    )
    p_serve.add_argument(
        "--repartition", action="store_true",
        help="run the mid-run load-mix-shift scenario with online "
             "repartitioning (storefront workload; ignores --workload)",
    )
    p_serve.add_argument(
        "--full", dest="fast", action="store_false",
        help="full-length runs (slow)",
    )
    p_serve.set_defaults(func=_cmd_serve, fast=True)

    p_recover = sub.add_parser(
        "recover",
        help="rebuild databases from write-ahead-log directories",
    )
    p_recover.add_argument(
        "wal",
        help="a WAL directory (contains meta.json), or a parent whose "
             "subdirectories are WAL directories (as --wal DIR lays "
             "out one per partition option)",
    )
    p_recover.set_defaults(func=_cmd_recover)

    p_demo = sub.add_parser("demo", help="run the quickstart example")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
