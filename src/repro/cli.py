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
        adaptive switcher, or one scenario (--switching, --repartition,
        --shard-sweep, --htap, --wal, --inject).

    python -m repro demo
        Run the quickstart (the paper's running example) end to end.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.pipeline import SOLVERS, Pyxis, PyxisConfig
from repro.db.sql.codegen_plan import (
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


# Each `repro serve` scenario, by the flag that selects it ("" is the
# load sweep, which needs none): its runner in repro.bench.
# serve_experiments, its formatter in repro.bench.report, what it runs,
# and the flag values it fixes (accepted when given, never forwarded).
_SCENARIOS = {
    "": ("serve_load_sweep", "format_serve_sweep",
         "static and adaptive curves over client counts", {}),
    "--switching": ("serve_dynamic_switching", "format_serve_switching",
                    "a mid-run DB load spike", {}),
    "--repartition": ("serve_repartition", "format_serve_repartition",
                      "the storefront mix shift", {}),
    "--shard-sweep": ("serve_shard_sweep", "format_serve_shard_sweep",
                      "TPC-C over 1, 2 and --shards shards",
                      {"workload": "tpcc"}),
    "--htap": ("serve_htap", "format_serve_htap",
               "TPC-C analytics on the single-server tier",
               {"workload": "tpcc", "shards": 1}),
    "--wal": ("serve_wal_recovery", "format_wal_recovery",
              "TPC-C crash recovery from write-ahead logs",
              {"workload": "tpcc"}),
    "--inject": ("serve_failover", "format_serve_failover",
                 "TPC-C failover on replicated shards",
                 {"workload": "tpcc"}),
}

# Serve flags (argparse dests) whose runner keyword differs from the
# dest; the first keyword the chosen runner takes gets the value.
_SERVE_KEYWORDS = {
    "clients": ("client_counts", "clients"),
    "think": ("think_time",),
    "shards": ("shards", "shard_counts"),
    "inject": ("fault_specs",),
    "wal": ("wal_dir",),
    "trace_out": ("tracing",),
    "metrics_out": ("tracing",),
}


def _serve_value(keyword: str, value, scenario: str, given: dict):
    """A serve flag's value as the runner keyword expects it."""
    if keyword in ("client_counts", "clients"):
        try:
            counts = [int(c) for c in value.split(",") if c.strip()]
        except ValueError:
            raise ValueError(
                "--clients must be a comma-separated list of ints, "
                f"got {value!r}"
            ) from None
        if keyword == "client_counts":
            return counts
        if len(counts) != 1:
            raise ValueError(f"{scenario} runs one client population; "
                             "give a single --clients count")
        return counts[0]
    if keyword == "shard_counts":
        return tuple(sorted({1, 2, value}))
    if keyword == "fault_specs":
        # Each --inject may carry several comma-separated specs.
        return [s.strip() for arg in value for s in arg.split(",")
                if s.strip()]
    if keyword == "tracing":
        return "trace_out" in given
    return value


def _serve_call(given: dict):
    """The runner, formatter and keywords the given serve flags ask
    for; a flag the chosen scenario does not take is an error naming
    both."""
    import inspect

    from repro.bench import report, serve_experiments

    def flag(dest: str) -> str:
        return "--" + dest.replace("_", "-")

    def takes(scenario: str, dest: str) -> list[str]:
        runner = getattr(serve_experiments, _SCENARIOS[scenario][0])
        params = inspect.signature(runner).parameters
        return [k for k in _SERVE_KEYWORDS.get(dest, (dest,)) if k in params]

    # --inject composes with --wal (storage faults ride the crash /
    # recovery scenario); on its own it selects the failover one.
    chosen = [
        name for name in _SCENARIOS
        if name and name[2:].replace("-", "_") in given
        and not (name == "--inject" and "wal" in given)
    ]
    if len(chosen) > 1:
        raise ValueError(f"{' and '.join(chosen)} are mutually exclusive "
                         "scenarios")
    scenario = chosen[0] if chosen else ""
    if scenario == "--inject" and "replicas" not in given:
        raise ValueError(
            "--inject needs --replicas (failover) or --wal (crash "
            "recovery), e.g. --shards 2 --replicas 2 or --shards 2 "
            "--wal /tmp/wal"
        )
    runner, formatter, what, fixed = _SCENARIOS[scenario]
    name = scenario or "the load sweep"
    kwargs = {}
    for dest, value in given.items():
        # Scenario switches select; a value the scenario fixes is moot.
        if (flag(dest) in _SCENARIOS and value is True
                or fixed.get(dest, ...) == value):
            continue
        keywords = takes(scenario, dest)
        if not keywords:
            owners = [other or "the load sweep" for other in _SCENARIOS
                      if takes(other, dest)]
            raise ValueError(
                f"{flag(dest)} does not apply to {name} ({what}); pick "
                f"one scenario: {flag(dest)} is for {', '.join(owners)}"
            )
        kwargs[keywords[0]] = _serve_value(keywords[0], value, name, given)
    return (getattr(serve_experiments, runner), getattr(report, formatter),
            kwargs)


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    # Only the flags the user gave: every default is the runner's own.
    given = {
        dest: value for dest, value in vars(args).items()
        if dest not in ("command", "func")
    }
    if "sql_exec" in given:
        # The workload factories open their own connections; the env
        # var is the process-wide default they all read.
        os.environ[SQL_EXEC_ENV_VAR] = given.pop("sql_exec")
    try:
        runner, formatter, kwargs = _serve_call(given)
        result = runner(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(formatter(result))
    for dest, payload, what in (("trace_out", "trace_json", "trace"),
                                ("metrics_out", "metrics_json", "metrics")):
        if dest in given:
            with open(given[dest], "w", encoding="utf-8") as fh:
                fh.write(getattr(result, payload) or "")
            print(f"{what} written to {given[dest]}")
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

    # No serve flag has a parser default: an unset flag is absent from
    # the namespace and the scenario runner's own default applies.
    p_serve = sub.add_parser(
        "serve", help="drive the concurrent serving engine",
        argument_default=argparse.SUPPRESS,
    )
    p_serve.add_argument(
        "--workload", choices=["tpcc", "tpcw", "micro"],
        help="transaction workload (default: tpcc)",
    )
    p_serve.add_argument(
        "--clients",
        help="comma-separated client counts to sweep; every other "
             "scenario takes one count (default: the scenario's own)",
    )
    p_serve.add_argument(
        "--db-cores", type=int,
        help="database server cores, per shard (default: the "
             "scenario's own)",
    )
    p_serve.add_argument(
        "--duration", type=float,
        help="virtual seconds per run (default: fast presets)",
    )
    p_serve.add_argument(
        "--think", type=float,
        help="mean client think time in seconds (default: the "
             "scenario's own)",
    )
    p_serve.add_argument(
        "--seed", type=int,
        help="random seed (default: the scenario's own)",
    )
    p_serve.add_argument(
        "--sql-exec", choices=SQL_EXEC_MODES,
        help="SQL executor for the embedded engine: 'source' generates "
             "one Python function per plan at prepare time, 'tree' "
             f"walks the operator tree, the oracle (sets {SQL_EXEC_ENV_VAR} for the run; default: "
             f"{DEFAULT_SQL_EXEC})",
    )
    p_serve.add_argument(
        "--shards", type=int,
        help="database shards behind the statement router (TPC-C "
             "only; the sweep's default 1 is the classic single "
             "server); --shard-sweep sweeps 1, 2 and this count",
    )
    p_serve.add_argument(
        "--shard-key", choices=["warehouse", "hash"],
        help="shard placement: 'warehouse' routes by warehouse id "
             "(affine, transactions stay on one shard), 'hash' "
             "spreads the same keys by stable hash (default: "
             "warehouse)",
    )
    p_serve.add_argument(
        "--replicas", type=int,
        help="log-shipped replicas per shard primary (TPC-C with "
             "--shards >= 2 only; the sweep's default 0 is "
             "unreplicated)",
    )
    p_serve.add_argument(
        "--inject", action="append", metavar="SPEC",
        help="inject faults (repeatable or comma-separated; "
             "kind:db<shard>@<t>[x<factor>][:until=<t>] with kind in "
             "crash/slow/partition/tornwrite/corrupt/fsyncfail, e.g. "
             "crash:db1@5 or tornwrite:db0@3,corrupt:db1@4; "
             "crash/slow/partition need --replicas, storage kinds "
             "need --wal)",
    )
    p_serve.add_argument(
        "--wal", metavar="DIR",
        help="run the crash/recovery scenario: serve TPC-C with "
             "per-shard write-ahead logs under DIR, kill the whole "
             "cluster at --kill-at, and rebuild it from checkpoint + "
             "redo replay (needs --shards >= 2)",
    )
    p_serve.add_argument(
        "--kill-at", type=float, metavar="T",
        help="virtual second at which the --wal scenario crashes the "
             "cluster (default: 60%% of the duration)",
    )
    p_serve.add_argument(
        "--restart", action="store_true",
        help="after --wal recovery, restart the cluster from disk and "
             "serve the rest of the duration",
    )
    p_serve.add_argument(
        "--trace-out", metavar="PATH",
        help="export a Chrome trace_event JSON of the run (open in "
             "Perfetto / chrome://tracing; --inject, --wal and --htap)",
    )
    p_serve.add_argument(
        "--metrics-out", metavar="PATH",
        help="export the run's metrics registry snapshot as JSON "
             "(--inject, --wal and --htap)",
    )
    p_serve.add_argument(
        "--shard-sweep", action="store_true",
        help="sweep the shard count (1, 2 and --shards, default 4) at "
             "a fixed client population and report the scaling curve",
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
             "repartitioning (its own storefront workload)",
    )
    p_serve.add_argument(
        "--full", dest="fast", action="store_false",
        help="full-length runs (slow)",
    )
    p_serve.set_defaults(func=_cmd_serve)

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
