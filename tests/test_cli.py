"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.db.sql import (
    DEFAULT_SQL_EXEC,
    SQL_EXEC_ENV_VAR,
    SQL_EXEC_MODES,
)
from tests.conftest import ORDER_SOURCE


@pytest.fixture()
def order_file(tmp_path):
    path = tmp_path / "order_app.py"
    path.write_text(ORDER_SOURCE)
    return str(path)


class TestPartitionCommand:
    def test_partition_prints_summary(self, order_file, capsys):
        code = main([
            "partition", order_file, "--entry", "Order.place_order",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PartitionGraph" in out
        assert "budget" in out
        # Why this plan: both extremes are one max-flow, proven optimal.
        assert out.count(
            "proven lower bound 6.000 ms after 1 node(s), 1 max-flow(s)"
        ) == 1
        assert "objective 6.000 ms" in out

    def test_solver_default_follows_the_config(self):
        from repro.core.pipeline import PyxisConfig

        args = build_parser().parse_args(["partition", "app.py"])
        assert args.solver == PyxisConfig().solver == "bnb"

    def test_partition_with_pyxil_listing(self, order_file, capsys):
        code = main([
            "partition", order_file, "--entry", "Order.place_order",
            "--pyxil",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert ":APP:" in out or ":DB:" in out

    def test_partition_custom_budgets(self, order_file, capsys):
        code = main([
            "partition", order_file, "--entry", "Order.place_order",
            "--budget", "0", "--budget", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget 0" in out
        assert "budget 100" in out

    def test_partition_dump_codegen_writes_modules(
        self, order_file, tmp_path, capsys
    ):
        from repro.core import codegen as core_codegen

        out_dir = tmp_path / "codegen"
        try:
            code = main([
                "partition", order_file, "--entry", "Order.place_order",
                "--dump-codegen", str(out_dir),
            ])
        finally:
            core_codegen.set_dump_dir(None)
        assert code == 0
        dumped = list(out_dir.glob("blocks_*.py"))
        assert dumped
        for path in dumped:
            # Stable names, re-compilable text.
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
        assert f"dumped {len(dumped)} generated source module(s)" in (
            capsys.readouterr().out
        )

    def test_bad_entry_format(self, order_file, capsys):
        code = main(["partition", order_file, "--entry", "nodots"])
        assert code == 2
        assert "Class.method" in capsys.readouterr().err

    def test_solver_choices_enforced(self, order_file):
        with pytest.raises(SystemExit):
            main([
                "partition", order_file, "--entry", "Order.place_order",
                "--solver", "cplex",
            ])


class TestExperimentsCommand:
    def test_unknown_experiment_rejected(self, capsys):
        code = main(["experiments", "fig99"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_fig14_runs(self, capsys):
        code = main(["experiments", "fig14"])
        assert code == 0
        out = capsys.readouterr().out
        assert "microbenchmark 2" in out

    def test_micro1_runs(self, capsys):
        code = main(["experiments", "micro1"])
        assert code == 0
        assert "overhead" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_sweep_prints_table(self, capsys):
        code = main([
            "serve", "--workload", "micro", "--clients", "1,2",
            "--duration", "2", "--think", "0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve load sweep: micro" in out
        assert "static_low" in out
        assert "static_high" in out
        assert "adaptive" in out

    def test_serve_accept_limit_flag(self, capsys):
        code = main([
            "serve", "--workload", "micro", "--clients", "4",
            "--duration", "2", "--accept-limit", "0",
        ])
        assert code == 0
        assert "adaptive" in capsys.readouterr().out

    def test_serve_bad_clients_rejected(self, capsys):
        code = main(["serve", "--clients", "nope"])
        assert code == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_serve_zero_clients_rejected(self, capsys):
        code = main(["serve", "--clients", "0"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_sql_exec_offers_every_rung(self, capsys, monkeypatch):
        parser = build_parser()
        for mode in SQL_EXEC_MODES:
            args = parser.parse_args(["serve", "--sql-exec", mode])
            assert args.sql_exec == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--help"])
        assert f"default: {DEFAULT_SQL_EXEC}" in " ".join(
            capsys.readouterr().out.split()
        )
        # The flag exports the variable; keep it out of later tests.
        monkeypatch.setenv(SQL_EXEC_ENV_VAR, "")
        code = main([
            "serve", "--workload", "micro", "--clients", "2",
            "--duration", "1", "--sql-exec", "source",
        ])
        assert code == 0
        assert "serve load sweep: micro" in capsys.readouterr().out

    def test_unknown_sql_exec_refused_naming_the_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--sql-exec", "turbo"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "turbo" in err
        for mode in SQL_EXEC_MODES:
            assert repr(mode) in err

    def test_serve_switching_registered(self):
        args = build_parser().parse_args(["serve", "--switching"])
        assert args.switching
        assert args.command == "serve"

    def test_serve_htap_prints_report(self, capsys):
        code = main([
            "serve", "--htap", "--clients", "8", "--duration", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve htap: tpcc" in out
        assert "degradation" in out
        assert "bit-identical to the row store" in out

    def test_serve_htap_excludes_other_scenarios(self, capsys):
        code = main(["serve", "--htap", "--switching"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_serve_htap_needs_single_server(self, capsys):
        code = main(["serve", "--htap", "--shards", "2"])
        assert code == 2
        assert "single-server" in capsys.readouterr().err

    def test_serve_htap_needs_tpcc(self, capsys):
        code = main(["serve", "--htap", "--workload", "micro"])
        assert code == 2
        assert "analytics" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_registered(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"


class TestServeWalCommand:
    def test_inject_flag_is_repeatable(self):
        args = build_parser().parse_args([
            "serve", "--inject", "crash:db1@5", "--inject", "slow:db0@2x4",
        ])
        assert args.inject == ["crash:db1@5", "slow:db0@2x4"]

    def test_storage_faults_without_wal_rejected(self, capsys):
        # Comma-separated specs are split before validation.
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--replicas", "1",
            "--inject", "tornwrite:db0@2,corrupt:db1@3",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "tornwrite:db0@2" in err and "corrupt:db1@3" in err
        assert "add --wal DIR" in err

    def test_inject_needs_replicas_or_wal(self, capsys):
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--inject", "crash:db1@5",
        ])
        assert code == 2
        assert "--replicas" in capsys.readouterr().err

    def test_kill_at_needs_wal(self, capsys):
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--replicas", "1", "--kill-at", "4",
        ])
        assert code == 2
        assert "--wal" in capsys.readouterr().err

    def test_restart_needs_wal(self, capsys):
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--replicas", "1", "--restart",
        ])
        assert code == 2
        assert "--wal" in capsys.readouterr().err

    def test_wal_excludes_replicas(self, tmp_path, capsys):
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--replicas", "1", "--wal", str(tmp_path / "wal"),
        ])
        assert code == 2
        assert "pick one" in capsys.readouterr().err

    def test_wal_needs_two_shards(self, tmp_path, capsys):
        code = main([
            "serve", "--workload", "tpcc", "--shards", "1",
            "--wal", str(tmp_path / "wal"),
        ])
        assert code == 2
        assert "--shards >= 2" in capsys.readouterr().err

    def test_wal_needs_tpcc(self, tmp_path, capsys):
        code = main([
            "serve", "--workload", "micro",
            "--wal", str(tmp_path / "wal"),
        ])
        assert code == 2
        assert "TPC-C" in capsys.readouterr().err

    def test_crash_recover_restart_end_to_end(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        code = main([
            "serve", "--workload", "tpcc", "--shards", "2",
            "--clients", "8", "--duration", "6", "--wal", wal_dir,
            "--kill-at", "3.5", "--restart",
            "--inject", "tornwrite:db0@2,corrupt:db1@2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tornwrite db0" in out and "corrupt db1" in out
        assert "bit-identical" in out
        assert "restart" in out
        # The standalone verb recovers the same directory again.
        code = main(["recover", wal_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("recovered in") == 2  # one per serve option
        assert "replayed" in out


class TestRecoverCommand:
    def test_missing_directory_rejected(self, tmp_path, capsys):
        code = main(["recover", str(tmp_path / "nope")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_directory_without_wal_rejected(self, tmp_path, capsys):
        code = main(["recover", str(tmp_path)])
        assert code == 2
        assert "no WAL found" in capsys.readouterr().err

    def test_corrupt_wal_fails_with_lsn(self, tmp_path, capsys):
        from repro.db import Database, attach_wal, connect

        db = Database("d")
        db.create_table(
            "kv", [("k", "int", False), ("v", "int")], primary_key=["k"]
        )
        manager = attach_wal(db, tmp_path)
        conn = connect(db)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 1, 1)
        conn.execute("INSERT INTO kv (k, v) VALUES (?, ?)", 2, 2)
        corrupted = manager.wals[0].inject_corruption()
        manager.close()
        code = main(["recover", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"LSN {corrupted}" in err
