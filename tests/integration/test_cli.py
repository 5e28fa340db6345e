"""CLI smoke tests (argument parsing + each subcommand end to end)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.nprocs == 16
        assert args.strategy == "ww-list"
        assert not args.query_sync

    def test_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bogus"])


SMALL = ["--nprocs", "4", "--nqueries", "2", "--nfragments", "4"]


class TestCommands:
    def test_run(self, capsys):
        code = main(["run", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "output file" in out
        assert "complete=True" in out

    def test_run_with_options(self, capsys):
        code = main(
            ["run", *SMALL, "--strategy", "mw", "--query-sync",
             "--compute-speed", "2.0", "--cluster", "modern"]
        )
        assert code == 0
        assert "mw" in capsys.readouterr().out

    def test_sweep_processes(self, capsys):
        code = main(["sweep", "processes", *SMALL, "--counts", "2,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Overall Execution Time - no-sync" in out
        assert "Ratios vs" in out

    def test_sweep_speed_with_phases(self, capsys):
        code = main(
            ["sweep", "speed", *SMALL, "--speeds", "1", "--phases"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worker process" in out

    def test_trace(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        code = main(["trace", *SMALL, "--width", "40", "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank   0" in out
        assert out_file.exists()

    def test_validate(self, capsys):
        code = main(["validate", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "VALIDATION PASSED" in out

    def test_hybrid(self, capsys):
        code = main(["run", *SMALL, "--masters", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "masters=2" in out
        assert "s0=" in out and "s1=" in out
        assert "complete=True" in out

    def test_sharded_trace(self, capsys):
        code = main(["trace", *SMALL, "--masters", "2", "--width", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank   2" in out and "rank   3" in out

    def test_validate_rejects_masters(self):
        with pytest.raises(SystemExit, match="one output file per strategy"):
            main(["validate", *SMALL, "--masters", "2"])

    def test_scenario_flag(self, capsys):
        code = main(["run", *SMALL, "--scenario", "pioblast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ww-coll" in out

    def test_workload_save_and_load(self, capsys, tmp_path):
        path = tmp_path / "workload.json"
        code = main(["run", *SMALL, "--save-workload", str(path)])
        assert code == 0 and path.exists()
        code = main(["run", "--nprocs", "4", "--workload", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete=True" in out

    def test_stats(self, capsys):
        code = main(["stats", *SMALL])
        out = capsys.readouterr().out
        assert code == 0
        assert "--- ww-list ---" in out
        assert "requests" in out and "seeks" in out and "syncs" in out
        assert "per-rank phase seconds:" in out
        assert "mpi:" in out and "mpiio:" in out

    def test_stats_compare_and_export(self, capsys, tmp_path):
        json_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "metrics.csv"
        code = main([
            "stats", *SMALL, "--compare", "--jobs", "2",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Comparison table: one summary row per strategy.
        for strategy in ("mw", "ww-posix", "ww-list", "ww-coll"):
            assert f"--- {strategy} ---" in out
        assert "regions/req" in out
        assert json_path.exists() and csv_path.exists()
        from repro.obs import load_metrics_json

        with open(json_path) as fh:
            doc = load_metrics_json(fh)
        names = {c["name"] for c in doc["counters"]}
        assert {"pvfs.requests", "pvfs.seeks", "app.phase_seconds"} <= names
        # Aggregated across strategies but still sliceable per strategy.
        strategies = {c["labels"].get("strategy") for c in doc["counters"]}
        assert {"mw", "ww-posix", "ww-list", "ww-coll"} <= strategies

    def test_sweep_export_files(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = main([
            "sweep", "processes", *SMALL, "--counts", "2,3",
            "--json", str(json_path), "--csv", str(csv_path),
        ])
        assert code == 0
        assert json_path.exists() and csv_path.exists()
        import json as json_mod

        doc = json_mod.loads(json_path.read_text())
        assert doc["format"] == "s3asim-sweep-1"

    def test_run_with_check(self, capsys):
        code = main(["run", *SMALL, "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants:" in out
        assert "checks passed" in out

    def test_check_subcommand(self, capsys):
        code = main(["check", "--cases", "1", "--seed", "3",
                     "--relations", "query-sync,empty-faults"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failure(s)" in out

    def test_check_replay(self, capsys, tmp_path):
        from repro.check import metamorphic as M

        path = str(tmp_path / "repro.json")
        M.write_artifact(
            path, "empty-faults",
            M.CheckCase(seed=11, nprocs=3, nqueries=1, nfragments=2,
                        nservers=2, write_every=1, strategy="ww-list"),
            "stale error",
        )
        code = main(["check", "--replay", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "HOLDS" in out
