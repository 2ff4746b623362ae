"""Tests for the command-line interface."""

import pytest

from repro.cli import EXIT_CONFIG, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig8"])
        assert args.experiments == ["fig8"]
        assert args.runs == 2
        assert args.cycles == 25

    def test_trace_options(self, tmp_path):
        args = build_parser().parse_args(
            ["trace", str(tmp_path / "t.json"), "--users", "100", "--months", "3"]
        )
        assert args.users == 100


class TestCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig8" in out and "table1" in out

    def test_run_trace_figure(self, capsys):
        # fig3 runs on a default-config synthetic trace: a few seconds.
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "mean_rating_by_hop" in out

    def test_run_small_simulation(self, capsys, monkeypatch):
        # Shrink the world so the CLI smoke test stays fast.
        import repro.experiments.figures as figures

        original = figures.fig7

        def small_fig7(n_runs, simulation_cycles, seed):
            return original(
                n_runs=1,
                simulation_cycles=2,
                seed=seed,
                overrides=dict(
                    n_nodes=24,
                    n_pretrusted=2,
                    n_colluders=4,
                    n_interests=6,
                    interests_per_node=(1, 3),
                    query_cycles=4,
                ),
            )

        monkeypatch.setitem(
            __import__("repro.experiments.registry", fromlist=["EXPERIMENTS"]).EXPERIMENTS,
            "fig7",
            small_fig7,
        )
        assert main(["run", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "EigenTrust" in out

    def test_trace_and_analyze_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert (
            main(["trace", str(path), "--users", "120", "--months", "3"]) == 0
        )
        assert path.exists()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "C(reputation, business size)" in out

    def test_run_unknown_experiment_is_config_error(self, capsys):
        assert main(["run", "nope"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_simulate_trace_and_obs_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "obs.jsonl"
        argv = [
            "simulate", "--nodes", "30", "--pretrusted", "2",
            "--colluders", "6", "--cycles", "2", "--trace", str(trace),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert trace.exists()
        assert "== detector audit ==" in out
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("validated ")
        assert "== phases ==" in out
