"""CLI coverage for the chaos flags, checkpointing, and qa reconverge."""

import json

import pytest

from repro.cli import EXIT_CONFIG, build_parser, main

SMALL_WORLD = [
    "--nodes", "16",
    "--pretrusted", "2",
    "--colluders", "4",
    "--cycles", "4",
    "--seed", "3",
]


def summary_lines(text):
    """The scenario summary, minus progress and timing chatter."""
    return [
        line
        for line in text.splitlines()
        if line
        and not line.startswith(("checkpoint @", "resumed "))
        and not line.lstrip().startswith("[")
    ]


class TestParser:
    def test_chaos_flags(self):
        args = build_parser().parse_args(
            [
                "simulate",
                "--managers", "3",
                "--partition", "1:3",
                "--partition", "5:7",
                "--byzantine", "1:2:4",
                "--checkpoint", "ck.jsonl",
                "--checkpoint-every", "2",
            ]
        )
        assert args.managers == 3
        assert args.partition == ["1:3", "5:7"]
        assert args.byzantine == ["1:2:4"]
        assert args.checkpoint_every == 2

    def test_reconverge_defaults(self):
        args = build_parser().parse_args(["qa", "reconverge"])
        assert args.cycles == 12
        assert args.tolerance == 0.02
        assert args.budget == 5
        assert args.report is None


class TestSimulateChaosErrors:
    def test_malformed_partition(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--partition", "3"]) == EXIT_CONFIG
        assert "--partition expects" in capsys.readouterr().err

    def test_malformed_byzantine(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--byzantine", "a:b"]) == EXIT_CONFIG
        assert "--byzantine expects" in capsys.readouterr().err

    def test_byzantine_requires_managers(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--byzantine", "0:1:3"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_checkpoint_every_requires_target(self, capsys):
        assert main(["simulate", *SMALL_WORLD, "--checkpoint-every", "2"]) == EXIT_CONFIG
        assert "--checkpoint-every requires" in capsys.readouterr().err

    def test_resume_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["simulate", "--resume", str(missing)]) == EXIT_CONFIG
        assert "cannot resume" in capsys.readouterr().err


class TestSimulateChaosRun:
    def test_partition_and_byzantine_window(self, capsys):
        code = main(
            [
                "simulate",
                *SMALL_WORLD,
                "--managers", "3",
                "--partition", "1:3",
                "--byzantine", "1:2:4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "colluder" in out  # the usual scenario summary printed


class TestCheckpointResume:
    def test_resumed_run_matches_checkpointed_run(self, tmp_path, capsys):
        """Kill-and-resume through the CLI: the resumed process must
        print the exact same scenario summary as the original."""
        ck = tmp_path / "ck.jsonl"
        code = main(
            [
                "simulate",
                *SMALL_WORLD,
                "--cycles", "6",
                "--managers", "3",
                "--partition", "1:3",
                "--checkpoint", str(ck),
                "--checkpoint-every", "4",
            ]
        )
        assert code == 0
        full_out = capsys.readouterr().out
        assert f"checkpoint @ cycle 4: {ck}" in full_out
        assert ck.exists()

        code = main(["simulate", "--resume", str(ck)])
        assert code == 0
        resumed_out = capsys.readouterr().out
        assert f"resumed {ck} at cycle 4/6" in resumed_out
        assert summary_lines(resumed_out) == summary_lines(full_out)


    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_resume_checkpoint_with_retired_engine_field(
        self, tmp_path, capsys, engine
    ):
        """Checkpoint headers written while ``--engine`` existed carry the
        flag's value in ``build``; they resume to the same summary."""
        ck = tmp_path / "ck.jsonl"
        code = main(
            [
                "simulate",
                *SMALL_WORLD,
                "--cycles", "5",
                "--partition", "1:3",
                "--checkpoint", str(ck),
                "--checkpoint-every", "2",
            ]
        )
        assert code == 0
        full_out = capsys.readouterr().out
        header_line, state_line = ck.read_text().splitlines()
        header = json.loads(header_line)
        header["build"]["engine"] = engine
        ck.write_text(json.dumps(header) + "\n" + state_line + "\n")

        assert main(["simulate", "--resume", str(ck)]) == 0
        resumed_out = capsys.readouterr().out
        assert f"resumed {ck} at cycle 4/5" in resumed_out
        assert summary_lines(resumed_out) == summary_lines(full_out)


class TestQaReconverge:
    def test_writes_report_artifact(self, tmp_path, capsys):
        report_path = tmp_path / "reconvergence.json"
        code = main(["qa", "reconverge", "--report", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ALL BACKENDS RECONVERGED" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert len(payload["results"]) == 5

    def test_bad_spec_is_an_error(self, capsys):
        # Heal cycle beyond the run: the harness rejects it, the CLI
        # reports instead of crashing.
        assert main(["qa", "reconverge", "--cycles", "2"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err
