"""CLI error paths: malformed traces, unwritable outputs, unknown
subcommands, and the `qa` command group's failure modes."""

import pytest

import repro.qa.scenarios as scenarios_mod
from repro.cli import EXIT_CONFIG, main
from repro.qa import GOLDEN_SCENARIOS, GoldenScenario


@pytest.fixture
def fast_goldens(monkeypatch):
    """Shrink the golden registry to one 2-cycle scenario for CLI tests."""
    fast = GoldenScenario(
        name="fast",
        build=dict(
            GOLDEN_SCENARIOS["eigentrust_pcm"].build,
            n_nodes=20,
            n_pretrusted=2,
            n_colluders=4,
            query_cycles=3,
            simulation_cycles=2,
        ),
        cycles=2,
        seed=5,
    )
    monkeypatch.setattr(scenarios_mod, "GOLDEN_SCENARIOS", {"fast": fast})


class TestObsErrors:
    def test_malformed_jsonl(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["obs", "report", str(path)]) == EXIT_CONFIG
        assert "error: invalid trace" in capsys.readouterr().err

    def test_truncated_json_line(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"kind": "span", "name": "x"\n')
        assert main(["obs", "report", str(path)]) == EXIT_CONFIG
        assert "error: invalid trace" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        absent = tmp_path / "absent.jsonl"
        assert main(["obs", "report", str(absent)]) == EXIT_CONFIG
        assert "error: cannot read" in capsys.readouterr().err


class TestSimulateTraceErrors:
    def test_nonexistent_trace_directory(self, tmp_path, capsys):
        # chmod tricks do not work for root, so the unwritable case is
        # modelled as a missing parent directory.
        target = tmp_path / "no" / "such" / "dir" / "trace.jsonl"
        code = main(["simulate", "--cycles", "1", "--trace", str(target)])
        assert code == EXIT_CONFIG
        assert "trace directory does not exist" in capsys.readouterr().err


class TestUnknownCommands:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_qa_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["qa", "frobnicate"])
        assert exc.value.code == 2

    def test_qa_without_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["qa"])
        assert exc.value.code == 2


class TestQaRecordCheck:
    def test_record_refuses_overwrite_without_update(
        self, fast_goldens, tmp_path, capsys
    ):
        golden_dir = str(tmp_path)
        assert main(["qa", "record", "--golden-dir", golden_dir]) == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "fast.jsonl").exists()

        assert main(["qa", "record", "--golden-dir", golden_dir]) == EXIT_CONFIG
        assert "already exists" in capsys.readouterr().err

        assert (
            main(["qa", "record", "--golden-dir", golden_dir, "--update"]) == 0
        )

    def test_record_unknown_scenario(self, fast_goldens, tmp_path, capsys):
        code = main(
            ["qa", "record", "--golden-dir", str(tmp_path), "--scenario", "nope"]
        )
        assert code == EXIT_CONFIG
        assert "unknown golden scenario" in capsys.readouterr().err

    def test_check_missing_golden(self, fast_goldens, tmp_path, capsys):
        code = main(["qa", "check", "--golden-dir", str(tmp_path / "empty")])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_check_round_trip_and_report(self, fast_goldens, tmp_path, capsys):
        golden_dir = str(tmp_path)
        assert main(["qa", "record", "--golden-dir", golden_dir]) == 0
        capsys.readouterr()
        report = tmp_path / "diff-report.txt"
        code = main(
            [
                "qa", "check", "--golden-dir", golden_dir,
                "--mode", "strict", "--report", str(report),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fast: OK (strict)" in out
        assert report.exists()
        assert "=== fast ===" in report.read_text()


class TestQaFuzzDiff:
    def test_fuzz_zero_steps_rejected(self, capsys):
        assert main(["qa", "fuzz", "--steps", "0"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_fuzz_smoke(self, capsys):
        code = main(
            ["qa", "fuzz", "--steps", "8", "--seed", "1", "--harness", "engine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz[engine]" in out
        assert "all invariants held" in out
