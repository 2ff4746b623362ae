"""The `serve` CLI subcommand: record / stream / resume modes and the
serve-specific exit codes."""

import io
import json

import numpy as np
import pytest

from repro.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from repro.serve import ReputationService

SMALL = [
    "--nodes", "20", "--pretrusted", "2", "--colluders", "4",
    "--seed", "11", "--cycles", "2",
]


@pytest.fixture(scope="module")
def recorded_stream(tmp_path_factory):
    """One recorded event-stream file shared by the streaming tests."""
    path = tmp_path_factory.mktemp("serve") / "events.jsonl"
    assert main(["serve", *SMALL, "--record", str(path)]) == EXIT_OK
    return path


class TestModeValidation:
    def test_no_mode_is_config_error(self, capsys):
        assert main(["serve", *SMALL]) == EXIT_CONFIG
        assert "needs a mode" in capsys.readouterr().err

    def test_record_conflicts_with_events(self, tmp_path, capsys):
        code = main(
            ["serve", *SMALL, "--record", str(tmp_path / "a.jsonl"),
             "--events", str(tmp_path / "b.jsonl")]
        )
        assert code == EXIT_CONFIG
        assert "cannot be combined" in capsys.readouterr().err

    def test_snapshot_every_requires_snapshot(self, capsys):
        code = main(["serve", *SMALL, "--events", "-", "--snapshot-every", "2"])
        assert code == EXIT_CONFIG
        assert "--snapshot-every requires --snapshot" in capsys.readouterr().err

    def test_verify_requires_snapshot(self, capsys):
        code = main(["serve", *SMALL, "--events", "-", "--verify-snapshot"])
        assert code == EXIT_CONFIG
        assert "--verify-snapshot requires --snapshot" in capsys.readouterr().err

    def test_missing_events_file(self, tmp_path, capsys):
        code = main(["serve", "--events", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_malformed_events_file(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["serve", "--events", str(path)]) == EXIT_CONFIG
        assert "malformed event stream" in capsys.readouterr().err

    def test_bad_listen_spec(self, capsys):
        assert main(["serve", *SMALL, "--listen", "9999"]) == EXIT_CONFIG
        assert "HOST:PORT" in capsys.readouterr().err

    def test_resume_missing_checkpoint(self, tmp_path, capsys):
        code = main(["serve", "--resume", str(tmp_path / "absent.ckpt")])
        assert code == EXIT_CONFIG
        assert "cannot resume" in capsys.readouterr().err


class TestRecordAndStream:
    def test_record_writes_self_describing_stream(self, recorded_stream, capsys):
        lines = recorded_stream.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["t"] == "header"
        assert header["spec"]["seed"] == 11
        assert header["spec"]["world"]["n_nodes"] == 20
        assert len(lines) > 100  # two cycles of events plus watermarks

    def test_stream_file_with_report_and_snapshot(
        self, recorded_stream, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        snapshot = tmp_path / "svc.ckpt"
        code = main(
            ["serve", "--events", str(recorded_stream),
             "--snapshot", str(snapshot), "--verify-snapshot",
             "--report", str(report)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "snapshot round-trip: OK" in out
        summary = json.loads(report.read_text())
        assert summary["intervals_run"] == 2
        assert summary["events_per_second"] > 0
        assert summary["metrics"]["serve.events.watermark"]["value"] == 2
        # The header's spec drove the world: 20 nodes, not the default 100.
        assert summary["n_nodes"] == 20
        assert snapshot.exists()

    def test_stream_with_retired_engine_field(self, recorded_stream, tmp_path, capsys):
        """Every stream recorded before the scalar loop left production
        carries ``world.engine = "scalar"`` in its header; it still
        replays to the same result."""
        lines = recorded_stream.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["world"]["engine"] = "scalar"
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        services = []
        for path in (recorded_stream, old):
            snapshot = tmp_path / f"{path.stem}.ckpt"
            assert main(
                ["serve", "--events", str(path), "--snapshot", str(snapshot)]
            ) == EXIT_OK
            services.append(ReputationService.from_checkpoint(snapshot))
        capsys.readouterr()
        new, retired = services
        assert retired.spec == new.spec
        assert retired.intervals_run == new.intervals_run == 2
        assert np.array_equal(retired.reputations, new.reputations)

    def test_resume_from_snapshot(self, recorded_stream, tmp_path, capsys):
        snapshot = tmp_path / "svc.ckpt"
        assert main(
            ["serve", "--events", str(recorded_stream), "--snapshot", str(snapshot)]
        ) == EXIT_OK
        capsys.readouterr()
        assert main(["serve", "--resume", str(snapshot)]) == EXIT_OK
        assert "resumed" in capsys.readouterr().out


class TestStdinStreaming:
    def test_queries_answered_on_stdout(self, monkeypatch, capsys):
        lines = (
            '{"t":"rating","rater":0,"ratee":1,"value":1.0}\n'
            '{"t":"watermark"}\n'
            '{"t":"query","node":1}\n'
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", *SMALL, "--events", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        result = json.loads(out.splitlines()[0])
        assert result["t"] == "result"
        assert result["intervals_run"] == 1

    def test_malformed_stdin_is_runtime_error(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"t":"rating","rater":0,"ratee":1,"value":1.0}\nnope\n'),
        )
        assert main(["serve", *SMALL, "--events", "-"]) == EXIT_RUNTIME
        assert "malformed event on stdin" in capsys.readouterr().err

    def test_stale_watermark_is_runtime_error(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO('{"t":"watermark","cycle":1}\n{"t":"watermark","cycle":0}\n'),
        )
        assert main(["serve", *SMALL, "--events", "-"]) == EXIT_RUNTIME
        assert "behind" in capsys.readouterr().err
