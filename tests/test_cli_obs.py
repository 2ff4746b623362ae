"""The telemetry CLI surface: `serve --metrics/--health-report` and the
`obs report/health/top/export` subcommand group."""

import json

import pytest

from repro.cli import EXIT_CONFIG, EXIT_FAILURE, EXIT_OK, main
from repro.obs import MetricsRegistry, TelemetrySink, parse_prometheus, read_telemetry

SMALL = [
    "--nodes", "20", "--pretrusted", "2", "--colluders", "4",
    "--seed", "11", "--cycles", "2",
]


@pytest.fixture(scope="module")
def recorded_stream(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "events.jsonl"
    assert main(["serve", *SMALL, "--record", str(path)]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def telemetry_series(recorded_stream, tmp_path_factory):
    """One serve run with --metrics/--health-report, shared by obs tests."""
    out_dir = tmp_path_factory.mktemp("telemetry")
    metrics = out_dir / "telemetry.jsonl"
    health = out_dir / "health.json"
    code = main(
        ["serve", "--events", str(recorded_stream),
         "--metrics", str(metrics), "--health-report", str(health)]
    )
    assert code == EXIT_OK
    return metrics, health


@pytest.fixture(scope="module")
def flooded_series(tmp_path_factory):
    """A hand-built telemetry series whose flood share breaches and heals."""
    path = tmp_path_factory.mktemp("flood") / "telemetry.jsonl"
    reg = MetricsRegistry()
    flood = reg.gauge("serve.flood.top_rater_share")
    with TelemetrySink(path) as sink:
        for interval, share in enumerate((0.1, 0.9, 0.9, 0.9, 0.1, 0.1, 0.1)):
            flood.set(share)
            sink.emit(reg, interval=interval)
    return path


class TestServeTelemetryFlags:
    def test_metrics_every_must_be_positive(self, tmp_path, capsys):
        code = main(
            ["serve", *SMALL, "--events", "-",
             "--metrics", str(tmp_path / "t.jsonl"), "--metrics-every", "0"]
        )
        assert code == EXIT_CONFIG
        assert "--metrics-every must be >= 1" in capsys.readouterr().err

    def test_metrics_every_requires_metrics(self, capsys):
        code = main(["serve", *SMALL, "--events", "-", "--metrics-every", "2"])
        assert code == EXIT_CONFIG
        assert "--metrics-every requires --metrics" in capsys.readouterr().err

    def test_stream_writes_watermark_aligned_series(
        self, telemetry_series, capsys
    ):
        metrics, _ = telemetry_series
        events = read_telemetry(metrics)
        # The recorded scenario runs 2 cycles -> one snapshot per watermark.
        assert [e["interval"] for e in events] == [1, 2]
        for event in events:
            assert event["metrics"]["serve.events.watermark"]["value"] == float(
                event["interval"]
            )

    def test_stream_writes_health_report(self, telemetry_series):
        _, health = telemetry_series
        report = json.loads(health.read_text())
        assert report["state"] == "ok"
        assert report["intervals_observed"] == 2
        assert {r["name"] for r in report["rules"]} >= {"query-p99", "flood-share"}

    def test_metrics_every_subsamples(self, recorded_stream, tmp_path, capsys):
        metrics = tmp_path / "t.jsonl"
        code = main(
            ["serve", "--events", str(recorded_stream),
             "--metrics", str(metrics), "--metrics-every", "2"]
        )
        assert code == EXIT_OK
        assert [e["interval"] for e in read_telemetry(metrics)] == [2]
        assert "telemetry:" in capsys.readouterr().out


class TestObsHealth:
    def test_replays_recorded_series(self, telemetry_series, capsys):
        metrics, _ = telemetry_series
        assert main(["obs", "health", str(metrics)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "health: OK over 2 intervals" in out
        assert "rule query-p99" in out

    def test_flood_transitions_and_report(self, flooded_series, tmp_path, capsys):
        report = tmp_path / "health.json"
        code = main(
            ["obs", "health", str(flooded_series), "--report", str(report)]
        )
        assert code == EXIT_OK  # healed by the end; --fail-on defaults to never
        out = capsys.readouterr().out
        assert "flood-share" in out
        assert "ok -> degraded" in out
        assert "degraded -> ok" in out
        saved = json.loads(report.read_text())
        overall = [
            (t["from"], t["to"])
            for t in saved["transitions"]
            if t["scope"] == "overall"
        ]
        assert overall == [("ok", "degraded"), ("degraded", "ok")]

    def test_fail_on_degraded(self, flooded_series, capsys):
        # With a tight flood ceiling even the healthy intervals breach, so
        # the final state stays degraded and --fail-on promotes it.
        code = main(
            ["obs", "health", str(flooded_series),
             "--flood-share", "0.05", "--fail-on", "degraded"]
        )
        assert code == EXIT_FAILURE
        assert "DEGRADED" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["obs", "health", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_file_without_snapshots(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "health", str(path)]) == EXIT_CONFIG
        assert "no telemetry snapshots" in capsys.readouterr().err


class TestObsTopAndExport:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "obs.jsonl"
        argv = [
            "simulate", "--nodes", "30", "--pretrusted", "2",
            "--colluders", "6", "--cycles", "2", "--trace", str(path),
        ]
        assert main(argv) == EXIT_OK
        return path

    def test_top_prints_hot_path_table(self, trace, capsys):
        assert main(["obs", "top", str(trace), "-n", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phase" in out and "self" in out and "cum" in out
        assert "sim.cycle" in out

    def test_top_missing_file(self, tmp_path, capsys):
        code = main(["obs", "top", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_export_trace_metrics_to_stdout(self, trace, capsys):
        assert main(["obs", "export", str(trace)]) == EXIT_OK
        families = parse_prometheus(capsys.readouterr().out)
        assert any(name.startswith("repro_") for name in families)

    def test_export_telemetry_to_file(self, telemetry_series, tmp_path, capsys):
        metrics, _ = telemetry_series
        output = tmp_path / "exposition.prom"
        code = main(["obs", "export", str(metrics), "--output", str(output)])
        assert code == EXIT_OK
        assert "families" in capsys.readouterr().out
        families = parse_prometheus(output.read_text())
        # The LAST snapshot is exported: 2 watermarks recorded.
        assert ("repro_serve_events_watermark_total", (), 2.0) in families[
            "repro_serve_events_watermark_total"
        ]["samples"]

    def test_export_without_snapshot_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "spans-only.jsonl"
        path.write_text("")
        assert main(["obs", "export", str(path)]) == EXIT_CONFIG
        assert "no metrics/telemetry snapshot" in capsys.readouterr().err


class TestLegacyObsSpelling:
    def test_bare_obs_path_is_rejected(self, telemetry_series):
        # ``repro obs FILE`` was shimmed to ``obs report FILE`` until API 3.0.
        metrics, _ = telemetry_series
        with pytest.raises(SystemExit) as exc:
            main(["obs", str(metrics)])
        assert exc.value.code == 2

    def test_obs_without_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["obs"])
        assert exc.value.code == 2

    def test_unknown_flag_not_shimmed(self):
        with pytest.raises(SystemExit) as exc:
            main(["obs", "--bogus", "x"])
        assert exc.value.code == 2
