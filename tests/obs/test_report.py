"""Tests for the phases/metrics/audit text report."""

from repro.obs import Observability, render_file_report


def _phase_row(text, name):
    return next(
        line.split() for line in text.splitlines() if line.split()[:1] == [name]
    )


def _nested_bundle():
    """``outer`` wraps a pre-measured 0.25 s ``inner`` span: the phases
    table must charge that time to ``inner``'s self column, not ``outer``'s."""
    obs = Observability()
    with obs.tracer.span("outer"):
        obs.tracer.record("inner", 0.25)
    return obs


class TestRenderReport:
    def test_sections_present(self):
        obs = Observability()
        with obs.tracer.span("engine.selection"):
            pass
        obs.metrics.counter("detector.intervals").inc()
        text = obs.report(title="my report")
        assert text.startswith("my report")
        assert "== phases ==" in text
        assert "== metrics ==" in text
        assert "== detector audit ==" in text
        assert "engine.selection" in text
        assert _phase_row(text, "phase") == ["phase", "calls", "self", "cum", "max"]
        assert "detector.intervals" in text
        assert "[counter] 1" in text

    def test_phases_charge_self_time_to_the_child(self):
        text = _nested_bundle().report()
        assert _phase_row(text, "inner") == [
            "inner", "1", "250.00ms", "250.00ms", "250.00ms"
        ]
        outer = _phase_row(text, "outer")
        assert outer[:3] == ["outer", "1", "0.00ms"]

    def test_empty_bundle_renders_placeholders(self):
        text = Observability(tracing=False).report()
        assert "(no spans recorded" in text
        assert "(no metrics recorded)" in text
        assert "(no detector audit events" in text

    def test_file_report_matches_live_sections(self, tmp_path):
        obs = Observability()
        with obs.tracer.span("phase.x"):
            pass
        obs.metrics.gauge("g").set(4)
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(path)
        text = render_file_report(path)
        assert "phase.x" in text
        assert _phase_row(text, "phase.x")[1] == "1"
        assert "[gauge] 4" in text
        assert "== detector audit ==" in text

    def test_file_report_keeps_self_column(self, tmp_path):
        obs = _nested_bundle()
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(path)
        text = render_file_report(path)
        assert _phase_row(text, "inner") == _phase_row(obs.report(), "inner")
        assert _phase_row(text, "outer")[2] == "0.00ms"
