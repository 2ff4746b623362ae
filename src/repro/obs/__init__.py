"""Observability: span tracing, metrics, and the detector audit log.

The subsystem is deliberately zero-dependency and opt-in.  A run either
carries no :class:`Observability` at all (the default — instrumented
call sites fall back to the shared :data:`~repro.obs.tracer.NULL_TRACER`
and skip registry publishing entirely), or carries one bundle that every
layer publishes into:

* :class:`~repro.obs.tracer.Tracer` — nested, monotonic-clock spans over
  the engine phases (candidate-build, selection, rating-flush,
  cache-patch), the reputation update, and the fault machinery;
* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms (``engine.*``, ``detector.*``, ``manager.*``,
  ``faults.*``);
* :class:`~repro.obs.audit.DetectorAuditLog` — one structured event per
  examined rating pair, recording fired thresholds, Ωc/Ωs, behaviour
  class and the Gaussian weight applied.

Enable it through the facade::

    result = run_scenario(..., observability=True)
    print(result.observability.report())
    result.observability.export_jsonl("trace.jsonl")

or from the CLI: ``repro simulate --trace trace.jsonl`` then
``repro obs report trace.jsonl``.  ``benchmarks/test_bench_obs.py``
asserts the disabled-path overhead stays ≤5% on the engine benchmark
profile.
"""

from __future__ import annotations

from repro.obs.audit import AuditEvent, DetectorAuditLog
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    PrometheusParseError,
    TelemetrySink,
    parse_prometheus,
    prometheus_name,
    read_telemetry,
    render_prometheus,
)
from repro.obs.health import (
    CRITICAL,
    DEGRADED,
    OK,
    HealthMonitor,
    HealthReport,
    SloRule,
    default_service_rules,
)
from repro.obs.profiler import PhaseStat, profile_file, profile_spans, render_top
from repro.obs.registry import (
    QUERY_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.obs.report import render_file_report, render_report
from repro.obs.schema import (
    SchemaError,
    read_jsonl,
    to_jsonl,
    validate_event,
    validate_jsonl,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "AuditEvent",
    "DetectorAuditLog",
    "SchemaError",
    "to_jsonl",
    "read_jsonl",
    "validate_event",
    "validate_jsonl",
    "render_report",
    "render_file_report",
    "QUERY_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "PrometheusParseError",
    "prometheus_name",
    "render_prometheus",
    "parse_prometheus",
    "TelemetrySink",
    "read_telemetry",
    "OK",
    "DEGRADED",
    "CRITICAL",
    "SloRule",
    "HealthMonitor",
    "HealthReport",
    "default_service_rules",
    "PhaseStat",
    "profile_spans",
    "profile_file",
    "render_top",
]


class Observability:
    """One run's tracer + metrics registry + detector audit log.

    ``tracing=False`` keeps the registry and audit log live but swaps the
    tracer for the shared no-op — the configuration the overhead
    benchmark measures.
    """

    def __init__(self, *, tracing: bool = True, max_audit_events: int = 100_000) -> None:
        self.tracer: Tracer | NullTracer = Tracer() if tracing else NULL_TRACER
        self.metrics = MetricsRegistry()
        self.audit = DetectorAuditLog(max_events=max_audit_events)

    @property
    def tracing_enabled(self) -> bool:
        return self.tracer.enabled

    def events(self) -> list[dict]:
        """Every exportable event: spans, audit rows, one metrics snapshot."""
        events: list[dict] = list(self.tracer.events())
        events.extend(self.audit.to_events())
        events.append({"type": "metrics", "metrics": self.metrics.as_dict()})
        return events

    def export_jsonl(self, path) -> int:
        """Write spans + audit events + a metrics snapshot as JSONL;
        returns the number of lines written."""
        return to_jsonl(self.events(), path)

    def report(self, title: str = "observability report") -> str:
        """The three-section phases/metrics/audit text report."""
        return render_report(self, title)

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.clear()
        self.audit.clear()
