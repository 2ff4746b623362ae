"""Human-readable report over a run's observability data.

:func:`render_report` works on a live :class:`~repro.obs.Observability`
bundle (the ``repro simulate --trace`` path); :func:`render_file_report`
re-reads an exported JSONL trace (the ``repro obs report FILE`` path).
Both produce the same three sections:

* **phases** — per-span-name count / total / mean / max wall-clock, so
  the engine's candidate-build / selection / rating-flush / cache-patch
  split is visible at a glance;
* **metrics** — the registry's counters, gauges and histogram summaries;
* **detector audit** — damped/accepted totals, per-behaviour counts and
  the heaviest-damped pairs.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["render_report", "render_file_report", "phase_table"]


def phase_table(span_events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """Aggregate span events by name → count/total/mean/max rows, sorted
    by total descending."""
    stats: dict[str, dict[str, float]] = {}
    for event in span_events:
        row = stats.setdefault(
            event["name"], {"count": 0, "total": 0.0, "max": 0.0}
        )
        row["count"] += 1
        row["total"] += event["duration"]
        row["max"] = max(row["max"], event["duration"])
    table = [
        {
            "name": name,
            "count": int(row["count"]),
            "total_s": row["total"],
            "mean_s": row["total"] / row["count"],
            "max_s": row["max"],
        }
        for name, row in stats.items()
    ]
    table.sort(key=lambda r: r["total_s"], reverse=True)
    return table


def _phase_lines(table: list[dict[str, Any]]) -> list[str]:
    if not table:
        return ["  (no spans recorded — was tracing enabled?)"]
    width = max(len(r["name"]) for r in table)
    lines = [
        f"  {'phase'.ljust(width)}  {'count':>7}  {'total':>10}  "
        f"{'mean':>10}  {'max':>10}"
    ]
    for row in table:
        lines.append(
            f"  {row['name'].ljust(width)}  {row['count']:>7d}  "
            f"{row['total_s'] * 1e3:>8.2f}ms  {row['mean_s'] * 1e6:>8.1f}us  "
            f"{row['max_s'] * 1e3:>8.2f}ms"
        )
    return lines


def _metrics_lines(metrics: dict[str, dict[str, float]]) -> list[str]:
    if not metrics:
        return ["  (no metrics recorded)"]
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        row = metrics[name]
        if row["kind"] == "histogram":
            detail = (
                f"count={int(row['count'])} mean={row['mean']:.6g} "
                f"p50={row['p50']:.6g} p90={row['p90']:.6g} p99={row['p99']:.6g}"
            )
        else:
            detail = f"{row['value']:.6g}"
        lines.append(f"  {name.ljust(width)}  [{row['kind']}] {detail}")
    return lines


def _audit_lines(audit_events: list[dict[str, Any]]) -> list[str]:
    if not audit_events:
        return ["  (no detector audit events — no pair tripped a threshold)"]
    damped = [e for e in audit_events if e["decision"] == "damped"]
    accepted = len(audit_events) - len(damped)
    by_behavior: dict[str, int] = {}
    for event in damped:
        for name in event["behaviors"]:
            by_behavior[name] = by_behavior.get(name, 0) + 1
    lines = [
        f"  pairs examined: {len(audit_events)}  "
        f"damped: {len(damped)}  accepted: {accepted}",
        "  damped by behaviour: "
        + (
            ", ".join(f"{k}={by_behavior[k]}" for k in sorted(by_behavior))
            or "(none)"
        ),
    ]
    heaviest = sorted(damped, key=lambda e: e["weight"])[:5]
    for event in heaviest:
        lines.append(
            f"  {event['rater']:>4d} -> {event['ratee']:>4d}  "
            f"interval={event['interval']:<3d} "
            f"w={event['weight']:.4f}  "
            f"{'+'.join(event['behaviors'])}  "
            f"fired={','.join(event['fired'])}  "
            f"Oc={event['closeness']:.3f} Os={event['similarity']:.3f}"
        )
    return lines


def _render(
    span_events: list[dict[str, Any]],
    metrics: dict[str, dict[str, float]],
    audit_events: list[dict[str, Any]],
    title: str,
) -> str:
    lines = [title, "", "== phases =="]
    lines += _phase_lines(phase_table(span_events))
    lines += ["", "== metrics =="]
    lines += _metrics_lines(metrics)
    lines += ["", "== detector audit =="]
    lines += _audit_lines(audit_events)
    return "\n".join(lines)


def render_report(obs: "Observability", title: str = "observability report") -> str:
    """Render the three-section report from a live bundle."""
    return _render(
        list(obs.tracer.events()),
        obs.metrics.as_dict(),
        [e.to_dict() for e in obs.audit],
        title,
    )


def render_file_report(path) -> str:
    """Validate an exported JSONL trace and render the same report."""
    from repro.obs.schema import read_jsonl, validate_event

    spans: list[dict[str, Any]] = []
    audit: list[dict[str, Any]] = []
    metrics: dict[str, dict[str, float]] = {}
    for event in read_jsonl(path):
        kind = validate_event(event)
        if kind == "span":
            spans.append(event)
        elif kind == "audit":
            audit.append(event)
        else:
            metrics = event["metrics"]
    return _render(spans, metrics, audit, f"observability report: {path}")
