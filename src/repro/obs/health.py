"""Declarative SLO rules and the OK/DEGRADED/CRITICAL health monitor.

A :class:`SloRule` names one statistic of one registry metric (a gauge's
value, a histogram percentile, or a counter's delta — optionally divided
by another counter's delta for a rate) and bounds it with a ceiling
(``op="<="``) or a floor (``op=">="``).  The :class:`HealthMonitor`
evaluates every rule against successive registry snapshots — one per
serve watermark — with **M-of-N hysteresis**: a rule enters breach only
when at least ``m`` of its last ``n`` observations violated the bound,
and clears symmetrically, so a single noisy interval neither degrades
nor prematurely heals the verdict.

The overall state is the worst breached severity: ``CRITICAL`` if any
``severity="critical"`` rule is in breach, ``DEGRADED`` if any rule at
all is, ``OK`` otherwise.  Every rule-level and overall state change is
recorded as a structured ``{"type": "health", ...}`` transition event
(schema-validated alongside spans/audit/telemetry) and — when the
monitor carries a :class:`~repro.obs.export.TelemetrySink` — appended to
the same JSONL stream as the snapshots it judged.

A metric a rule names but the snapshot lacks is *no data*, not a breach:
rules for optional subsystems (the distributed manager ladder, the Ωc
cache when no observability is bound to it) sit dormant on runs without
those layers.
:func:`default_service_rules` bundles the streaming service's SLOs —
query p99, sustained events/sec, queue depth, shed rate, rating-flood
share, degradation-ladder rate and sparse-cache rebuild drift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.registry import MetricsRegistry

__all__ = [
    "OK",
    "DEGRADED",
    "CRITICAL",
    "SloRule",
    "RuleStatus",
    "HealthReport",
    "HealthMonitor",
    "default_service_rules",
]

#: Health states, worst-last.
OK = "ok"
DEGRADED = "degraded"
CRITICAL = "critical"
HEALTH_STATES = (OK, DEGRADED, CRITICAL)

#: Statistics a rule may read from a histogram snapshot row.
_HISTOGRAM_STATS = ("mean", "min", "max", "p50", "p90", "p99")
_OPS = ("<=", ">=")
_SEVERITIES = (DEGRADED, CRITICAL)


@dataclass(frozen=True)
class SloRule:
    """One bounded statistic: ``stat(metric) op threshold``, M-of-N.

    ``stat="value"`` reads a counter/gauge value; ``stat="delta"`` reads
    a counter's increase since the previous observation (``None`` — no
    data — on the first one), divided by ``denominator``'s delta when
    one is named (a zero-traffic window scores 0.0; a nonzero numerator
    over a zero denominator scores infinite, which any ceiling catches).
    Histogram rules use one of ``mean/min/max/p50/p90/p99``.
    """

    name: str
    metric: str
    stat: str
    op: str
    threshold: float
    severity: str = DEGRADED
    m: int = 1
    n: int = 1
    denominator: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"rule {self.name!r}: op must be one of {_OPS}")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: severity must be one of {_SEVERITIES}"
            )
        if not 1 <= self.m <= self.n:
            raise ValueError(
                f"rule {self.name!r}: need 1 <= m <= n, got m={self.m} n={self.n}"
            )
        if self.stat not in ("value", "delta", *_HISTOGRAM_STATS):
            raise ValueError(f"rule {self.name!r}: unknown stat {self.stat!r}")
        if self.denominator is not None and self.stat != "delta":
            raise ValueError(
                f"rule {self.name!r}: denominator requires stat='delta'"
            )

    def breached_by(self, value: float) -> bool:
        return value > self.threshold if self.op == "<=" else value < self.threshold


@dataclass
class RuleStatus:
    """Mutable per-rule evaluation state inside the monitor."""

    rule: SloRule
    in_breach: bool = False
    last_value: float | None = None
    window: deque = field(default_factory=deque)
    _prev_raw: float | None = None
    _prev_denominator_raw: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.rule.name,
            "metric": self.rule.metric,
            "stat": self.rule.stat,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "m": self.rule.m,
            "n": self.rule.n,
            "state": self.rule.severity if self.in_breach else OK,
            "last_value": self.last_value,
            "breaches_in_window": int(sum(self.window)),
        }


@dataclass(frozen=True)
class HealthReport:
    """One observation's verdict: overall state plus per-rule detail."""

    state: str
    interval: int
    rules: tuple[dict[str, Any], ...]
    transitions: tuple[dict[str, Any], ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "interval": self.interval,
            "rules": list(self.rules),
            "transitions": list(self.transitions),
        }


class HealthMonitor:
    """Evaluates SLO rules over successive metrics snapshots.

    ``sink`` (a :class:`~repro.obs.export.TelemetrySink`) receives every
    transition event as it happens; transitions also accumulate on
    :attr:`transitions` for the end-of-run report either way.
    """

    def __init__(self, rules: Iterable[SloRule], *, sink=None) -> None:
        rule_list = list(rules)
        names = [r.name for r in rule_list]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in {names}")
        self._statuses = [
            RuleStatus(rule=r, window=deque(maxlen=r.n)) for r in rule_list
        ]
        self._sink = sink
        self._state = OK
        self._intervals_observed = 0
        self.transitions: list[dict[str, Any]] = []

    @property
    def state(self) -> str:
        return self._state

    @property
    def rules(self) -> tuple[SloRule, ...]:
        return tuple(s.rule for s in self._statuses)

    @property
    def intervals_observed(self) -> int:
        return self._intervals_observed

    # -- evaluation ----------------------------------------------------------

    @staticmethod
    def _metric_value(
        snapshot: Mapping[str, Any], metric: str, stat: str
    ) -> float | None:
        row = snapshot.get(metric)
        if row is None:
            return None
        kind = row.get("kind")
        if kind == "histogram":
            if stat not in _HISTOGRAM_STATS:
                raise ValueError(
                    f"stat {stat!r} cannot be read from histogram {metric!r}"
                )
            return float(row[stat])
        if stat not in ("value", "delta"):
            raise ValueError(
                f"stat {stat!r} cannot be read from {kind} {metric!r}"
            )
        return float(row["value"])

    def _evaluate(
        self, status: RuleStatus, snapshot: Mapping[str, Any]
    ) -> float | None:
        rule = status.rule
        raw = self._metric_value(snapshot, rule.metric, rule.stat)
        if rule.stat != "delta":
            return raw
        denom_raw = (
            self._metric_value(snapshot, rule.denominator, "delta")
            if rule.denominator is not None
            else None
        )
        prev, status._prev_raw = status._prev_raw, raw
        denom_prev = status._prev_denominator_raw
        status._prev_denominator_raw = denom_raw
        if raw is None or prev is None:
            return None
        delta = raw - prev
        if rule.denominator is None:
            return delta
        if denom_raw is None or denom_prev is None:
            return None
        denom_delta = denom_raw - denom_prev
        if denom_delta <= 0.0:
            return 0.0 if delta <= 0.0 else float("inf")
        return delta / denom_delta

    def _transition(
        self,
        scope: str,
        rule: str,
        old: str,
        new: str,
        interval: int,
        value: float | None,
        threshold: float | None,
        reason: str,
    ) -> dict[str, Any]:
        event = {
            "type": "health",
            "scope": scope,
            "rule": rule,
            "from": old,
            "to": new,
            "interval": int(interval),
            "value": None if value is None else float(value),
            "threshold": None if threshold is None else float(threshold),
            "reason": reason,
        }
        self.transitions.append(event)
        if self._sink is not None:
            self._sink.append(event)
        return event

    def observe(
        self,
        source: MetricsRegistry | Mapping[str, Any],
        *,
        interval: int | None = None,
    ) -> HealthReport:
        """Evaluate every rule against one snapshot; returns the verdict.

        ``interval`` stamps transition events (defaults to the running
        observation count).
        """
        snapshot = (
            source.as_dict() if isinstance(source, MetricsRegistry) else source
        )
        if interval is None:
            interval = self._intervals_observed
        self._intervals_observed += 1
        new_transitions: list[dict[str, Any]] = []
        for status in self._statuses:
            rule = status.rule
            value = self._evaluate(status, snapshot)
            status.last_value = value
            # No data leaves the window untouched: a dormant subsystem's
            # rule neither breaches nor ages out past breaches.
            if value is None:
                continue
            status.window.append(rule.breached_by(value))
            breaches = sum(status.window)
            was = status.in_breach
            status.in_breach = breaches >= rule.m
            if status.in_breach != was:
                old = rule.severity if was else OK
                new = rule.severity if status.in_breach else OK
                comparison = "exceeded" if rule.op == "<=" else "fell below"
                reason = (
                    f"{rule.stat}({rule.metric}) {comparison} {rule.threshold:g} "
                    f"in {breaches}/{len(status.window)} recent intervals"
                    if status.in_breach
                    else f"{rule.stat}({rule.metric}) back within {rule.threshold:g}"
                )
                new_transitions.append(
                    self._transition(
                        "rule", rule.name, old, new, interval, value,
                        rule.threshold, reason,
                    )
                )
        breached = [s for s in self._statuses if s.in_breach]
        if any(s.rule.severity == CRITICAL for s in breached):
            overall = CRITICAL
        elif breached:
            overall = DEGRADED
        else:
            overall = OK
        if overall != self._state:
            names = ", ".join(sorted(s.rule.name for s in breached)) or "none"
            new_transitions.append(
                self._transition(
                    "overall", "", self._state, overall, interval, None, None,
                    f"rules in breach: {names}",
                )
            )
            self._state = overall
        return HealthReport(
            state=self._state,
            interval=interval,
            rules=tuple(s.to_dict() for s in self._statuses),
            transitions=tuple(new_transitions),
        )

    def replay(self, snapshots: Iterable[Mapping[str, Any]]) -> HealthReport:
        """Observe a whole recorded time series (``{"interval": k,
        "metrics": {...}}`` telemetry events or bare snapshot dicts);
        returns the final report."""
        report = None
        for entry in snapshots:
            if entry.get("type") == "telemetry":
                report = self.observe(
                    entry["metrics"], interval=entry.get("interval")
                )
            else:
                report = self.observe(entry)
        if report is None:
            report = HealthReport(self._state, -1, (), ())
        return report

    def report(self) -> dict[str, Any]:
        """End-of-run JSON report: state, rules, full transition log."""
        return {
            "state": self._state,
            "intervals_observed": self._intervals_observed,
            "rules": [s.to_dict() for s in self._statuses],
            "transitions": list(self.transitions),
        }


def default_service_rules(
    *,
    query_p99_ceiling: float = 0.005,
    min_events_per_sec: float = 0.0,
    queue_depth_ceiling: float = 6144,
    shed_rate_ceiling: float = 0.01,
    flood_share_ceiling: float = 0.5,
    degraded_per_interval_ceiling: float = 0.0,
    cache_drift_ceiling: float = 64,
) -> tuple[SloRule, ...]:
    """The streaming service's SLO bundle.

    ``min_events_per_sec <= 0`` omits the throughput floor (a paused or
    replay-paced stream is not an outage).  The degradation-ladder rule
    reads metrics that only exist on distributed runs and stays dormant
    otherwise; the cache-drift rule reads the Ωc cache's
    ``sparse.cache.drift``, which both closeness computers publish.
    """
    rules = [
        SloRule(
            name="query-p99",
            metric="serve.query.latency",
            stat="p99",
            op="<=",
            threshold=query_p99_ceiling,
            severity=DEGRADED,
            m=2,
            n=3,
        ),
        SloRule(
            name="queue-depth",
            metric="serve.queue.depth",
            stat="value",
            op="<=",
            threshold=queue_depth_ceiling,
            severity=DEGRADED,
            m=2,
            n=3,
        ),
        SloRule(
            name="shed-rate",
            metric="serve.queue.shed",
            stat="delta",
            op="<=",
            threshold=shed_rate_ceiling,
            severity=CRITICAL,
            m=2,
            n=3,
            denominator="serve.events.total",
        ),
        SloRule(
            name="flood-share",
            metric="serve.flood.top_rater_share",
            stat="value",
            op="<=",
            threshold=flood_share_ceiling,
            severity=DEGRADED,
            m=2,
            n=3,
        ),
        SloRule(
            name="degraded-ladder",
            metric="manager.degraded.total",
            stat="delta",
            op="<=",
            threshold=degraded_per_interval_ceiling,
            severity=DEGRADED,
            m=2,
            n=3,
        ),
        SloRule(
            name="cache-drift",
            metric="sparse.cache.drift",
            stat="value",
            op="<=",
            threshold=cache_drift_ceiling,
            severity=DEGRADED,
        ),
    ]
    if min_events_per_sec > 0.0:
        rules.append(
            SloRule(
                name="events-per-sec",
                metric="serve.interval.events_per_sec",
                stat="value",
                op=">=",
                threshold=min_events_per_sec,
                severity=DEGRADED,
                m=2,
                n=3,
            )
        )
    return tuple(rules)
