"""Detector audit log — *why* each suspicious rating pair was (not) damped.

Every reputation-update interval the collusion detector examines the
rater→ratee pairs whose rating frequency tripped ``T+``/``T−``.  With an
audit log attached it emits one :class:`AuditEvent` per examined pair:

* which thresholds fired (``T+``, ``T−``, ``TR``, ``Tch``, ``Tcl``,
  ``Tsh``, ``Tsl``) — the names follow the paper's Section 4.3;
* the pair's social coefficients Ωc (closeness) and Ωs (interest
  similarity);
* the suspected behaviour classes B1–B4 the pair matched (empty when the
  frequency flag found no corroborating social evidence);
* the decision — ``"damped"`` with the Gaussian damping weight actually
  applied, or ``"accepted"`` with weight 1.0;
* the interval's derived thresholds, so a single event is interpretable
  without the surrounding run.

Events are plain frozen dataclasses; :meth:`DetectorAuditLog.to_events`
serialises them as dicts for the shared JSONL exporter and
:func:`AuditEvent.from_dict` round-trips them back — field-for-field, as
the schema tests assert.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator

__all__ = ["AuditEvent", "DetectorAuditLog"]

#: Threshold names an event's ``fired`` tuple may contain.
THRESHOLD_NAMES = ("T+", "T-", "TR", "Tcl", "Tch", "Tsl", "Tsh")
#: Behaviour classes an event's ``behaviors`` tuple may contain.
BEHAVIOR_NAMES = ("B1", "B2", "B3", "B4")
#: Valid decisions.  ``"damped"`` / ``"accepted"`` come from the detector
#: itself; ``"degraded_neutral"`` (social information unreachable — the
#: pair got the conservative neutral damping weight) and ``"skipped"``
#: (judgement deferred, e.g. across an active network partition) come
#: from the distributed manager layer's graceful-degradation ladder.
DECISIONS = ("damped", "accepted", "degraded_neutral", "skipped")


@dataclass(frozen=True)
class AuditEvent:
    """One examined rater→ratee pair in one reputation-update interval."""

    interval: int
    rater: int
    ratee: int
    #: ``"damped"`` (matched a behaviour class) or ``"accepted"``.
    decision: str
    #: Suspected behaviour classes, subset of ``("B1", "B2", "B3", "B4")``.
    behaviors: tuple[str, ...]
    #: Thresholds that fired for this pair, subset of `THRESHOLD_NAMES`.
    fired: tuple[str, ...]
    #: Social closeness coefficient Ωc of the pair.
    closeness: float
    #: Interest similarity coefficient Ωs of the pair.
    similarity: float
    #: Multiplicative Gaussian damping weight applied (1.0 when accepted).
    weight: float
    #: This interval's positive / negative rating counts for the pair.
    pos_count: float
    neg_count: float
    #: The interval's derived thresholds (T+ , T−, TR, Tcl, Tch, Tsl, Tsh).
    thresholds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["behaviors"] = list(self.behaviors)
        out["fired"] = list(self.fired)
        out["type"] = "audit"
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditEvent":
        payload = {k: v for k, v in data.items() if k != "type"}
        payload["behaviors"] = tuple(payload.get("behaviors", ()))
        payload["fired"] = tuple(payload.get("fired", ()))
        return cls(**payload)


class DetectorAuditLog:
    """Append-only in-memory store of :class:`AuditEvent` rows.

    ``max_events`` bounds memory on long runs: once full, further events
    are counted (``n_dropped``) but not stored, oldest-first retention.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._events: list[AuditEvent] = []
        self._max = int(max_events)
        self.n_dropped = 0

    def record(self, event: AuditEvent) -> None:
        if len(self._events) >= self._max:
            self.n_dropped += 1
            return
        self._events.append(event)

    def record_many(self, events: Iterable[AuditEvent], count: int) -> None:
        """:meth:`record` each of the ``count`` events of ``events``.

        ``events`` is consumed only as far as the log has room, so a lazy
        iterable never builds the events that would be dropped; those are
        counted in one step.
        """
        stored = min(count, self._max - len(self._events))
        self._events.extend(islice(events, stored))
        self.n_dropped += count - stored

    @property
    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self._events)

    def damped(self) -> tuple[AuditEvent, ...]:
        return tuple(e for e in self._events if e.decision == "damped")

    def accepted(self) -> tuple[AuditEvent, ...]:
        return tuple(e for e in self._events if e.decision == "accepted")

    def degraded(self) -> tuple[AuditEvent, ...]:
        """Events recorded by the manager layer's degradation ladder
        (``degraded_neutral`` and ``skipped``)."""
        return tuple(
            e for e in self._events if e.decision in ("degraded_neutral", "skipped")
        )

    def by_behavior(self) -> dict[str, int]:
        """Damped-event count per behaviour class (an event matching two
        classes counts toward both)."""
        counts = {name: 0 for name in BEHAVIOR_NAMES}
        for event in self._events:
            for name in event.behaviors:
                counts[name] += 1
        return counts

    def to_events(self) -> tuple[dict[str, Any], ...]:
        """Events as JSONL-ready dicts (``type: "audit"``)."""
        return tuple(e.to_dict() for e in self._events)

    def clear(self) -> None:
        self._events.clear()
        self.n_dropped = 0
