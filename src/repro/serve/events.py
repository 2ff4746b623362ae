"""Typed events and the line-JSON codec of the streaming service.

The streaming service consumes four event kinds, mirroring exactly what
the batch simulator's query-cycle loop does to the behavioural ledgers:

* :class:`RatingEvent` — one rating exchange (possibly a burst of
  ``count`` identical ratings, which is how collusion bursts stream).  A
  rating is *composite*: it updates the interval rating ledger, the
  interaction-frequency ledger, and — when it carries an ``interest`` —
  the behavioural request counters, in that order, matching the
  simulation engine's flush.  Burst ratings carry no
  interest (a rating exchange without a genuine resource transfer leaves
  no request trace);
* :class:`InteractionEvent` — an interaction with no rating attached
  (e.g. an unrated resource transfer);
* :class:`ChurnEvent` — peer departure aging: decay the listed nodes'
  interaction history by ``factor`` (the simulator's churn decay);
* :class:`WatermarkEvent` — close the current rating interval: drain the
  ledger, run the detector + damping + inner reputation update.  Recorded
  streams carry explicit watermarks so replay reproduces the batch run's
  interval boundaries bit-for-bit; live streams may instead rely on the
  service's ``interval_events`` auto-watermark.

:class:`QueryRequest` / :class:`QueryResult` are the read path: a
reputation lookup (one node or the full vector) or a rater→ratee damping
weight probe, answered from the live caches without touching state.

The five event kinds are immutable records: tuples with named fields,
checked by their constructors, equal only to a record of the same kind.
They are cheap to build because the service builds one per stream line.

Events serialise to single-line JSON objects tagged by ``"t"`` (see
:func:`encode_event` / :func:`decode_event`).  A stream file is line-JSON
with an optional leading header line carrying the
:class:`~repro.api.ScenarioSpec` that describes the world the events were
recorded against — a stream file is self-describing the same way golden
traces and checkpoints are.  :data:`EVENT_SCHEMA_VERSION` is bumped on
incompatible layout changes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, TextIO, Union

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "RatingEvent",
    "InteractionEvent",
    "ChurnEvent",
    "WatermarkEvent",
    "QueryRequest",
    "QueryResult",
    "Event",
    "EventDecodeError",
    "encode_event",
    "decode_event",
    "write_event_stream",
    "read_event_stream",
    "iter_event_lines",
]

#: Bumped whenever the line-JSON event layout changes incompatibly.
EVENT_SCHEMA_VERSION = 1


#: Largest burst count: the ledgers' counters stay exact float64 integers.
_MAX_COUNT = 2**53


class EventDecodeError(ValueError):
    """A line could not be decoded into a known event."""


class _Record:
    """Behaviour shared by the event records.

    Each record subclasses a :class:`typing.NamedTuple` of its fields and
    has no per-instance ``__dict__``, so constructing one is a single
    tuple allocation after its checks.  Being tuples must not leak into
    what the records mean: a record equals only a record of its own kind
    (never a plain tuple, nor another kind with the same values), hashes
    like the tuple of its fields, does not order, and every rebuild path
    -- ``_make``, ``_replace``, pickling and ``copy`` -- goes through the
    validating constructor.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if type(other) is type(self):
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __lt__(self, other: object) -> bool:
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @classmethod
    def _make(cls, iterable: Iterable[Any]):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


_tuple_new = tuple.__new__


def _id(value: Any, refusal: str) -> int:
    """A record's integer field: a Python or numpy integer, as a Python
    ``int``.  numpy integers register as ``Integral``; ``bool`` is one too
    but is no id or count, and floats and strings are refused rather than
    coerced.  Constructors test ``type(x) is int`` inline first, so the
    common case costs no call."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{refusal}, got {value!r}")


class _RatingFields(NamedTuple):
    rater: int
    ratee: int
    value: float
    count: int = 1
    interest: int | None = None


class RatingEvent(_Record, _RatingFields):
    """``count`` identical ratings ``rater → ratee`` of ``value`` (±1).

    ``interest`` marks a genuine serviced request (and feeds the
    behavioural interest counters); collusion bursts leave it ``None``.
    """

    __slots__ = ()

    def __new__(
        cls,
        rater: int,
        ratee: int,
        value: float,
        count: int = 1,
        interest: int | None = None,
    ) -> "RatingEvent":
        # The ledgers cast ids to int64 at flush: 1.5 would become node 1
        # there and ``True`` node 1, so (1.5, True) passes the self-rating
        # check here and fails every later flush.
        if type(rater) is not int:
            rater = _id(rater, "rater must be an integer")
        if type(ratee) is not int:
            ratee = _id(ratee, "ratee must be an integer")
        if type(count) is not int:
            count = _id(count, "count must be an integer")
        if interest is not None and type(interest) is not int:
            interest = _id(interest, "interest must be an integer")
        if not 1 <= count <= _MAX_COUNT:
            raise ValueError(f"count must be in [1, 2**53], got {count}")
        # A value is stored as a Python float, as the codec reads it back.
        # ``True`` lies in [-1, 1] but would encode as JSON ``true``, which
        # the codec refuses, and numpy scalars other than float64 do not
        # encode at all.
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"value must be a number, got {value!r}")
            value = float(value)
        # Ratings live on the paper's [-1, 1] scale.  ``value * count`` is
        # the rating ledger's increment, and EigenTrust sums increments
        # across intervals: a NaN would count as a negative rating, and
        # values far off the scale overflow that sum to inf, which turns
        # every reputation NaN at the next update.
        if not -1.0 <= value <= 1.0:
            raise ValueError(
                f"value must be a finite rating in [-1, 1], got {value}"
            )
        if rater == ratee:
            raise ValueError("self-ratings are not allowed")
        if interest is not None and count != 1:
            raise ValueError(
                "a genuine (interest-carrying) rating is a single service "
                "outcome; bursts must not carry an interest"
            )
        return _tuple_new(cls, (rater, ratee, value, count, interest))


class _InteractionFields(NamedTuple):
    source: int
    target: int
    count: float = 1.0


class InteractionEvent(_Record, _InteractionFields):
    """``count`` interactions initiated by ``source`` toward ``target``
    with no rating attached."""

    __slots__ = ()

    def __new__(
        cls, source: int, target: int, count: float = 1.0
    ) -> "InteractionEvent":
        if type(source) is not int:
            source = _id(source, "source must be an integer")
        if type(target) is not int:
            target = _id(target, "target must be an integer")
        if not 0 < count < math.inf:
            raise ValueError(f"count must be positive and finite, got {count}")
        if source == target:
            raise ValueError("self-interactions are not meaningful")
        return _tuple_new(cls, (source, target, count))


class _ChurnFields(NamedTuple):
    nodes: tuple[int, ...]
    factor: float


class ChurnEvent(_Record, _ChurnFields):
    """Decay the listed nodes' interaction history by ``factor``."""

    __slots__ = ()

    def __new__(cls, nodes: Iterable[int], factor: float) -> "ChurnEvent":
        nodes = tuple(
            n if type(n) is int else _id(n, "churn node ids must be integers")
            for n in nodes
        )
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {factor}")
        return _tuple_new(cls, (nodes, factor))


class _WatermarkFields(NamedTuple):
    cycle: int | None = None


class WatermarkEvent(_Record, _WatermarkFields):
    """Close the current rating interval and run the reputation update.

    ``cycle`` is informational (the batch cycle index in recorded
    streams); the service asserts monotonicity when it is set.
    """

    __slots__ = ()


class _QueryFields(NamedTuple):
    node: int | None = None
    rater: int | None = None
    ratee: int | None = None


class QueryRequest(_Record, _QueryFields):
    """A read-only probe of the live service state.

    * ``node`` set → that node's current reputation;
    * ``rater``/``ratee`` set → the pair's current Gaussian damping
      weight (1.0 unless the detector flagged the pair last interval);
    * neither → the full reputation vector.
    """

    __slots__ = ()

    def __new__(
        cls,
        node: int | None = None,
        rater: int | None = None,
        ratee: int | None = None,
    ) -> "QueryRequest":
        if node is not None and type(node) is not int:
            node = _id(node, "node must be an integer")
        if rater is not None and type(rater) is not int:
            rater = _id(rater, "rater must be an integer")
        if ratee is not None and type(ratee) is not int:
            ratee = _id(ratee, "ratee must be an integer")
        if (rater is None) != (ratee is None):
            raise ValueError("damping queries need both rater and ratee")
        if node is not None and rater is not None:
            raise ValueError("query either a reputation or a damping weight")
        return _tuple_new(cls, (node, rater, ratee))


@dataclass(frozen=True)
class QueryResult:
    """Answer to one :class:`QueryRequest`, stamped with service progress."""

    request: QueryRequest
    #: Scalar reputation / damping weight, or the full vector as a list.
    value: float | list[float]
    #: Reputation-update intervals the service had applied when answering.
    intervals_run: int
    #: Mutation events applied when answering.
    events_applied: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": "result",
            "value": self.value,
            "intervals_run": self.intervals_run,
            "events_applied": self.events_applied,
        }


Event = Union[RatingEvent, InteractionEvent, ChurnEvent, WatermarkEvent, QueryRequest]


def encode_event(event: Event) -> dict[str, Any]:
    """One event → its tagged JSON-safe dict (defaults elided)."""
    if isinstance(event, RatingEvent):
        out: dict[str, Any] = {
            "t": "rating",
            "rater": event.rater,
            "ratee": event.ratee,
            "value": event.value,
        }
        if event.count != 1:
            out["count"] = event.count
        if event.interest is not None:
            out["interest"] = event.interest
        return out
    if isinstance(event, InteractionEvent):
        out = {"t": "interaction", "source": event.source, "target": event.target}
        if event.count != 1.0:
            out["count"] = event.count
        return out
    if isinstance(event, ChurnEvent):
        return {"t": "churn", "nodes": list(event.nodes), "factor": event.factor}
    if isinstance(event, WatermarkEvent):
        out = {"t": "watermark"}
        if event.cycle is not None:
            out["cycle"] = event.cycle
        return out
    if isinstance(event, QueryRequest):
        out = {"t": "query"}
        if event.node is not None:
            out["node"] = event.node
        if event.rater is not None:
            out["rater"] = event.rater
            out["ratee"] = event.ratee
        return out
    raise TypeError(f"not a service event: {type(event).__name__}")


def _integer(name: str, value: Any) -> int:
    """A JSON integer field: ``bool`` (an ``int`` subclass), fractional
    numbers and numeric strings are refused rather than coerced."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _optional_integer(name: str, value: Any) -> int | None:
    return None if value is None else _integer(name, value)


def _number(name: str, value: Any) -> float:
    """A JSON number field (integer or float; not ``bool`` or a string)."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def decode_event(data: dict[str, Any]) -> Event:
    """Inverse of :func:`encode_event`; raises :class:`EventDecodeError`.

    Node ids, ``interest``, ``cycle`` and a rating's ``count`` must be JSON
    integers; ``value``, ``factor`` and an interaction's ``count`` must be
    JSON numbers.  Anything else (``true``, ``"2"``, ``3.9`` as an id) is
    refused, not coerced.

    The common records -- a rating or interaction with float ``value`` /
    ``count`` and integer ids -- are type-checked inline and built in one
    step.  Any other record, well-formed or not,
    goes through the per-field helpers, which convert integer numbers and
    name the first bad field in the error.
    """
    if not isinstance(data, dict):
        raise EventDecodeError(f"event must be a JSON object, got {type(data).__name__}")
    get = data.get
    tag = get("t")
    try:
        if tag == "rating":
            rater, ratee, value = get("rater"), get("ratee"), get("value")
            count, interest = get("count", 1), get("interest")
            if (
                type(rater) is int
                and type(ratee) is int
                and type(value) is float
                and type(count) is int
                and (interest is None or type(interest) is int)
            ):
                return RatingEvent(rater, ratee, value, count, interest)
            return RatingEvent(
                rater=_integer("rater", data["rater"]),
                ratee=_integer("ratee", data["ratee"]),
                value=_number("value", data["value"]),
                count=_integer("count", get("count", 1)),
                interest=_optional_integer("interest", get("interest")),
            )
        if tag == "interaction":
            source, target, count = get("source"), get("target"), get("count", 1.0)
            if type(source) is int and type(target) is int and type(count) is float:
                return InteractionEvent(source, target, count)
            return InteractionEvent(
                source=_integer("source", data["source"]),
                target=_integer("target", data["target"]),
                count=_number("count", get("count", 1.0)),
            )
        if tag == "query":
            return QueryRequest(
                node=_optional_integer("node", get("node")),
                rater=_optional_integer("rater", get("rater")),
                ratee=_optional_integer("ratee", get("ratee")),
            )
        if tag == "churn":
            return ChurnEvent(
                nodes=tuple(_integer("node", n) for n in data["nodes"]),
                factor=_number("factor", data["factor"]),
            )
        if tag == "watermark":
            return WatermarkEvent(cycle=_optional_integer("cycle", get("cycle")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise EventDecodeError(f"malformed {tag!r} event: {exc}") from None
    raise EventDecodeError(f"unknown event tag {tag!r}")


def write_event_stream(
    path: Path | str,
    events: Iterable[Event],
    *,
    spec: Any | None = None,
) -> int:
    """Write an event stream file; returns the number of event lines.

    ``spec`` (a :class:`~repro.api.ScenarioSpec`) goes into a leading
    header line so the stream is self-describing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        if spec is not None:
            header = {
                "t": "header",
                "schema_version": EVENT_SCHEMA_VERSION,
                "spec": spec.to_dict(),
            }
            handle.write(json.dumps(header, separators=(",", ":")))
            handle.write("\n")
        for event in events:
            handle.write(json.dumps(encode_event(event), separators=(",", ":")))
            handle.write("\n")
            written += 1
    return written


def iter_event_lines(handle: TextIO) -> Iterator[Event]:
    """Decode events line-by-line from an open text stream.

    A header line, if present, must come first and is skipped (version
    checked); blank lines are ignored.
    """
    return _decode_lines(handle, {})


def _decode_lines(handle: TextIO, header: dict[str, Any]) -> Iterator[Event]:
    """:func:`iter_event_lines`' loop; a header line's fields are copied
    into ``header``."""
    for number, raw in enumerate(handle, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise EventDecodeError(f"line {number}: invalid JSON ({exc})") from None
        if isinstance(data, dict) and data.get("t") == "header":
            if number != 1:
                raise EventDecodeError(f"line {number}: header must be the first line")
            version = data.get("schema_version")
            if version != EVENT_SCHEMA_VERSION:
                raise EventDecodeError(
                    f"event schema version {version!r} != supported "
                    f"{EVENT_SCHEMA_VERSION}"
                )
            header.update(data)
            continue
        try:
            yield decode_event(data)
        except EventDecodeError as exc:
            raise EventDecodeError(f"line {number}: {exc}") from None


@dataclass(frozen=True)
class _LoadedStream:
    """Result of :func:`read_event_stream`: spec dict (or None) + events."""

    spec: dict[str, Any] | None
    events: tuple[Event, ...] = field(default_factory=tuple)


def read_event_stream(path: Path | str) -> _LoadedStream:
    """Load a whole stream file: ``(spec_dict_or_None, events)``."""
    header: dict[str, Any] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        events = tuple(_decode_lines(handle, header))
    return _LoadedStream(spec=header.get("spec"), events=events)
