"""``decode_event`` against a frozen copy of the per-field decoder it
replaced: same record, field for field (values and their types), or the
same error text, over the serve benchmark's generated stream and over
single-field perturbations of every record in it."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Any

import pytest

from repro.serve.events import (
    ChurnEvent,
    EventDecodeError,
    InteractionEvent,
    QueryRequest,
    RatingEvent,
    WatermarkEvent,
    decode_event,
    encode_event,
)

BENCH_SERVE = Path(__file__).resolve().parents[2] / "benchmarks" / "test_bench_serve.py"


# -- the oracle: the per-field decoder, kept as it was ------------------------


def _integer(name: str, value: Any) -> int:
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _optional_integer(name: str, value: Any) -> int | None:
    return None if value is None else _integer(name, value)


def _number(name: str, value: Any) -> float:
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def oracle_decode(data: dict[str, Any]):
    if not isinstance(data, dict):
        raise EventDecodeError(f"event must be a JSON object, got {type(data).__name__}")
    tag = data.get("t")
    try:
        if tag == "rating":
            return RatingEvent(
                rater=_integer("rater", data["rater"]),
                ratee=_integer("ratee", data["ratee"]),
                value=_number("value", data["value"]),
                count=_integer("count", data.get("count", 1)),
                interest=_optional_integer("interest", data.get("interest")),
            )
        if tag == "interaction":
            return InteractionEvent(
                source=_integer("source", data["source"]),
                target=_integer("target", data["target"]),
                count=_number("count", data.get("count", 1.0)),
            )
        if tag == "churn":
            return ChurnEvent(
                nodes=tuple(_integer("node", n) for n in data["nodes"]),
                factor=_number("factor", data["factor"]),
            )
        if tag == "watermark":
            return WatermarkEvent(cycle=_optional_integer("cycle", data.get("cycle")))
        if tag == "query":
            return QueryRequest(
                node=_optional_integer("node", data.get("node")),
                rater=_optional_integer("rater", data.get("rater")),
                ratee=_optional_integer("ratee", data.get("ratee")),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise EventDecodeError(f"malformed {tag!r} event: {exc}") from None
    raise EventDecodeError(f"unknown event tag {tag!r}")


# -- comparison ---------------------------------------------------------------


def typed(value: Any) -> Any:
    """A value with the type of every leaf spelled out."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value).__name__, repr(value)


def outcome(decode, data: dict[str, Any]):
    try:
        event = decode(data)
    except EventDecodeError as exc:
        return "error", str(exc)
    return type(event).__name__, typed(tuple(event))


def generated_stream() -> list[dict[str, Any]]:
    """The serve benchmark generator's events (ratings with interests,
    interactions, churn, queries), plus the record shapes it never makes:
    bursts, pair probes, watermarks and integer-typed numbers."""
    spec = importlib.util.spec_from_file_location("bench_serve_inputs", BENCH_SERVE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    events = module._synthesize_events(1_000, 6_000, seed=module.SEED)
    events += [
        RatingEvent(3, 9, 1.0, count=40),
        RatingEvent(9, 3, -1.0),
        InteractionEvent(5, 6, 2.5),
        QueryRequest(rater=3, ratee=9),
        QueryRequest(),
        WatermarkEvent(),
        WatermarkEvent(cycle=7),
    ]
    lines = [json.dumps(encode_event(event)) for event in events]
    lines += [
        '{"t":"rating","rater":1,"ratee":2,"value":-1}',
        '{"t":"rating","rater":1,"ratee":2,"value":1,"count":3}',
        '{"t":"interaction","source":1,"target":2,"count":4}',
        '{"t":"churn","nodes":[4,5],"factor":1}',
        '{"t":"query","node":0,"extra":[1,2]}',
    ]
    return [json.loads(line) for line in lines]


STREAM = generated_stream()

#: Field values a perturbation writes in: every wrong JSON type, ``bool``
#: ids, out-of-scale and non-finite numbers, and 2**63-scale integers.
#: Integers past float range are left out: the per-field decoder let their
#: ``OverflowError`` escape, where ``decode_event`` refuses them (pinned in
#: ``test_codec_properties.py``).
PERTURBATIONS = [
    None, True, False, 0, -1, 1, 2, 1.0, 1.5, -0.0, 1e308, float("nan"),
    float("inf"), 2**53, 2**53 + 1, 2**63, -(2**63), "1", "", [1, 2], [],
    {"a": 1},
]


def perturbed(stream: list[dict[str, Any]]):
    """Each distinct record shape with one field replaced or removed."""
    seen = set()
    for data in stream:
        shape = (data["t"], tuple(sorted(data)))
        if shape in seen:
            continue
        seen.add(shape)
        for key in list(data) + ["count", "interest", "cycle", "node"]:
            without = {k: v for k, v in data.items() if k != key}
            yield without
            for value in PERTURBATIONS:
                yield {**data, key: value}
        for tag in (None, "Rating", 7, ["rating"]):
            yield {**data, "t": tag}


def test_generated_stream_decodes_field_for_field():
    assert len(STREAM) > 6_000
    kinds = set()
    for data in STREAM:
        got = outcome(decode_event, data)
        assert got == outcome(oracle_decode, data), data
        kinds.add(got[0])
    assert kinds == {
        "RatingEvent", "InteractionEvent", "ChurnEvent", "WatermarkEvent",
        "QueryRequest",
    }


def test_perturbed_records_match_oracle():
    compared = refused = 0
    for data in perturbed(STREAM):
        got = outcome(decode_event, data)
        assert got == outcome(oracle_decode, data), data
        compared += 1
        refused += got[0] == "error"
    # Both branches are exercised: records the perturbation left valid
    # and records it broke.
    assert compared > 1_000
    assert 0 < refused < compared


@pytest.mark.parametrize("data", [[1, 2], "rating", None, 3])
def test_non_objects_match_oracle(data):
    assert outcome(decode_event, data) == outcome(oracle_decode, data)
