"""Property tests of the line-JSON codec and of event rejection.

* For any JSON object, :func:`decode_event` either returns an event that
  round-trips through :func:`encode_event` and JSON text, or raises
  :class:`EventDecodeError` -- never a bare ``KeyError``, ``TypeError``,
  ``ValueError`` or ``OverflowError``.
* Applying an event the service refuses leaves its counters, its ingest
  buffer and its ledgers' versions as they were.

Each property runs with a small example budget in the default selection
and with a larger one under the ``fuzz`` marker.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec
from repro.serve import (
    ChurnEvent,
    EventDecodeError,
    EventRejected,
    InteractionEvent,
    QueryRequest,
    RatingEvent,
    ReputationService,
    WatermarkEvent,
    decode_event,
    encode_event,
)

N_NODES = 20
N_INTERESTS = 6

TAGS = ["rating", "interaction", "churn", "watermark", "query", "header", "Rating", ""]
FIELDS = [
    "rater", "ratee", "value", "count", "interest", "source", "target",
    "nodes", "factor", "cycle", "node",
]

#: Scalars that sit on the edges of what the codec accepts.
EDGE_NUMBERS = [
    0, 1, -1, 2, 2**53, 2**53 + 1, 2**63 - 1, 2**63, -(2**63), 10**400,
    0.0, -0.0, 0.5, 1.0, -1.0, 1.0000001, 1e308, 9.3e18,
    float("nan"), float("inf"), float("-inf"),
]
EDGE_VALUES = EDGE_NUMBERS + [True, False, None, "1", [1], {}]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=N_NODES + 3),
    st.integers(),
    st.floats(),
    st.sampled_from(EDGE_NUMBERS),
    st.text(max_size=4),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
field_values = st.one_of(
    scalars, st.lists(st.integers(-3, N_NODES + 3) | scalars, max_size=4), json_values
)


@st.composite
def event_objects(draw) -> dict:
    """Objects shaped like events: a tag (or none), then any subset of
    the event fields with any JSON values, plus the odd stray key."""
    data = draw(st.dictionaries(st.sampled_from(FIELDS), field_values, max_size=6))
    if draw(st.booleans()):
        data["t"] = draw(st.sampled_from(TAGS) | json_values)
    data.update(draw(st.dictionaries(st.text(max_size=3), json_values, max_size=2)))
    return data


def records(kind, **fields):
    """``kind(**fields)`` with each field drawn from its strategy.  (Not
    ``st.builds``: for a named tuple it fills the defaulted fields too.)"""
    return st.fixed_dictionaries(fields).map(lambda kwargs: kind(**kwargs))


valid_events = st.one_of(
    records(
        RatingEvent,
        rater=st.integers(0, 9),
        ratee=st.integers(10, 19),
        value=st.floats(-1.0, 1.0),
        count=st.just(1) | st.integers(1, 2**53),
    ),
    records(
        RatingEvent,
        rater=st.integers(max_value=9),
        ratee=st.integers(min_value=10),
        value=st.sampled_from([-1.0, 1.0]),
        interest=st.integers(),
    ),
    records(
        InteractionEvent,
        source=st.integers(0, 9),
        target=st.integers(10, 19),
        count=st.floats(min_value=1e-300, max_value=1e300),
    ),
    records(ChurnEvent, nodes=st.lists(st.integers()), factor=st.floats(0.0, 1.0)),
    records(WatermarkEvent, cycle=st.none() | st.integers()),
    records(QueryRequest, node=st.none() | st.integers()),
    records(QueryRequest, rater=st.integers(), ratee=st.integers()),
)


@st.composite
def mutated_events(draw) -> dict:
    """A valid event's encoding with one field overwritten or dropped:
    mostly one of its own fields, and half the time with an edge scalar,
    so near-valid records dominate."""
    data = encode_event(draw(valid_events))
    own = sorted(key for key in data if key != "t") or ["t"]
    key = draw(st.sampled_from(own) | st.sampled_from(own) | st.sampled_from(FIELDS))
    if draw(st.integers(0, 3)) == 0:
        data.pop(key, None)
    else:
        data[key] = draw(st.sampled_from(EDGE_VALUES) | field_values)
    return data


json_objects = st.one_of(
    mutated_events(),
    event_objects(),
    valid_events.map(encode_event),
    st.dictionaries(st.text(max_size=4), json_values, max_size=5),
)


def check_decode(data: dict) -> None:
    try:
        event = decode_event(data)
    except EventDecodeError:
        return
    encoded = encode_event(event)
    assert decode_event(encoded) == event
    assert decode_event(json.loads(json.dumps(encoded))) == event


@settings(max_examples=300, deadline=None)
@given(mutated_events())
def test_near_valid_record_decodes_to_round_tripping_event_or_error(data):
    check_decode(data)


@settings(max_examples=150, deadline=None)
@given(json_objects)
def test_any_object_decodes_to_round_tripping_event_or_error(data):
    check_decode(data)


@pytest.mark.fuzz
@settings(max_examples=5_000, deadline=None)
@given(json_objects)
def test_decode_property_deep(data):
    check_decode(data)


#: One record of each encoded shape, every optional field present.
SHAPES = [
    RatingEvent(3, 7, -1.0, count=4),
    RatingEvent(3, 7, 1.0, interest=2),
    InteractionEvent(4, 5, 2.5),
    ChurnEvent((1, 2), 0.5),
    WatermarkEvent(cycle=4),
    QueryRequest(node=9),
    QueryRequest(rater=1, ratee=2),
]


def test_edge_value_in_every_field_decodes_to_event_or_error():
    """The grid hypothesis samples from, walked in full: every edge value
    written into every field of every record shape."""
    for event in SHAPES:
        encoded = encode_event(event)
        for key in sorted(encoded):
            for value in EDGE_VALUES:
                check_decode({**encoded, key: value})


@pytest.mark.parametrize(
    "data",
    [
        {"t": "rating", "rater": 0, "ratee": 1, "value": 10**400},
        {"t": "interaction", "source": 0, "target": 1, "count": 10**400},
        {"t": "churn", "nodes": [1], "factor": -(10**400)},
    ],
)
def test_numbers_past_float_range_refused(data):
    with pytest.raises(EventDecodeError, match="too large"):
        decode_event(data)


# -- rejection leaves no trace -------------------------------------------------


def _unchecked(kind, *fields):
    """A record built around its constructor's checks: the service must
    refuse it on its own."""
    return tuple.__new__(kind, fields)


ids = st.integers(-3, N_NODES + 3) | st.sampled_from([-(2**63), 2**63])


@st.composite
def service_events(draw):
    """Events the service may refuse: ids and interests past the world's
    ranges, self-pairs and non-positive counts in records built around
    their constructors, stale watermarks, and non-events."""
    kind = draw(st.sampled_from(["rating", "interaction", "other"]))
    source, target = draw(ids), draw(ids)
    if kind == "rating":
        interest = draw(st.none() | st.integers(-2, N_INTERESTS + 2))
        count = 1 if interest is not None else draw(st.integers(-2, 3))
        return _unchecked(RatingEvent, source, target, 1.0, count, interest)
    if kind == "interaction":
        count = draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
        return _unchecked(InteractionEvent, source, target, count)
    return draw(
        st.one_of(
            records(ChurnEvent, nodes=st.lists(ids, max_size=3), factor=st.just(0.5)),
            records(WatermarkEvent, cycle=st.integers(-3, -1)),
            records(QueryRequest, node=ids),
            records(QueryRequest, rater=ids, ratee=ids),
            st.sampled_from(["rating", None, (0, 1, 1.0, 1, None), {"t": "rating"}]),
        )
    )


def service_state(service: ReputationService):
    sim = service._sim
    return (
        service.metrics.as_dict(),
        service.events_applied,
        service.intervals_run,
        service._events_this_interval,
        tuple(
            list(getattr(service, name))
            for name in (
                "_r_raters", "_r_ratees", "_r_values", "_r_counts",
                "_q_nodes", "_q_interests", "_i_sources", "_i_targets",
                "_i_counts",
            )
        ),
        sim.ledger.total_recorded,
        sim.interactions.version,
        sim.profiles.version,
    )


@pytest.fixture(scope="module")
def service():
    spec = ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=3,
        world=dict(
            n_nodes=N_NODES,
            n_pretrusted=2,
            n_colluders=4,
            n_interests=N_INTERESTS,
            interests_per_node=[1, 3],
            capacity=10,
        ),
    )
    return ReputationService(spec)


def check_rejection(service: ReputationService, events: list) -> None:
    for event in events:
        before = service_state(service)
        try:
            service.apply(event)
        except EventRejected:
            assert service_state(service) == before, event


@settings(max_examples=150, deadline=None)
@given(events=st.lists(service_events(), max_size=8))
def test_rejected_event_leaves_no_trace(service, events):
    check_rejection(service, events)


@pytest.mark.fuzz
@settings(max_examples=1_000, deadline=None)
@given(events=st.lists(service_events(), max_size=8))
def test_rejection_property_deep(service, events):
    check_rejection(service, events)
