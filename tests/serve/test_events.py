"""Event types and the line-JSON stream codec."""

import copy
import io
import json
import pickle
import struct

import numpy as np
import pytest

from repro.serve.events import (
    EVENT_SCHEMA_VERSION,
    ChurnEvent,
    EventDecodeError,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    WatermarkEvent,
    decode_event,
    encode_event,
    iter_event_lines,
    read_event_stream,
    write_event_stream,
)


ROUND_TRIP_EVENTS = [
    RatingEvent(rater=3, ratee=7, value=1.0),
    RatingEvent(rater=3, ratee=7, value=-1.0, interest=2),
    RatingEvent(rater=1, ratee=2, value=1.0, count=8),
    InteractionEvent(source=4, target=5),
    InteractionEvent(source=4, target=5, count=2.5),
    ChurnEvent(nodes=(1, 2, 3), factor=0.5),
    WatermarkEvent(),
    WatermarkEvent(cycle=4),
    QueryRequest(node=9),
    QueryRequest(rater=1, ratee=2),
    QueryRequest(),
]


class TestValidation:
    def test_rating_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            RatingEvent(rater=0, ratee=1, value=1.0, count=0)

    def test_no_self_ratings(self):
        with pytest.raises(ValueError, match="self-rating"):
            RatingEvent(rater=3, ratee=3, value=1.0)

    def test_interest_bursts_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            RatingEvent(rater=0, ratee=1, value=1.0, count=2, interest=1)

    def test_interaction_self_and_nonpositive(self):
        with pytest.raises(ValueError):
            InteractionEvent(source=2, target=2)
        with pytest.raises(ValueError):
            InteractionEvent(source=0, target=1, count=0.0)

    @pytest.mark.parametrize(
        "value, count",
        [
            (float("nan"), 1),
            (float("inf"), 1),
            (float("-inf"), 1),
            (1e308, 10),
            (-1e308, 10),
        ],
    )
    def test_rating_increment_must_be_finite(self, value, count):
        with pytest.raises(ValueError, match="finite"):
            RatingEvent(rater=0, ratee=1, value=value, count=count)

    @pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None])
    def test_rating_value_must_be_a_number(self, value):
        """``True`` lies in [-1, 1] but encodes as JSON ``true``, which
        ``decode_event`` refuses."""
        with pytest.raises(TypeError, match="value must be a number"):
            RatingEvent(rater=0, ratee=1, value=value)

    def test_rating_count_bounded(self):
        RatingEvent(rater=0, ratee=1, value=1.0, count=2**53)
        with pytest.raises(ValueError, match="count"):
            RatingEvent(rater=0, ratee=1, value=1.0, count=2**53 + 1)

    @pytest.mark.parametrize("count", [float("inf"), float("nan"), -1.0])
    def test_interaction_count_must_be_finite(self, count):
        with pytest.raises(ValueError, match="count"):
            InteractionEvent(source=0, target=1, count=count)

    def test_churn_factor_range(self):
        with pytest.raises(ValueError, match="factor"):
            ChurnEvent(nodes=(0,), factor=1.5)

    def test_churn_nodes_must_be_integers(self):
        """Floats, bools and strings were once coerced with ``int()``, so
        ``nodes=(0.7, True)`` decayed nodes 0 and 1."""
        for nodes in [(0.7, True), (0.0, 3.0), (True,), ("2",), "12"]:
            with pytest.raises(TypeError, match="churn node ids must be integers"):
                ChurnEvent(nodes=nodes, factor=0.5)

    def test_churn_integer_nodes_normalised(self):
        event = ChurnEvent(nodes=[np.int64(4), 0, np.uint8(7)], factor=0.5)
        assert event.nodes == (4, 0, 7)
        assert [type(n) for n in event.nodes] == [int, int, int]

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda x: RatingEvent(rater=x, ratee=2, value=1.0), "rater"),
            (lambda x: RatingEvent(rater=1, ratee=x, value=1.0), "ratee"),
            (lambda x: RatingEvent(rater=1, ratee=2, value=1.0, count=x), "count"),
            (lambda x: RatingEvent(rater=1, ratee=2, value=1.0, interest=x), "interest"),
            (lambda x: InteractionEvent(source=x, target=2), "source"),
            (lambda x: InteractionEvent(source=1, target=x), "target"),
            (lambda x: QueryRequest(node=x), "node"),
            (lambda x: QueryRequest(rater=x, ratee=2), "rater"),
            (lambda x: QueryRequest(rater=1, ratee=x), "ratee"),
        ],
    )
    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1"])
    def test_integer_fields_refuse_other_types(self, build, field, bad):
        """A float or bool id passed the old constructors and the service's
        range checks, and the flush's int64 cast then turned it into
        another node (``1.5`` and ``True`` both into node 1)."""
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            build(bad)

    def test_required_integer_fields_refuse_none(self):
        for build in (
            lambda: RatingEvent(rater=None, ratee=2, value=1.0),
            lambda: RatingEvent(rater=1, ratee=None, value=1.0),
            lambda: RatingEvent(rater=1, ratee=2, value=1.0, count=None),
            lambda: InteractionEvent(source=None, target=2),
            lambda: InteractionEvent(source=1, target=None),
        ):
            with pytest.raises(TypeError, match="must be an integer"):
                build()

    @pytest.mark.parametrize(
        "event, fields",
        [
            (
                RatingEvent(np.int64(1), np.uint8(2), 1.0, np.int32(3)),
                ("rater", "ratee", "count"),
            ),
            (
                RatingEvent(np.int16(1), 2, -1.0, interest=np.int64(4)),
                ("rater", "interest"),
            ),
            (InteractionEvent(np.int64(5), np.int64(6)), ("source", "target")),
            (QueryRequest(node=np.int64(7)), ("node",)),
            (QueryRequest(rater=np.int8(1), ratee=np.uint64(2)), ("rater", "ratee")),
        ],
        ids=repr,
    )
    def test_numpy_integers_normalised(self, event, fields):
        for name in fields:
            assert type(getattr(event, name)) is int
        assert event == decode_event(encode_event(event))

    def test_query_needs_both_pair_endpoints(self):
        with pytest.raises(ValueError, match="both"):
            QueryRequest(rater=1)

    def test_query_node_xor_pair(self):
        with pytest.raises(ValueError, match="either"):
            QueryRequest(node=0, rater=1, ratee=2)


class TestRecords:
    """The events are tuple-backed records that behave as values of their
    own kind only, and cannot be rebuilt around their checks."""

    @pytest.mark.parametrize("event", ROUND_TRIP_EVENTS, ids=repr)
    def test_immutable_without_instance_dict(self, event):
        name = event._fields[0]
        with pytest.raises(AttributeError):
            setattr(event, name, getattr(event, name))
        with pytest.raises(AttributeError):
            event.extra = 1
        assert not hasattr(event, "__dict__")

    def test_equality_is_type_strict(self):
        rating = RatingEvent(1, 2, 1.0)
        assert rating == RatingEvent(rater=1, ratee=2, value=1.0)
        assert rating != (1, 2, 1.0, 1, None)
        assert (1, 2, 1.0, 1, None) != rating
        assert not rating == (1, 2, 1.0, 1, None)
        assert rating != InteractionEvent(1, 2, 1.0)
        # Two kinds whose fields hold the same values.  No valid query
        # holds an interaction's fields, so the query skips its checks.
        interaction = InteractionEvent(1, 2, 3.0)
        query = tuple.__new__(QueryRequest, (1, 2, 3.0))
        assert tuple(interaction) == tuple(query)
        assert interaction != query and not interaction == query
        assert WatermarkEvent(3) != (3,)

    def test_hash_consistent_with_equality(self):
        rating = RatingEvent(1, 2, 1.0)
        assert hash(rating) == hash(RatingEvent(1, 2, 1.0))
        assert len({rating, RatingEvent(1, 2, 1.0), (1, 2, 1.0, 1, None)}) == 2
        interaction = InteractionEvent(1, 2, 3.0)
        query = tuple.__new__(QueryRequest, (1, 2, 3.0))
        assert len({interaction, query}) == 2

    def test_records_do_not_order(self):
        with pytest.raises(TypeError):
            RatingEvent(1, 2, 1.0) < RatingEvent(1, 3, 1.0)

    def test_signature_defaults_repr_and_match_args(self):
        assert RatingEvent(3, 7, -1.0) == RatingEvent(3, 7, -1.0, 1, None)
        assert repr(RatingEvent(3, 7, -1.0)) == (
            "RatingEvent(rater=3, ratee=7, value=-1.0, count=1, interest=None)"
        )
        assert repr(ChurnEvent([1, 2], 0.5)) == "ChurnEvent(nodes=(1, 2), factor=0.5)"
        assert InteractionEvent.__match_args__ == ("source", "target", "count")
        match QueryRequest(rater=1, ratee=2):
            case QueryRequest(node=None, rater=rater, ratee=ratee):
                assert (rater, ratee) == (1, 2)
            case _:
                pytest.fail("keyword pattern did not match")
        with pytest.raises(TypeError):
            RatingEvent(1, 2)

    @pytest.mark.parametrize(
        "rebuild, message",
        [
            (lambda: RatingEvent(1, 2, 1.0)._replace(ratee=1), "self-rating"),
            (lambda: RatingEvent(1, 2, 1.0)._replace(value=5.0), r"\[-1, 1\]"),
            (lambda: RatingEvent(1, 2, 1.0)._replace(count=0), "count"),
            (lambda: RatingEvent._make((4, 4, 1.0)), "self-rating"),
            (lambda: RatingEvent._make((1, 2, float("nan"))), "finite"),
            (lambda: InteractionEvent._make((1, 1, 1.0)), "self-interaction"),
            (lambda: InteractionEvent(1, 2)._replace(count=-1.0), "count"),
            (lambda: ChurnEvent((1,), 0.5)._replace(factor=2.0), "factor"),
            (lambda: QueryRequest(node=1)._replace(rater=2), "both"),
        ],
    )
    def test_replace_and_make_validate(self, rebuild, message):
        with pytest.raises(ValueError, match=message):
            rebuild()

    def test_churn_replace_refuses_float_nodes(self):
        with pytest.raises(TypeError, match="integers"):
            ChurnEvent((1,), 0.5)._replace(nodes=(0.7,))

    @pytest.mark.parametrize("event", ROUND_TRIP_EVENTS, ids=repr)
    def test_pickle_and_copy_round_trip(self, event):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(event, protocol))
            assert type(back) is type(event) and back == event
        for clone in (copy.copy(event), copy.deepcopy(event)):
            assert type(clone) is type(event) and clone == event

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_tampered_pickle_is_validated(self, protocol):
        """Unpickling calls the validating constructor: a pickle whose
        fields were edited into a self-rating or an off-scale value is
        refused, not loaded."""
        event = RatingEvent(7001, 7002, 0.5)
        data = pickle.dumps(event, protocol)
        if protocol == 0:
            ids = b"I7002\n", b"I7001\n"
            values = b"F0.5\n", b"F5.5\n"
        else:
            ids = b"M" + (7002).to_bytes(2, "little"), b"M" + (7001).to_bytes(2, "little")
            values = struct.pack(">d", 0.5), struct.pack(">d", 5.5)
        for old, new in (ids, values):
            assert data.count(old) == 1
            with pytest.raises(ValueError):
                pickle.loads(data.replace(old, new))

    def test_copy_rebuilds_through_the_constructor(self, monkeypatch):
        """``copy`` and ``deepcopy`` rebuild from ``__reduce__``, which
        names the record class itself: each copy runs the checks."""
        event = RatingEvent(1, 2, 1.0)
        assert event.__reduce__() == (RatingEvent, (1, 2, 1.0, 1, None))
        calls = []
        checked_new = RatingEvent.__new__

        def counting_new(cls, *args):
            calls.append(args)
            return checked_new(cls, *args)

        monkeypatch.setattr(RatingEvent, "__new__", counting_new)
        copy.copy(event)
        copy.deepcopy(event)
        assert calls == [(1, 2, 1.0, 1, None)] * 2


class TestCodec:
    @pytest.mark.parametrize("event", ROUND_TRIP_EVENTS, ids=repr)
    def test_round_trip(self, event):
        assert decode_event(encode_event(event)) == event

    def test_defaults_elided(self):
        assert "count" not in encode_event(RatingEvent(rater=0, ratee=1, value=1.0))
        assert "interest" not in encode_event(RatingEvent(rater=0, ratee=1, value=1.0))
        assert "cycle" not in encode_event(WatermarkEvent())

    def test_unknown_tag(self):
        with pytest.raises(EventDecodeError, match="unknown event tag"):
            decode_event({"t": "frobnicate"})

    def test_missing_field(self):
        with pytest.raises(EventDecodeError, match="malformed"):
            decode_event({"t": "rating", "rater": 0})

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":"rating","rater":10,"ratee":11,"value":1e308,"count":10}',
            '{"t":"rating","rater":10,"ratee":11,"value":NaN}',
            '{"t":"rating","rater":10,"ratee":11,"value":-Infinity}',
            '{"t":"rating","rater":10,"ratee":11,"value":1.0,"count":1e30}',
            '{"t":"interaction","source":10,"target":11,"count":Infinity}',
            '{"t":"interaction","source":10,"target":11,"count":NaN}',
        ],
    )
    def test_non_finite_mutations_rejected(self, line):
        with pytest.raises(EventDecodeError, match="malformed"):
            decode_event(json.loads(line))

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":"rating","rater":3.9,"ratee":1,"value":1.0}',
            '{"t":"rating","rater":3.0,"ratee":1,"value":1.0}',
            '{"t":"rating","rater":true,"ratee":1,"value":1.0}',
            '{"t":"rating","rater":0,"ratee":"2","value":1.0}',
            '{"t":"rating","rater":0,"ratee":1,"value":1.0,"count":2.7}',
            '{"t":"rating","rater":0,"ratee":1,"value":1.0,"count":true}',
            '{"t":"rating","rater":0,"ratee":1,"value":1.0,"interest":1.5}',
            '{"t":"rating","rater":0,"ratee":1,"value":true}',
            '{"t":"rating","rater":0,"ratee":1,"value":"1"}',
            '{"t":"interaction","source":false,"target":1}',
            '{"t":"interaction","source":0,"target":1,"count":"2"}',
            '{"t":"interaction","source":0,"target":1,"count":true}',
            '{"t":"churn","nodes":[1,2.5],"factor":0.5}',
            '{"t":"churn","nodes":"12","factor":0.5}',
            '{"t":"churn","nodes":[1],"factor":"0.5"}',
            '{"t":"watermark","cycle":2.0}',
            '{"t":"query","node":true}',
            '{"t":"query","rater":"1","ratee":2}',
        ],
    )
    def test_mistyped_fields_refused_not_coerced(self, line):
        with pytest.raises(EventDecodeError, match="malformed"):
            decode_event(json.loads(line))

    def test_numeric_fields_accept_ints_and_floats(self):
        assert decode_event(
            {"t": "rating", "rater": 0, "ratee": 1, "value": -1}
        ) == RatingEvent(rater=0, ratee=1, value=-1.0)
        assert decode_event(
            {"t": "interaction", "source": 0, "target": 1, "count": 3}
        ) == InteractionEvent(source=0, target=1, count=3.0)
        assert decode_event(
            {"t": "churn", "nodes": [4], "factor": 1}
        ) == ChurnEvent(nodes=(4,), factor=1.0)

    @pytest.mark.parametrize("value", [1.5, -1.0000001, 1e308])
    def test_rating_value_off_scale_refused(self, value):
        with pytest.raises(EventDecodeError, match=r"\[-1, 1\]"):
            decode_event({"t": "rating", "rater": 0, "ratee": 1, "value": value})

    def test_non_object(self):
        with pytest.raises(EventDecodeError, match="JSON object"):
            decode_event([1, 2, 3])

    def test_encode_rejects_non_events(self):
        with pytest.raises(TypeError):
            encode_event(object())

    def test_query_result_to_dict(self):
        result = QueryResult(
            request=QueryRequest(node=3),
            value=0.25,
            intervals_run=2,
            events_applied=10,
        )
        assert result.to_dict() == {
            "t": "result",
            "value": 0.25,
            "intervals_run": 2,
            "events_applied": 10,
        }


class TestStreamFiles:
    def test_write_read_round_trip_with_spec(self, tmp_path):
        from repro.api import ScenarioSpec

        spec = ScenarioSpec(seed=5, world={"n_nodes": 20})
        path = tmp_path / "stream.jsonl"
        events = [e for e in ROUND_TRIP_EVENTS if not isinstance(e, QueryRequest)]
        written = write_event_stream(path, events, spec=spec)
        assert written == len(events)

        loaded = read_event_stream(path)
        assert loaded.events == tuple(events)
        assert loaded.spec == spec.to_dict()
        assert ScenarioSpec.from_dict(loaded.spec) == spec

    def test_every_constructible_rating_value_round_trips(self, tmp_path):
        """Whatever value the typed constructor accepts, the written stream
        reads back as the same events."""
        values = [1.0, -1.0, 0.0, 0.25, 1, -1, 0, np.float64(-0.5), np.int64(1)]
        events = [RatingEvent(0, 1, value) for value in values]
        assert [type(e.value) for e in events] == [float] * len(values)
        path = tmp_path / "values.jsonl"
        write_event_stream(path, events)
        assert read_event_stream(path).events == tuple(events)

    @pytest.mark.parametrize("engine", ["batched", "scalar"])
    def test_retired_engine_field_dropped(self, engine):
        """Specs written while the scalar query loop was a world option
        carry ``world.engine``; either value loads as the plain spec."""
        from repro.api import ScenarioSpec

        spec = ScenarioSpec(seed=5, world={"n_nodes": 20})
        old = spec.to_dict()
        old["world"]["engine"] = engine
        assert ScenarioSpec.from_dict(old) == spec
        assert ScenarioSpec.from_build({"n_nodes": 20, "engine": engine}, seed=5) == spec

    def test_unknown_engine_value_still_rejected(self):
        from repro.api import ScenarioSpec

        with pytest.raises(ValueError, match="unknown WorldConfig field"):
            ScenarioSpec.from_dict({"world": {"engine": "turbo"}})

    def test_retired_null_sparse_top_k_dropped(self):
        """``SocialTrustConfig.to_dict()`` wrote ``sparse_top_k`` while the
        knob existed; its null value loads as the plain spec."""
        from repro.api import ScenarioSpec
        from repro.core import SocialTrustConfig

        stored = SocialTrustConfig().to_dict()
        spec = ScenarioSpec(seed=5, world={"n_nodes": 20, "socialtrust": stored})
        old = spec.to_dict()
        old["world"]["socialtrust"] = {**stored, "sparse_top_k": None}
        loaded = ScenarioSpec.from_dict(old)
        assert loaded == spec
        assert SocialTrustConfig(**loaded.world["socialtrust"]) == SocialTrustConfig()

    def test_retired_sparse_top_k_value_rejected(self):
        """A set ``sparse_top_k`` ran a truncation that no longer exists."""
        from repro.api import ScenarioSpec
        from repro.core import SocialTrustConfig

        old = {
            "world": {
                "socialtrust": {**SocialTrustConfig().to_dict(), "sparse_top_k": 8}
            }
        }
        with pytest.raises(ValueError, match="sparse_top_k"):
            ScenarioSpec.from_dict(old)

    def test_headerless_stream(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_event_stream(path, [WatermarkEvent()])
        loaded = read_event_stream(path)
        assert loaded.spec is None
        assert loaded.events == (WatermarkEvent(),)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":"watermark"}\n\n{"t":"watermark","cycle":1}\n')
        assert len(read_event_stream(path).events) == 2

    def test_header_must_be_first(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        header = json.dumps({"t": "header", "schema_version": EVENT_SCHEMA_VERSION})
        path.write_text('{"t":"watermark"}\n' + header + "\n")
        with pytest.raises(EventDecodeError, match="first line"):
            read_event_stream(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":"header","schema_version":999}\n')
        with pytest.raises(EventDecodeError, match="schema version"):
            read_event_stream(path)

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":"watermark"}\nnot json\n')
        with pytest.raises(EventDecodeError, match="line 2"):
            read_event_stream(path)

    def test_iter_event_lines_matches_read(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        events = [RatingEvent(rater=0, ratee=1, value=1.0), WatermarkEvent(cycle=0)]
        write_event_stream(path, events)
        with path.open() as handle:
            assert list(iter_event_lines(handle)) == events

    HEADER = json.dumps({"t": "header", "schema_version": EVENT_SCHEMA_VERSION})

    @pytest.mark.parametrize(
        "text, want",
        [
            ('\n{"t":"watermark"}\n   \n\n{"t":"query","node":1}\n\n', 2),
            ('{"t":"watermark"}\n\n{"t":"watermark",\n', "line 3: invalid JSON"),
            (HEADER + "\n{not json}\n", "line 2: invalid JSON"),
            ('{"t":"watermark"}\n' + HEADER + "\n", "line 2: header must be"),
            ("\n" + HEADER + "\n", "line 2: header must be"),
            ('{"t":"header","schema_version":999}\n', "event schema version 999 !="),
            ('{"t":"header"}\n{"t":"watermark"}\n', "event schema version None !="),
            (
                HEADER
                + '\n{"t":"watermark"}\n\n'
                + '{"t":"rating","rater":1.5,"ratee":2,"value":1}\n',
                "line 4: malformed 'rating' event: rater must be an integer",
            ),
        ],
        ids=[
            "blank-lines",
            "invalid-json",
            "invalid-json-after-header",
            "late-header",
            "header-after-blank-line",
            "wrong-schema-version",
            "missing-schema-version",
            "bad-event-on-line-4",
        ],
    )
    def test_both_readers_share_one_loop(self, tmp_path, text, want):
        """read_event_stream and iter_event_lines give the same events, or
        the same error text, for one file."""
        path = tmp_path / "stream.jsonl"
        path.write_text(text)

        def outcome(read):
            try:
                return tuple(read())
            except EventDecodeError as exc:
                return str(exc)

        loaded = outcome(lambda: read_event_stream(path).events)
        with path.open() as handle:
            assert outcome(lambda: iter_event_lines(handle)) == loaded
        if isinstance(want, int):
            assert len(loaded) == want
        else:
            assert isinstance(loaded, str) and loaded.startswith(want)

    def test_iter_event_lines_from_string_handle(self):
        text = '{"t":"query","node":4}\n'
        assert list(iter_event_lines(io.StringIO(text))) == [QueryRequest(node=4)]
