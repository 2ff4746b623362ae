"""ReputationService: sync core, queries, metrics, and the asyncio loop."""

import asyncio
import json

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.chaos.checkpoint import encode_state
from repro.serve import (
    ChurnEvent,
    EventRejected,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    ReputationService,
    ServiceError,
    WatermarkEvent,
)
from repro.serve.driver import drive_lines, serve_socket
from repro.serve.events import EventDecodeError, decode_event, encode_event


def small_spec(**world):
    base = dict(
        n_nodes=20,
        n_pretrusted=2,
        n_colluders=4,
        n_interests=6,
        interests_per_node=[1, 3],
        capacity=10,
        query_cycles=3,
        simulation_cycles=3,
    )
    base.update(world)
    return ScenarioSpec(
        system="EigenTrust+SocialTrust", collusion="pcm", seed=7, world=base
    )


@pytest.fixture(scope="module")
def module_service():
    """One shared read-only-ish service for cheap query tests."""
    return ReputationService(small_spec())


class TestConstruction:
    def test_spec_type_enforced(self):
        with pytest.raises(TypeError, match="ScenarioSpec"):
            ReputationService({"n_nodes": 10})

    def test_interval_events_validated(self):
        with pytest.raises(ValueError, match="interval_events"):
            ReputationService(small_spec(), interval_events=0)

    def test_snapshot_every_requires_path(self):
        with pytest.raises(ValueError, match="snapshot_path"):
            ReputationService(small_spec(), snapshot_every=2)


class TestSyncCore:
    def test_mutations_then_watermark(self):
        service = ReputationService(small_spec())
        assert service.apply(RatingEvent(rater=0, ratee=1, value=1.0)) is None
        assert service.apply(InteractionEvent(source=2, target=3)) is None
        assert service.apply(ChurnEvent(nodes=(4,), factor=0.5)) is None
        assert service.events_applied == 3
        assert service.intervals_run == 0

        reputations = service.apply(WatermarkEvent(cycle=0))
        assert isinstance(reputations, np.ndarray)
        assert reputations.shape == (service.n_nodes,)
        assert service.intervals_run == 1
        assert service.history.shape == (1, service.n_nodes)

    def test_auto_watermark(self):
        service = ReputationService(small_spec(), interval_events=3)
        out = [
            service.apply(RatingEvent(rater=0, ratee=i, value=1.0))
            for i in range(1, 7)
        ]
        # Every third mutation closes an interval.
        assert [o is not None for o in out] == [False, False, True] * 2
        assert service.intervals_run == 2

    def test_stale_watermark_rejected(self):
        service = ReputationService(small_spec())
        service.apply(WatermarkEvent(cycle=0))
        with pytest.raises(ServiceError, match="behind"):
            service.apply(WatermarkEvent(cycle=0))

    @pytest.mark.parametrize(
        "event",
        [
            InteractionEvent(source=-1, target=0),
            InteractionEvent(source=0, target=30),
            ChurnEvent(nodes=(-1,), factor=0.5),
            ChurnEvent(nodes=(3, 30), factor=0.5),
            RatingEvent(rater=-1, ratee=2, value=1.0),
            RatingEvent(rater=1, ratee=30, value=1.0, interest=0),
            RatingEvent(rater=1, ratee=2, value=1.0, interest=99),
            RatingEvent(rater=1, ratee=2, value=1.0, interest=-1),
        ],
        ids=repr,
    )
    def test_out_of_range_event_rejected_before_any_mutation(self, event):
        service = ReputationService(small_spec(n_nodes=30, n_interests=5))
        service.apply(RatingEvent(rater=3, ratee=4, value=1.0, interest=0))

        def state():
            return json.dumps(encode_state(service.checkpoint()), sort_keys=True)

        before, stats_before = state(), service.stats()
        with pytest.raises(ValueError, match="out of range"):
            service.apply(event)
        assert state() == before
        assert service.stats() == stats_before

    def test_rejected_overflowing_rating_leaves_reputations_finite(self):
        lines = [
            '{"t":"rating","rater":0,"ratee":1,"value":1.0}',
            '{"t":"rating","rater":10,"ratee":11,"value":1e308,"count":10}',
            '{"t":"rating","rater":2,"ratee":3,"value":1.0}',
            '{"t":"watermark"}',
        ]
        service = ReputationService(small_spec())
        rejected = []
        for line in lines:
            try:
                service.apply(decode_event(json.loads(line)))
            except EventDecodeError:
                rejected.append(line)
        assert rejected == [lines[1]]
        assert np.isfinite(service.reputations).all()

        clean = ReputationService(small_spec())
        for line in lines[:1] + lines[2:]:
            clean.apply(decode_event(json.loads(line)))
        assert np.array_equal(service.reputations, clean.reputations)

    def test_off_scale_ratings_refused_across_intervals(self):
        """Each 1e308 rating is finite on its own, but EigenTrust sums the
        interval increments: two of them overflowed to inf and turned
        every reputation NaN.  Ratings off the [-1, 1] scale are refused."""
        off_scale = '{"t":"rating","rater":10,"ratee":11,"value":1e308}'
        lines = [
            off_scale,
            '{"t":"rating","rater":0,"ratee":1,"value":1.0}',
            '{"t":"watermark"}',
            off_scale,
            '{"t":"rating","rater":2,"ratee":3,"value":-1.0}',
            '{"t":"watermark"}',
        ]
        service = ReputationService(small_spec())
        rejected = []
        for line in lines:
            try:
                service.apply(decode_event(json.loads(line)))
            except EventDecodeError:
                rejected.append(line)
        assert rejected == [off_scale, off_scale]
        assert service.intervals_run == 2
        assert np.isfinite(service.reputations).all()

    def test_unknown_event_type_rejected(self):
        with pytest.raises(TypeError, match="not a service event"):
            ReputationService(small_spec()).apply("rating")

    @pytest.mark.parametrize(
        "event, legacy",
        [
            (RatingEvent(rater=0, ratee=10_000, value=1.0), ValueError),
            (RatingEvent(rater=0, ratee=1, value=1.0, interest=99), ValueError),
            (InteractionEvent(source=-1, target=3), ValueError),
            (WatermarkEvent(cycle=-1), ServiceError),
            ("rating", TypeError),
        ],
        ids=repr,
    )
    def test_refusals_are_event_rejected(self, event, legacy):
        """Every refusal made before state moves is an EventRejected and
        keeps the error type it had before."""
        with pytest.raises(EventRejected) as info:
            ReputationService(small_spec()).apply(event)
        assert isinstance(info.value, legacy)

    def test_mistyped_ids_refused_at_construction(self):
        """``RatingEvent(rater=1.5, ratee=True, ...)`` once passed its
        constructor and the service's range checks (1.5 != True), was
        buffered, and the flush's int64 cast made it the self-pair (1, 1):
        every later watermark then raised "self-ratings are not allowed"
        and the service was wedged."""
        service = ReputationService(small_spec())
        for build in (
            lambda: RatingEvent(rater=1.5, ratee=True, value=1.0),
            lambda: RatingEvent(rater=0, ratee=1, value=1.0, count=1.5),
            lambda: InteractionEvent(source=0.5, target=True),
            lambda: QueryRequest(node=2.5),
        ):
            with pytest.raises(TypeError):
                service.apply(build())
        service.apply(RatingEvent(rater=0, ratee=1, value=1.0))
        for expected in (1, 2):
            service.apply(WatermarkEvent())
            assert service.intervals_run == expected
        assert service.events_applied == 1

    def test_serve_events_counts_queries(self):
        service = ReputationService(small_spec())
        consumed = service.serve_events(
            [
                RatingEvent(rater=0, ratee=1, value=1.0),
                QueryRequest(node=0),
                WatermarkEvent(),
            ]
        )
        assert consumed == 3
        assert service.events_applied == 1  # queries don't mutate


class TestQueries:
    def test_node_query(self, module_service):
        result = module_service.query(QueryRequest(node=3))
        assert isinstance(result, QueryResult)
        assert result.value == float(module_service.reputations[3])
        assert result.intervals_run == module_service.intervals_run

    def test_full_vector_query(self, module_service):
        result = module_service.query(QueryRequest())
        assert result.value == [float(x) for x in module_service.reputations]

    def test_pair_weight_defaults_to_one(self, module_service):
        # No detector pass has run yet, so no pair is damped.
        assert module_service.query(QueryRequest(rater=0, ratee=1)).value == 1.0

    def test_pair_weight_after_update_reads_detector(self):
        service = ReputationService(small_spec())
        service.serve_events(
            [RatingEvent(rater=0, ratee=1, value=1.0, count=5), WatermarkEvent()]
        )
        value = service.query(QueryRequest(rater=0, ratee=1)).value
        assert 0.0 <= value <= 1.0

    def test_pair_weight_is_one_for_base_systems(self):
        service = ReputationService(
            ScenarioSpec(
                system="EigenTrust",
                seed=1,
                world={"n_nodes": 15, "n_pretrusted": 2, "n_colluders": 3},
            )
        )
        service.serve_events(
            [RatingEvent(rater=0, ratee=1, value=1.0), WatermarkEvent()]
        )
        assert service.query(QueryRequest(rater=0, ratee=1)).value == 1.0

    def test_out_of_range_queries(self, module_service):
        n = module_service.n_nodes
        with pytest.raises(ValueError, match="out of range"):
            module_service.query(QueryRequest(node=n))
        with pytest.raises(ValueError, match="out of range"):
            module_service.query(QueryRequest(rater=0, ratee=n))


class TestMetrics:
    def test_counters_and_stats(self):
        service = ReputationService(small_spec())
        service.serve_events(
            [
                RatingEvent(rater=0, ratee=1, value=1.0),
                RatingEvent(rater=0, ratee=2, value=1.0),
                InteractionEvent(source=1, target=2),
                ChurnEvent(nodes=(3,), factor=0.9),
                QueryRequest(node=0),
                WatermarkEvent(),
            ]
        )
        stats = service.stats()
        metrics = stats["metrics"]
        assert metrics["serve.events.rating"]["value"] == 2
        assert metrics["serve.events.interaction"]["value"] == 1
        assert metrics["serve.events.churn"]["value"] == 1
        assert metrics["serve.events.watermark"]["value"] == 1
        assert metrics["serve.queries"]["value"] == 1
        assert "p99" in metrics["serve.query.latency"]
        assert "p99" in metrics["serve.update.seconds"]
        # Rater 0 produced 2 of the 3 rater-attributed interval events.
        assert metrics["serve.flood.top_rater_share"]["value"] == pytest.approx(2 / 3)
        assert stats["events_applied"] == 4
        assert stats["intervals_run"] == 1
        assert stats["spec"] == service.spec.to_dict()


class TestAsyncLoop:
    def test_run_stream_and_query_async(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            await service.submit(RatingEvent(rater=0, ratee=1, value=1.0))
            result = await service.query_async(QueryRequest(node=1))
            await service.submit(WatermarkEvent())
            await service.stop()
            processed = await consumer
            return result, processed

        result, processed = asyncio.run(scenario())
        assert processed == 3
        assert result.events_applied == 1
        assert service.intervals_run == 1

    def test_query_async_propagates_errors(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            with pytest.raises(ValueError, match="out of range"):
                await service.query_async(QueryRequest(node=10_000))
            await service.stop()
            return await consumer

        asyncio.run(scenario())

    def test_refused_submissions_counted_and_loop_continues(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            await service.submit(RatingEvent(rater=0, ratee=10_000, value=1.0))
            await service.submit(WatermarkEvent(cycle=-1))
            await service.submit("not an event")
            await service.submit(RatingEvent(rater=0, ratee=1, value=1.0))
            result = await asyncio.wait_for(
                service.query_async(QueryRequest(node=1)), 30
            )
            await service.stop()
            return result, await asyncio.wait_for(consumer, 30)

        result, processed = asyncio.run(scenario())
        assert result.events_applied == 1
        assert processed == 2
        assert service.metrics.as_dict()["serve.events.rejected"]["value"] == 3

    @pytest.mark.parametrize(
        "part, method, interval_events",
        [
            ("_system", "update", None),
            ("_system", "update", 2),
            ("_ledger", "record_many", None),
        ],
    )
    def test_failed_watermark_ends_the_loop(
        self, monkeypatch, part, method, interval_events
    ):
        """A watermark that breaks after the event was taken (in the flush
        or in the update, explicit or auto-watermark) is not a refusal:
        its error leaves run() and is not counted as a rejection."""
        service = ReputationService(small_spec(), interval_events=interval_events)

        def broken(*args):
            raise ValueError("broken mid-watermark")

        monkeypatch.setattr(getattr(service, part), method, broken)

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            await service.submit(RatingEvent(rater=0, ratee=1, value=1.0))
            if interval_events is None:
                await service.submit(WatermarkEvent())
            else:
                await service.submit(RatingEvent(rater=1, ratee=2, value=1.0))
            await service.stop()
            return await asyncio.wait_for(consumer, 30)

        with pytest.raises(ValueError, match="broken mid-watermark"):
            asyncio.run(scenario())
        assert service.metrics.as_dict()["serve.events.rejected"]["value"] == 0

    def test_run_refuses_reentry(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            await asyncio.sleep(0)
            with pytest.raises(ServiceError, match="already running"):
                await service.run()
            await service.stop()
            return await consumer

        asyncio.run(scenario())

    def test_submit_nowait_sheds_when_full(self):
        service = ReputationService(small_spec(), queue_maxsize=2)

        async def scenario():
            ok = [
                service.submit_nowait(RatingEvent(rater=0, ratee=1, value=1.0))
                for _ in range(4)
            ]
            return ok

        ok = asyncio.run(scenario())
        assert ok == [True, True, False, False]
        assert service.metrics.as_dict()["serve.queue.shed"]["value"] == 2

    def test_run_stream_processes_everything(self):
        service = ReputationService(small_spec())
        events = [RatingEvent(rater=0, ratee=1, value=1.0)] * 5 + [WatermarkEvent()]
        processed = asyncio.run(service.run_stream(events))
        assert processed == 6
        assert service.events_applied == 5
        assert service.intervals_run == 1


class TestDrivers:
    def test_drive_lines_writes_query_results(self):
        import io

        service = ReputationService(small_spec())
        lines = (
            '{"t":"rating","rater":0,"ratee":1,"value":1.0}\n'
            '{"t":"watermark"}\n'
            '{"t":"query","node":1}\n'
        )
        out = io.StringIO()
        consumed = drive_lines(service, io.StringIO(lines), out=out)
        assert consumed == 3
        result = json.loads(out.getvalue())
        assert result["t"] == "result"
        assert result["intervals_run"] == 1

    def test_socket_round_trip(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            server = await serve_socket(service)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"t":"rating","rater":0,"ratee":1,"value":1.0}\n')
            writer.write(b'{"t":"watermark"}\n')
            writer.write(b'{"t":"query","node":1}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()
            await consumer
            return answer

        answer = asyncio.run(scenario())
        assert answer["t"] == "result"
        assert answer["intervals_run"] == 1
        assert service.events_applied == 1

    def test_socket_bad_event_does_not_stop_ingestion(self):
        """A line that decodes but names a node outside the world is
        refused by the ingestion loop, which counts it and keeps
        consuming: the query behind it is answered."""
        good = RatingEvent(rater=0, ratee=1, value=1.0)
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            server = await serve_socket(service)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(encode_event(good)).encode() + b"\n")
            writer.write(b'{"t":"rating","rater":0,"ratee":99999,"value":1.0}\n')
            writer.write(b'{"t":"query","node":1}\n')
            await writer.drain()
            answer = json.loads(await asyncio.wait_for(reader.readline(), 30))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()
            processed = await asyncio.wait_for(consumer, 30)
            return answer, processed

        answer, processed = asyncio.run(scenario())
        assert answer["t"] == "result"
        assert answer["events_applied"] == 1
        assert processed == 2
        assert service.events_applied == 1
        metrics = service.metrics.as_dict()
        assert metrics["serve.events.rejected"]["value"] == 1
        clean = ReputationService(small_spec())
        clean.apply(good)

        def ledgers(svc):
            state = svc.checkpoint()
            return json.dumps(encode_state(state["simulation"]), sort_keys=True)

        assert ledgers(service) == ledgers(clean)

    def test_socket_rejects_malformed_line(self):
        service = ReputationService(small_spec())

        async def scenario():
            consumer = asyncio.ensure_future(service.run())
            server = await serve_socket(service)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"not json\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            assert (await reader.readline()) == b""  # connection closed
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.stop()
            await consumer
            return answer

        answer = asyncio.run(scenario())
        assert answer["t"] == "error"
