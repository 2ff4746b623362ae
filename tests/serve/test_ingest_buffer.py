"""Write-behind ingest: the service's buffered, batched ledger writes
match per-event scalar writes bit-for-bit at every flush point."""

import numpy as np
import pytest

import repro.serve.service as service_module
from repro.api import ScenarioSpec, build_scenario
from repro.serve import (
    ChurnEvent,
    InteractionEvent,
    QueryRequest,
    RatingEvent,
    ReputationService,
    WatermarkEvent,
)
from repro.serve.service import FLUSH_ROWS

N_NODES = 20
N_INTERESTS = 6


def small_spec():
    return ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=5,
        world=dict(
            n_nodes=N_NODES,
            n_pretrusted=2,
            n_colluders=4,
            n_interests=N_INTERESTS,
            interests_per_node=[1, 3],
            capacity=10,
            query_cycles=3,
            simulation_cycles=3,
        ),
    )


def mixed_stream(n_events, seed=0, watermark_every=90, churn_every=37):
    """Interest ratings, bursts, plain ratings, fractional-count
    interactions, churn, queries and watermarks, in a seeded order."""
    rng = np.random.default_rng(seed)
    events = []
    for t in range(1, n_events + 1):
        if t % watermark_every == 0:
            events.append(WatermarkEvent())
            continue
        if t % churn_every == 0:
            nodes = rng.choice(N_NODES, size=2, replace=False)
            events.append(ChurnEvent(nodes=tuple(nodes), factor=float(rng.uniform(0.5, 0.95))))
            continue
        a, b = (int(x) for x in rng.choice(N_NODES, size=2, replace=False))
        kind = rng.integers(5)
        if kind == 0:
            events.append(
                RatingEvent(
                    rater=a,
                    ratee=b,
                    value=float(rng.choice([-1.0, 1.0])),
                    interest=int(rng.integers(N_INTERESTS)),
                )
            )
        elif kind == 1:
            events.append(
                RatingEvent(rater=a, ratee=b, value=1.0, count=int(rng.integers(2, 9)))
            )
        elif kind == 2:
            events.append(RatingEvent(rater=a, ratee=b, value=-1.0))
        elif kind == 3:
            events.append(
                InteractionEvent(source=a, target=b, count=float(rng.uniform(0.1, 3.0)))
            )
        else:
            events.append(QueryRequest(node=a))
    return events


class ScalarReference:
    """The same world, fed one scalar ledger write per event."""

    def __init__(self, spec):
        self.sim = build_scenario(spec).world.simulation
        self.marks = self.sim.interactions.version

    def apply(self, event):
        sim = self.sim
        if isinstance(event, RatingEvent):
            sim.ledger.record_batch(event.rater, event.ratee, event.value, event.count)
            sim.interactions.record(event.rater, event.ratee, float(event.count))
            if event.interest is not None:
                sim.profiles.record_request(event.rater, event.interest)
        elif isinstance(event, InteractionEvent):
            sim.interactions.record(event.source, event.target, event.count)
        elif isinstance(event, ChurnEvent):
            sim.interactions.decay_nodes(np.asarray(event.nodes), event.factor)
        elif isinstance(event, WatermarkEvent):
            return sim.ledger.drain()
        return None


def ledger_state(sim):
    interval = sim.ledger.peek()
    return {
        "value_sum": interval.value_sum,
        "pos_counts": interval.pos_counts,
        "neg_counts": interval.neg_counts,
        "total_recorded": sim.ledger.total_recorded,
        "interactions": sim.interactions.counts_matrix().copy(),
        "requests": sim.profiles.state_dict()["requests"],
    }


def assert_ledgers_equal(sim, ref_sim):
    got, want = ledger_state(sim), ledger_state(ref_sim)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


def pending(service):
    """Buffered interaction rows (one per rating or interaction event)."""
    return len(service._i_sources)


def buffer_columns(service):
    return tuple(
        list(getattr(service, name))
        for name in (
            "_r_raters", "_r_ratees", "_r_values", "_r_counts",
            "_q_nodes", "_q_interests", "_i_sources", "_i_targets", "_i_counts",
        )
    )


class TestFlushPointsMatchScalarWrites:
    def test_every_flush_point(self, monkeypatch, tmp_path):
        # A small bound makes the size-bound flush fire between the
        # stream's churn lines and watermarks.
        monkeypatch.setattr(service_module, "FLUSH_ROWS", 11)
        spec = small_spec()
        service = ReputationService(spec)
        sim = service._sim
        ref = ScalarReference(spec)
        drained = []
        drain = sim.ledger.drain

        def spy_drain():
            out = drain()
            drained.append(out.copy())
            return out

        sim.ledger.drain = spy_drain
        seen = {"watermark": 0, "churn": 0, "snapshot": 0, "size": 0}
        service_marks = sim.interactions.version
        for t, event in enumerate(mixed_stream(1500, seed=1)):
            before = pending(service)
            service.apply(event)
            want = ref.apply(event)
            if isinstance(event, WatermarkEvent):
                seen["watermark"] += 1
                got = drained[-1]
                for name in ("value_sum", "pos_counts", "neg_counts"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                # The Ωc cache keys on dirty rows: the flush must dirty
                # exactly the rows the scalar writes dirtied.
                assert np.array_equal(
                    sim.interactions.rows_changed_since(service_marks),
                    ref.sim.interactions.rows_changed_since(ref.marks),
                )
                service_marks = sim.interactions.version
                ref.marks = ref.sim.interactions.version
            elif isinstance(event, ChurnEvent):
                seen["churn"] += 1
            elif before and pending(service) == 0:
                seen["size"] += 1
            elif t % 101 == 0:
                service.save_snapshot(tmp_path / "mid.ckpt")
                seen["snapshot"] += 1
            else:
                continue
            assert pending(service) == 0
            assert_ledgers_equal(sim, ref.sim)
        assert all(seen.values()), seen

    def test_flood_gauge_counts_every_buffered_event(self):
        service = ReputationService(small_spec())
        for target in range(1, 5):
            service.apply(RatingEvent(rater=0, ratee=target, value=1.0))
        service.apply(InteractionEvent(source=3, target=4, count=0.5))
        service.apply(WatermarkEvent())
        share = service.metrics.as_dict()["serve.flood.top_rater_share"]["value"]
        assert share == 4 / 5


class TestRejection:
    @pytest.mark.parametrize(
        "event",
        [
            RatingEvent(rater=0, ratee=N_NODES, value=1.0),
            RatingEvent(rater=-1, ratee=2, value=1.0),
            RatingEvent(rater=0, ratee=1, value=1.0, interest=N_INTERESTS),
            RatingEvent(rater=0, ratee=1, value=1.0, interest=-1),
            InteractionEvent(source=N_NODES, target=0, count=0.5),
            InteractionEvent(source=1, target=-2),
        ],
        ids=repr,
    )
    def test_bad_event_raises_at_its_own_apply(self, event):
        service = ReputationService(small_spec())
        service.apply(RatingEvent(rater=3, ratee=4, value=1.0, interest=0))
        service.apply(InteractionEvent(source=5, target=6, count=1.5))
        sim = service._sim
        buffered, ledgers = buffer_columns(service), ledger_state(sim)
        applied = service.events_applied
        with pytest.raises(ValueError, match="out of range"):
            service.apply(event)
        assert buffer_columns(service) == buffered
        after = ledger_state(sim)
        for name in ledgers:
            assert np.array_equal(after[name], ledgers[name]), name
        assert service.events_applied == applied


class TestBoundedBuffer:
    def test_no_watermark_stream_stays_within_bound(self):
        service = ReputationService(small_spec(), interval_events=None)
        events = 2 * FLUSH_ROWS + 17
        for t in range(events):
            rater = t % N_NODES
            service.apply(
                RatingEvent(rater=rater, ratee=(rater + 1) % N_NODES, value=1.0)
            )
            assert pending(service) < FLUSH_ROWS
        assert service.intervals_run == 0
        assert pending(service) == events % FLUSH_ROWS
        assert service._sim.ledger.total_recorded == events - pending(service)


class TestSnapshotWithPendingEvents:
    def test_mid_interval_snapshot_resumes_bitwise(self, tmp_path):
        spec = small_spec()
        stream = mixed_stream(700, seed=2, churn_every=10_000)
        uninterrupted = ReputationService(spec)
        uninterrupted.serve_events(stream)

        split = 455
        assert not isinstance(stream[split - 1], WatermarkEvent)
        first = ReputationService(spec)
        first.serve_events(stream[:split])
        assert pending(first) > 0
        path = first.save_snapshot(tmp_path / "svc.ckpt")
        assert pending(first) == 0

        resumed = ReputationService.from_checkpoint(path)
        assert pending(resumed) == 0
        assert resumed.events_applied == first.events_applied
        resumed.serve_events(stream[split:])
        assert resumed.intervals_run == uninterrupted.intervals_run
        assert np.array_equal(resumed.history, uninterrupted.history)
        assert np.array_equal(resumed.reputations, uninterrupted.reputations)
        resumed.checkpoint()
        uninterrupted.checkpoint()
        assert_ledgers_equal(resumed._sim, uninterrupted._sim)

    def test_restore_discards_pending_events(self):
        spec = small_spec()
        source = ReputationService(spec)
        source.apply(RatingEvent(rater=0, ratee=1, value=1.0))
        state = source.checkpoint()
        target = ReputationService(spec)
        target.apply(RatingEvent(rater=2, ratee=3, value=1.0, count=4))
        assert pending(target) == 1
        target.restore(state)
        assert pending(target) == 0
        target.checkpoint()
        assert_ledgers_equal(target._sim, source._sim)
