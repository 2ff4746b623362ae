"""Mid-stream service checkpoints: kill-and-resume bit-identity."""

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.chaos.checkpoint import resume_scenario, save_checkpoint
from repro.serve import (
    QueryRequest,
    ReputationService,
    record_scenario_events,
    replay_recorded,
)


def small_spec():
    return ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=11,
        world=dict(
            n_nodes=20,
            n_pretrusted=2,
            n_colluders=4,
            n_interests=6,
            interests_per_node=[1, 3],
            capacity=10,
            query_cycles=3,
            simulation_cycles=4,
        ),
    )


@pytest.fixture(scope="module")
def recorded():
    return record_scenario_events(small_spec())


class TestKillAndResume:
    def test_mid_stream_resume_is_bit_identical(self, recorded, tmp_path):
        # Reference: one uninterrupted replay.
        uninterrupted, report = replay_recorded(recorded)
        assert report.bitwise_equal

        # Interrupted: stream to an arbitrary mid-interval split point,
        # snapshot, "crash", resume in a fresh service, stream the rest.
        split = recorded.n_events * 2 // 3
        first = ReputationService(recorded.spec)
        first.serve_events(recorded.events[:split])
        path = first.save_snapshot(tmp_path / "svc.ckpt")

        resumed = ReputationService.from_checkpoint(path)
        assert resumed.events_applied == first.events_applied
        assert resumed.intervals_run == first.intervals_run
        assert np.array_equal(resumed.reputations, first.reputations)

        resumed.serve_events(recorded.events[split:])
        assert np.array_equal(resumed.history, uninterrupted.history)
        assert np.array_equal(resumed.reputations, uninterrupted.reputations)
        assert resumed.events_applied == uninterrupted.events_applied

    def test_snapshot_preserves_query_answers(self, recorded, tmp_path):
        service = ReputationService(recorded.spec)
        service.serve_events(recorded.events[: recorded.n_events // 2])
        path = service.save_snapshot(tmp_path / "svc.ckpt")
        resumed = ReputationService.from_checkpoint(path)
        for request in (QueryRequest(node=0), QueryRequest(rater=0, ratee=1)):
            assert resumed.query(request).value == service.query(request).value

    def test_snapshot_keeps_damped_pair_weights(self, recorded, tmp_path):
        # The last detection is checkpointed: a damped colluding pair must
        # not read as undamped (1.0) between a restore and the next
        # watermark.
        service = ReputationService(recorded.spec)
        service.serve_events(recorded.events)
        n = service.n_nodes
        probes = [
            QueryRequest(rater=i, ratee=j)
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        before = [service.query(probe).value for probe in probes]
        assert min(before) < 1.0, "scenario must damp a colluding pair"
        path = service.save_snapshot(tmp_path / "svc.ckpt")
        resumed = ReputationService.from_checkpoint(path)
        assert [resumed.query(probe).value for probe in probes] == before

    def test_auto_snapshot_every_watermark(self, recorded, tmp_path):
        path = tmp_path / "auto.ckpt"
        service = ReputationService(
            recorded.spec, snapshot_path=path, snapshot_every=2
        )
        service.serve_events(recorded.events)
        assert path.exists()
        resumed = ReputationService.from_checkpoint(path)
        # The last auto-snapshot landed on the final even watermark.
        assert resumed.intervals_run == (service.intervals_run // 2) * 2
        assert np.array_equal(
            resumed.history, service.history[: resumed.intervals_run]
        )


class TestCheckpointRouting:
    def test_in_memory_restore_round_trip(self, recorded):
        service = ReputationService(recorded.spec)
        service.serve_events(recorded.events[: recorded.n_events // 2])
        state = service.checkpoint()

        other = ReputationService(recorded.spec)
        other.restore(state)
        assert np.array_equal(other.reputations, service.reputations)
        assert other.events_applied == service.events_applied

    def test_from_checkpoint_rejects_simulation_kind(self, tmp_path):
        from repro.api import build_scenario

        spec = small_spec()
        scenario = build_scenario(spec)
        scenario.world.simulation.run_simulation_cycle()
        path = save_checkpoint(
            scenario.world.simulation,
            tmp_path / "sim.ckpt",
            build=spec.build_kwargs(),
            seed=spec.seed,
        )
        with pytest.raises(ValueError, match="not a service checkpoint"):
            ReputationService.from_checkpoint(path)

    def test_resume_scenario_rejects_service_kind(self, recorded, tmp_path):
        service = ReputationService(recorded.spec)
        service.serve_events(recorded.events[:10])
        path = service.save_snapshot(tmp_path / "svc.ckpt")
        with pytest.raises(ValueError, match="not a batch-simulation"):
            resume_scenario(path)

    def test_save_snapshot_needs_a_path(self, recorded):
        with pytest.raises(ValueError, match="snapshot path"):
            ReputationService(recorded.spec).save_snapshot()
