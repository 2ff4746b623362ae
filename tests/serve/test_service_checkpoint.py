"""Mid-stream service checkpoints: kill-and-resume bit-identity."""

from pathlib import Path

import numpy as np
import pytest

from repro.api import ScenarioSpec, build_scenario
from repro.chaos.checkpoint import load_checkpoint, resume_scenario, save_checkpoint
from repro.serve import (
    QueryRequest,
    RatingEvent,
    ReputationService,
    WatermarkEvent,
    record_scenario_events,
    replay_recorded,
)

DATA = Path(__file__).parent / "data"


def small_spec(**world):
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
            **world,
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

    def test_distributed_damped_pair_answers_detector_weight(self, tmp_path):
        # Resource managers (n_managers > 0) wrap the inner system in the
        # distributed SocialTrust; its pair probes must read the detector
        # like the centralised wrapper's, across a snapshot and restore.
        spec = small_spec(n_managers=3)
        scenario = build_scenario(spec)
        scenario.run()
        detection = scenario.simulation.system.last_detection
        damped = [
            (int(i), int(j), float(w))
            for (i, j), w in zip(detection.pairs, detection.pair_weights)
            if w < 1.0
        ]
        assert damped, "scenario must damp a colluding pair"

        service = ReputationService(spec)
        service.serve_events(record_scenario_events(spec).events)
        resumed = ReputationService.from_checkpoint(
            service.save_snapshot(tmp_path / "svc.ckpt")
        )
        restored = ReputationService(spec)
        restored.restore(service.checkpoint())
        for live in (service, resumed, restored):
            for rater, ratee, weight in damped:
                probe = QueryRequest(rater=rater, ratee=ratee)
                assert live.query(probe).value == weight

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


class TestOlderSnapshots:
    """Snapshots in the version-2 layout, where EigenTrust's local trust
    and the rating ledger's in-flight interval are dense ``n x n`` arrays.
    Both files were written by a version-2 build's ``save_snapshot`` after
    streaming the first events of ``record_scenario_events(small_spec())``:
    154 events (mid-interval) and 122 events (the line that closes the
    second interval)."""

    @pytest.mark.parametrize(
        "name, split", [("v2_mid_stream.ckpt", 154), ("v2_post_watermark.ckpt", 122)]
    )
    def test_version_2_snapshot_resumes_bit_identically(self, recorded, name, split):
        header, state = load_checkpoint(DATA / name)
        assert header["format_version"] == 2
        simulation = state["simulation"]
        assert simulation["system"]["inner"]["local"].shape == (20, 20)
        assert ("value_sum" in simulation["ledger"]) == (name == "v2_mid_stream.ckpt")

        live = ReputationService(recorded.spec)
        live.serve_events(recorded.events[:split])
        resumed = ReputationService.from_checkpoint(DATA / name)
        assert resumed.intervals_run == live.intervals_run
        assert np.array_equal(resumed.reputations, live.reputations)
        # The resumed service writes the keyed layout.
        inner = resumed.checkpoint()["simulation"]["system"]["inner"]
        assert "local" not in inner and inner["local_keys"].size

        uninterrupted, _ = replay_recorded(recorded)
        resumed.serve_events(recorded.events[split:])
        assert np.array_equal(resumed.history, uninterrupted.history)
        assert np.array_equal(resumed.reputations, uninterrupted.reputations)


def test_serve_sized_snapshot_holds_no_dense_local_trust(tmp_path):
    """At n=1000 EigenTrust takes its keyed kernel, and a post-watermark
    snapshot carries its local trust as keys and values, not ``n x n``."""
    n = 1000
    spec = ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=1,
        world=dict(n_nodes=n, n_pretrusted=20, n_colluders=40),
    )
    rng = np.random.default_rng(3)
    raters = rng.integers(0, n, 5000)
    ratees = (raters + rng.integers(1, n, 5000)) % n
    service = ReputationService(spec)
    service.serve_events(
        [RatingEvent(rater=int(i), ratee=int(j), value=1.0) for i, j in zip(raters, ratees)]
        + [WatermarkEvent()]
    )
    assert service.intervals_run == 1
    path = service.save_snapshot(tmp_path / "serve.ckpt")
    _, state = load_checkpoint(path)
    inner = state["simulation"]["system"]["inner"]
    assert "local" not in inner
    keys = inner["local_keys"]
    assert 0 < keys.size == np.unique(raters * n + ratees).size < n * n // 10
    assert "interval" not in state["simulation"]["ledger"]
