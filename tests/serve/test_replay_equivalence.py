"""Batch-vs-streamed equivalence over the three checked-in golden scenarios.

The streaming contract: replaying a recorded batch run event-by-event
through a fresh :class:`~repro.serve.ReputationService` reproduces the
batch run's reputation vectors at every interval watermark —
bit-identically against the same process's batch history, and within
golden tolerance against the checked-in golden traces.  The recorded
streams themselves are pinned by fingerprint.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.qa import GOLDEN_SCENARIOS
from repro.qa.golden import load_trace
from repro.serve import (
    ChurnEvent,
    compare_histories,
    encode_event,
    record_scenario_events,
    replay_recorded,
    replay_report,
)

GOLDEN_DIR = Path(__file__).parent.parent / "golden"
GOLDEN_NAMES = sorted(GOLDEN_SCENARIOS)


def golden_spec(name):
    golden = GOLDEN_SCENARIOS[name]
    return ScenarioSpec.from_build(golden.build, seed=golden.seed), golden.cycles


@pytest.fixture(scope="module")
def recorded_streams():
    """Record each golden scenario once; several tests replay them."""
    streams = {}
    for name in GOLDEN_NAMES:
        spec, cycles = golden_spec(name)
        streams[name] = record_scenario_events(spec, cycles)
    return streams


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_stream_matches_batch_bitwise(name, recorded_streams):
    recorded = recorded_streams[name]
    service, report = replay_recorded(recorded)
    assert report.bitwise_equal, (
        f"{name}: streamed replay diverged from batch "
        f"(max abs diff {report.max_abs_diff})"
    )
    assert report.max_abs_diff == 0.0
    assert report.within()
    assert service.intervals_run == report.intervals


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_stream_matches_checked_in_golden(name, recorded_streams):
    """The streamed history agrees with the golden trace on disk."""
    service, _ = replay_recorded(recorded_streams[name])
    records = load_trace(GOLDEN_DIR / f"{name}.jsonl")
    cycles = [r for r in records if r.get("type") == "cycle"]
    assert len(cycles) == service.intervals_run
    golden_history = np.array(
        [r["reputations"] for r in cycles], dtype=np.float64
    )
    report = compare_histories(golden_history, service.history)
    assert report.within(), (
        f"{name}: streamed replay diverged from the checked-in golden "
        f"trace (max abs diff {report.max_abs_diff})"
    )


def test_replay_report_one_call():
    spec, _ = golden_spec("eigentrust_pcm")
    report = replay_report(spec, cycles=2)
    assert report.intervals == 2
    assert report.bitwise_equal


def test_recorded_stream_shape(recorded_streams):
    for name in GOLDEN_NAMES:
        recorded = recorded_streams[name]
        spec, cycles = golden_spec(name)
        assert recorded.batch_history.shape == (
            cycles,
            recorded.spec.world["n_nodes"],
        )
        # The recording spec is the requested spec, unchanged.
        assert recorded.spec == spec
        assert "engine" not in recorded.spec.world
        assert recorded.n_events == len(recorded.events)
        # One watermark per batch cycle.
        from repro.serve import WatermarkEvent

        watermarks = [e for e in recorded.events if isinstance(e, WatermarkEvent)]
        assert [w.cycle for w in watermarks] == list(range(cycles))


def test_compare_histories_shape_mismatch():
    with pytest.raises(ValueError, match="shapes differ"):
        compare_histories(np.zeros((2, 3)), np.zeros((3, 3)))


#: A small PCM world for the partition and churn streams.
SMALL_PCM = dict(
    system="EigenTrust+SocialTrust",
    collusion="pcm",
    n_nodes=16,
    n_pretrusted=2,
    n_colluders=4,
    n_interests=5,
    interests_per_node=(1, 3),
    capacity=8,
    simulation_cycles=6,
    query_cycles=3,
)

FAULTED_SPECS = {
    "partition": ScenarioSpec.from_build(
        dict(SMALL_PCM, chaos={"partitions": [{"start_cycle": 1, "heal_cycle": 3}]}),
        seed=3,
    ),
    "churn": ScenarioSpec.from_build(
        dict(
            SMALL_PCM,
            faults={
                "peer_leave_rate": 0.3,
                "peer_rejoin_rate": 0.5,
                "offline_decay": 0.5,
            },
        ),
        seed=3,
    ),
}

#: (events, first 16 hex digits of the stream's sha256) per recording.
STREAM_FINGERPRINTS = {
    "ebay_mcm": (1191, "35beb48bfbcd7085"),
    "eigentrust_pcm": (1331, "de555883b492322d"),
    "powertrust_mmm": (1241, "e3cc20b4cbebc8df"),
    "partition": (299, "07284542c1e268de"),
    "churn": (192, "af707c5a1a4bcdaf"),
}


def fingerprint(events):
    text = "\n".join(json.dumps(encode_event(e), sort_keys=True) for e in events)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(STREAM_FINGERPRINTS))
def test_recorded_stream_fingerprint(name, recorded_streams):
    if name in FAULTED_SPECS:
        recorded = record_scenario_events(FAULTED_SPECS[name])
    else:
        recorded = recorded_streams[name]
    assert (recorded.n_events, fingerprint(recorded.events)) == (
        STREAM_FINGERPRINTS[name]
    )
    if name == "churn":
        assert sum(isinstance(e, ChurnEvent) for e in recorded.events) == 6


@pytest.mark.parametrize("name", sorted(FAULTED_SPECS))
def test_faulted_stream_matches_batch_bitwise(name):
    _, report = replay_recorded(record_scenario_events(FAULTED_SPECS[name]))
    assert report.bitwise_equal


@pytest.mark.parametrize(
    "world",
    [
        {"chaos": {"partitions": [{"start_cycle": 1, "heal_cycle": 3}]}},
        {"faults": {"manager_crash_rate": 0.3}},
    ],
    ids=["chaos", "faults"],
)
def test_managed_fault_spec_rejected(world):
    """The service never advances the fault injector, so a spec whose
    manager layer reads injector state cannot replay its recording."""
    spec = ScenarioSpec.from_build(dict(SMALL_PCM, n_managers=3, **world), seed=3)
    with pytest.raises(ValueError, match="n_managers=3") as info:
        record_scenario_events(spec)
    assert next(iter(world)) in str(info.value)
