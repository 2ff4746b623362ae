"""The detector's audit log: one event per frequency-flagged pair.

Every event must tell the operator the same story the detection result
does — which pairs were examined, which thresholds fired, which
behaviour classes matched, and what weight was applied — whichever
coefficient computer (dense or sparse) feeds the kernel.
"""

import numpy as np
import pytest

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import CollusionDetector
from repro.core.similarity import SimilarityComputer
from repro.core.sparse import SparseClosenessComputer, SparseSimilarityComputer
from repro.obs import Observability
from repro.reputation.base import IntervalRatings
from repro.social.generators import paper_social_network
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import spawn_rng

N = 16
N_INTERESTS = 6


def make_world(seed=11):
    rng = spawn_rng(seed, 0)
    network = paper_social_network(N, (1, 2, 3), rng)
    ledger = InteractionLedger(N)
    profiles = InterestProfiles(N, N_INTERESTS)
    for node in range(N):
        k = int(rng.integers(1, 4))
        profiles.set_declared(
            node, [int(v) for v in rng.choice(N_INTERESTS, size=k, replace=False)]
        )
    for _ in range(3 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            ledger.record(i, j, float(rng.integers(1, 4)))
            profiles.record_request(i, int(rng.integers(0, N_INTERESTS)))
    return network, ledger, profiles, rng


def make_interval(rng):
    interval = IntervalRatings(N)
    for _ in range(4 * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            interval.pos_counts[i, j] += 1
            interval.value_sum[i, j] += 1.0
    interval.pos_counts[0, 1] += 12
    interval.value_sum[0, 1] += 12.0
    interval.neg_counts[2, 3] += 9
    interval.value_sum[2, 3] -= 9.0
    for j in range(4, 8):  # organic negatives anchor the median for T-
        interval.neg_counts[2, j] += 1
        interval.value_sum[2, j] -= 1.0
    return interval


def run_detector(backend):
    """One analysed interval: (observability, result, interval, inputs)."""
    network, ledger, profiles, rng = make_world()
    interval = make_interval(rng)
    reputations = np.full(N, 1.0 / N)
    reputations[3] = 0.0  # one low-reputed ratee, so TR fires somewhere
    rated = interval.counts > 0
    flag_counts = np.zeros((N, N))
    flag_counts[0, 1] = 2.0
    cfg = SocialTrustConfig(coefficient_backend=backend)
    if backend == "dense":
        closeness = ClosenessComputer(network, ledger, cfg)
        similarity = SimilarityComputer(profiles, cfg)
    else:
        closeness = SparseClosenessComputer(network, ledger, cfg)
        similarity = SparseSimilarityComputer(profiles, cfg)
    obs = Observability(tracing=False)
    detector = CollusionDetector(closeness, similarity, cfg, observability=obs)
    result = detector.analyze(interval, reputations, rated, flag_counts)
    return obs, result, interval, reputations, closeness, similarity


def audit_by_pair(obs):
    events = {}
    for event in obs.audit.to_events():
        assert event["type"] == "audit"
        events[(event["rater"], event["ratee"])] = event
    return events


BACKENDS = ("dense", "sparse")


class TestAuditEmitter:
    def test_same_examined_pair_set(self):
        for backend in BACKENDS:
            obs, result, interval, *_ = run_detector(backend)
            t = result.thresholds
            flagged = (interval.pos_counts > t.pos_frequency) | (
                interval.neg_counts > t.neg_frequency
            )
            np.fill_diagonal(flagged, False)
            events = audit_by_pair(obs)
            assert events, "scenario must flag pairs"
            assert set(events) == {
                (int(i), int(j)) for i, j in np.argwhere(flagged)
            }, backend

    def test_events_agree_field_by_field(self):
        for backend in BACKENDS:
            obs, result, interval, reputations, closeness, similarity = (
                run_detector(backend)
            )
            t = result.thresholds
            findings = {(f.rater, f.ratee): f for f in result.findings}
            omega_c = closeness.closeness_matrix()
            omega_s = similarity.similarity_matrix()
            damped = 0
            fired_seen = set()
            for (i, j), event in audit_by_pair(obs).items():
                want_fired = [
                    name
                    for name, hit in (
                        ("T+", interval.pos_counts[i, j] > t.pos_frequency),
                        ("T-", interval.neg_counts[i, j] > t.neg_frequency),
                        ("TR", reputations[j] < t.low_reputation),
                        ("Tcl", omega_c[i, j] < t.closeness_low),
                        ("Tch", omega_c[i, j] > t.closeness_high),
                        ("Tsl", omega_s[i, j] < t.similarity_low),
                        ("Tsh", omega_s[i, j] > t.similarity_high),
                    )
                    if hit
                ]
                assert event["fired"] == want_fired, (backend, i, j)
                fired_seen.update(want_fired)
                assert event["pos_count"] == interval.pos_counts[i, j]
                assert event["neg_count"] == interval.neg_counts[i, j]
                assert event["closeness"] == pytest.approx(omega_c[i, j], abs=1e-12)
                assert event["similarity"] == pytest.approx(
                    omega_s[i, j], abs=1e-12
                )
                assert event["thresholds"] == pytest.approx(t.as_dict())
                finding = findings.get((i, j))
                if finding is None:
                    assert event["decision"] == "accepted"
                    assert event["behaviors"] == []
                    assert event["weight"] == 1.0
                    continue
                damped += 1
                assert event["decision"] == "damped"
                assert event["behaviors"] == [
                    flag.name
                    for flag in type(finding.reasons)
                    if flag in finding.reasons
                ]
                assert event["weight"] == finding.weight
                assert event["closeness"] == finding.closeness
            assert damped == result.n_adjusted > 0, backend
            assert {"T+", "T-", "TR"} <= fired_seen, backend

    def test_metrics_counters_agree(self):
        for backend in BACKENDS:
            obs, result, *_ = run_detector(backend)
            events = audit_by_pair(obs)
            assert obs.metrics["detector.pairs_examined"].value == len(events)
            assert obs.metrics["detector.pairs_damped"].value == result.n_adjusted
            assert obs.metrics["detector.intervals"].value == 1
