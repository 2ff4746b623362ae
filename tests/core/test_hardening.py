"""Tests for the frequency cap and recidivism escalation.

These two mechanisms close the gaps Eq. (9) leaves when a colluding
pair's coefficients *look* normal (distance-2 cliques, falsified
profiles): flagged pairs contribute at most a normal-frequency pair's
rating mass per interval, and repeat offenders are damped geometrically.
"""

import numpy as np
import pytest

from repro.core import SocialTrust, SocialTrustConfig
from repro.core.closeness import ClosenessComputer
from repro.core.detector import CollusionDetector
from repro.core.similarity import SimilarityComputer
from repro.reputation import EigenTrust
from repro.reputation.base import IntervalRatings, Rating
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles

N = 8


def make_detector(**config_kw):
    config = SocialTrustConfig(
        pos_frequency_threshold=10.0,
        neg_frequency_threshold=10.0,
        closeness_low=0.05,
        closeness_high=0.5,
        similarity_low=0.1,
        similarity_high=0.3,
        low_reputation_threshold=0.01,
        **config_kw,
    )
    g = SocialGraph(N)
    g.add_friendship(0, 1, [Relationship()] * 4)
    ledger = InteractionLedger(N)
    ledger.record(0, 1, 50.0)
    for i in range(N):
        for j in range(N):
            if i != j and (i, j) != (0, 1):
                ledger.record(i, j, 1.0)
    profiles = InterestProfiles(N, 6)
    profiles.set_declared(0, {0})
    profiles.set_declared(1, {1})
    for i in range(2, N):
        profiles.set_declared(i, {2, 3})
        profiles.record_request(i, 2, 2.0)
    return (
        CollusionDetector(
            ClosenessComputer(g, ledger, config),
            SimilarityComputer(profiles, config),
            config,
        ),
        config,
    )


def flood_interval(count=40):
    value_sum, pos_counts = np.zeros((N, N)), np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j:
                pos_counts[i, j] = 2
                value_sum[i, j] = 2
    pos_counts[0, 1] += count
    value_sum[0, 1] += count
    return IntervalRatings.from_dense(value_sum, pos_counts, np.zeros((N, N)))


def make_uniform_detector(**config_kw):
    """A world where the Gaussian is neutral: every pair has identical
    (zero) closeness, so only the frequency cap differentiates weights.
    B1 fires for any frequency-flagged pair via the explicit high T_cl."""
    config = SocialTrustConfig(
        pos_frequency_threshold=10.0,
        neg_frequency_threshold=10.0,
        closeness_low=0.5,
        closeness_high=0.9,
        low_reputation_threshold=0.01,
        use_similarity=False,
        **config_kw,
    )
    g = SocialGraph(N)  # no edges: closeness 0 everywhere
    ledger = InteractionLedger(N)
    profiles = InterestProfiles(N, 6)
    for i in range(N):
        profiles.set_declared(i, {0})
    return (
        CollusionDetector(
            ClosenessComputer(g, ledger, config),
            SimilarityComputer(profiles, config),
            config,
        ),
        config,
    )


class TestFrequencyCap:
    def test_cap_bounds_weight_by_frequency_ratio(self):
        detector, config = make_uniform_detector()
        iv = flood_interval(count=100)
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        # pos_counts[0, 1] = 102, threshold 10 -> cap <= 10/102; the
        # neutral Gaussian contributes weight 1.
        assert result.weights[0, 1] == pytest.approx(10.0 / 102.0)

    def test_cap_scales_with_excess(self):
        detector, _ = make_uniform_detector()
        mild = detector.analyze(
            flood_interval(count=20), np.zeros(N), np.empty(0, dtype=np.int64)
        )
        heavy = detector.analyze(
            flood_interval(count=200), np.zeros(N), np.empty(0, dtype=np.int64)
        )
        assert heavy.weights[0, 1] < mild.weights[0, 1]

    def test_cap_disabled(self):
        uncapped, _ = make_uniform_detector(cap_flagged_frequency=False)
        iv = flood_interval(count=200)
        w = uncapped.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64)).weights[
            0, 1
        ]
        # Without the cap the neutral Gaussian leaves the weight at ~1.
        assert w == pytest.approx(1.0)

    def test_unflagged_pairs_not_capped(self):
        detector, _ = make_uniform_detector()
        result = detector.analyze(
            flood_interval(), np.zeros(N), np.empty(0, dtype=np.int64)
        )
        assert result.weights[2, 3] == 1.0


class TestRecidivism:
    def test_flag_history_escalates(self):
        detector, _ = make_detector()
        iv = flood_interval()
        no_history = detector.analyze(
            iv, np.zeros(N), np.empty(0, dtype=np.int64)
        ).weights[0, 1]
        history = (np.array([0 * N + 1]), np.array([3]))
        with_history = detector.analyze(
            iv, np.zeros(N), np.empty(0, dtype=np.int64), history
        ).weights[0, 1]
        assert with_history == pytest.approx(no_history * 0.5**3)

    def test_decay_one_disables(self):
        detector, _ = make_detector(recidivism_decay=1.0)
        iv = flood_interval()
        history = (np.array([0 * N + 1]), np.array([5]))
        a = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64)).weights[0, 1]
        b = detector.analyze(
            iv, np.zeros(N), np.empty(0, dtype=np.int64), history
        ).weights[0, 1]
        assert a == pytest.approx(b)

    def test_config_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(recidivism_decay=0.0)
        with pytest.raises(ValueError):
            SocialTrustConfig(recidivism_decay=1.5)


class TestWrapperFlagTracking:
    def _build(self):
        from repro.social.generators import paper_social_network
        from repro.utils.rng import spawn_rng

        rng = spawn_rng(5, 0)
        network = paper_social_network(N, (0, 1), rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 6)
        profiles.set_declared(0, {0})
        profiles.set_declared(1, {1})
        for i in range(2, N):
            profiles.set_declared(i, {2, 3})
            profiles.record_request(i, 2, 2.0)
        st = SocialTrust(EigenTrust(N, [2]), network, interactions, profiles)
        return st, interactions

    def _interval(self, interactions):
        iv = IntervalRatings(N)
        for i in range(N):
            for step in (1, 2, 3):
                j = (i + step) % N
                iv.add(Rating(i, j, 1.0))
                interactions.record(i, j)
        for _ in range(50):
            iv.add(Rating(0, 1, 1.0))
            iv.add(Rating(1, 0, 1.0))
        interactions.record(0, 1, 50)
        interactions.record(1, 0, 50)
        return iv

    def test_flag_counts_accumulate(self):
        st, interactions = self._build()
        for expected in (1, 2, 3):
            st.update(self._interval(interactions))
            assert st.flag_counts[0, 1] == expected

    def test_repeat_offender_weight_shrinks(self):
        st, interactions = self._build()
        weights = []
        for _ in range(4):
            st.update(self._interval(interactions))
            weights.append(st.last_detection.weights[0, 1])
        assert weights[-1] < weights[0]

    def test_reset_clears_flags(self):
        st, interactions = self._build()
        st.update(self._interval(interactions))
        st.reset()
        assert st.flag_counts.sum() == 0

    def test_flag_counts_read_only(self):
        st, _ = self._build()
        with pytest.raises(ValueError):
            st.flag_counts[0, 1] = 7
