"""Cross-module property-based tests on the system's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SocialTrustConfig
from repro.core.closeness import ClosenessComputer
from repro.core.detector import CollusionDetector
from repro.core.similarity import SimilarityComputer
from repro.reputation import EBayModel, EigenTrust, PowerTrust
from repro.reputation.base import IntervalRatings
from repro.social.graph import SocialGraph
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import spawn_rng

N = 7

ratings_strategy = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.sampled_from([-1.0, 1.0]),
        st.integers(1, 30),
    ),
    max_size=25,
)


def build_interval(entries):
    value_sum, pos_counts, neg_counts = (np.zeros((N, N)) for _ in range(3))
    for i, j, value, count in entries:
        if i == j:
            continue
        value_sum[i, j] += value * count
        if value >= 0:
            pos_counts[i, j] += count
        else:
            neg_counts[i, j] += count
    return IntervalRatings.from_dense(value_sum, pos_counts, neg_counts)


def build_world(seed=0):
    rng = spawn_rng(seed, 0)
    g = SocialGraph(N)
    for i in range(N):
        for j in range(i + 1, N):
            if rng.random() < 0.4:
                g.add_friendship(i, j)
    ledger = InteractionLedger(N)
    for i in range(N):
        for j in range(N):
            if i != j and rng.random() < 0.6:
                ledger.record(i, j, float(rng.integers(1, 5)))
    profiles = InterestProfiles(N, 5)
    for i in range(N):
        k = int(rng.integers(1, 4))
        profiles.set_declared(i, (int(v) for v in rng.choice(5, k, replace=False)))
        profiles.record_request(i, int(rng.integers(0, 5)))
    return g, ledger, profiles


class TestDetectorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(entries=ratings_strategy)
    def test_weights_always_in_unit_interval(self, entries):
        g, ledger, profiles = build_world()
        config = SocialTrustConfig()
        detector = CollusionDetector(
            ClosenessComputer(g, ledger, config),
            SimilarityComputer(profiles, config),
            config,
        )
        iv = build_interval(entries)
        result = detector.analyze(
            iv, np.full(N, 1.0 / N), np.empty(0, dtype=np.int64)
        )
        assert np.all(result.weights > 0.0)
        assert np.all(result.weights <= 1.0)

    @settings(max_examples=40, deadline=None)
    @given(entries=ratings_strategy)
    def test_adjustment_never_amplifies(self, entries):
        """Scaling by detection weights can only shrink rating magnitudes."""
        g, ledger, profiles = build_world()
        config = SocialTrustConfig()
        detector = CollusionDetector(
            ClosenessComputer(g, ledger, config),
            SimilarityComputer(profiles, config),
            config,
        )
        iv = build_interval(entries)
        result = detector.analyze(
            iv, np.full(N, 1.0 / N), np.empty(0, dtype=np.int64)
        )
        adjusted = iv.scaled(result.weights)
        assert np.all(np.abs(adjusted.value_sum) <= np.abs(iv.value_sum) + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(entries=ratings_strategy)
    def test_findings_match_nontrivial_weights(self, entries):
        g, ledger, profiles = build_world()
        config = SocialTrustConfig()
        detector = CollusionDetector(
            ClosenessComputer(g, ledger, config),
            SimilarityComputer(profiles, config),
            config,
        )
        iv = build_interval(entries)
        result = detector.analyze(
            iv, np.full(N, 1.0 / N), np.empty(0, dtype=np.int64)
        )
        flagged = {(f.rater, f.ratee) for f in result.findings}
        off = np.argwhere(result.weights < 1.0)
        assert {(int(i), int(j)) for i, j in off} <= flagged


class TestReputationInvariants:
    @settings(max_examples=30, deadline=None)
    @given(entries=ratings_strategy)
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: EigenTrust(N, [0], pretrust_weight=0.1),
            lambda: EBayModel(N),
            lambda: EBayModel(N, cycle_aggregation="node_sign"),
            lambda: PowerTrust(N, n_power_nodes=2),
        ],
    )
    def test_reputations_are_distributions(self, factory, entries):
        system = factory()
        system.update(build_interval(entries))
        reps = system.reputations
        assert np.all(reps >= 0)
        assert reps.sum() == pytest.approx(1.0) or reps.sum() == 0.0

    @settings(max_examples=20, deadline=None)
    @given(entries=ratings_strategy)
    def test_update_order_independent_for_ebay_totals(self, entries):
        """eBay per-rater counted ratings are interval-local, so splitting
        an interval in two never *increases* a node's weekly gain."""
        whole = EBayModel(N)
        whole.update(build_interval(entries))
        split = EBayModel(N)
        split.update(build_interval(entries))
        split.update(IntervalRatings(N))
        assert np.allclose(whole.raw_scores, split.raw_scores)
