"""Tests for the collusion detector (B1-B4 trigger logic + damping)."""

import numpy as np
import pytest

from repro.core.closeness import ClosenessComputer
from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.detector import CollusionDetector, SuspicionReason
from repro.core.similarity import SimilarityComputer
from repro.reputation.base import IntervalRatings
from repro.social.graph import SocialGraph, Relationship
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles

N = 8


def build_detector(config=None, *, colluder_pair=(0, 1)):
    """A small world: the colluder pair is adjacent with several ties and a
    dominating interaction share; everyone else interacts lightly."""
    config = config or SocialTrustConfig(
        pos_frequency_threshold=10.0,
        neg_frequency_threshold=10.0,
        closeness_low=0.05,
        closeness_high=0.5,
        similarity_low=0.1,
        similarity_high=0.3,
        low_reputation_threshold=0.01,
    )
    g = SocialGraph(N)
    a, b = colluder_pair
    g.add_friendship(a, b, [Relationship()] * 4)
    for i in range(N):
        for j in range(i + 1, N):
            if (i, j) != (a, b) and (i + j) % 2 == 0:
                g.add_friendship(i, j)
    ledger = InteractionLedger(N)
    ledger.record(a, b, 50.0)
    ledger.record(b, a, 50.0)
    for i in range(N):
        for j in range(N):
            if i != j and (i, j) != (a, b) and (j, i) != (a, b):
                ledger.record(i, j, 1.0)
    profiles = InterestProfiles(N, 6)
    profiles.set_declared(a, {0})
    profiles.set_declared(b, {1})
    for i in range(N):
        if i not in (a, b):
            profiles.set_declared(i, {2, 3})
            profiles.record_request(i, 2, 3.0)
            profiles.record_request(i, 3, 1.0)
    profiles.record_request(a, 0, 4.0)
    profiles.record_request(b, 1, 4.0)
    closeness = ClosenessComputer(g, ledger, config)
    similarity = SimilarityComputer(profiles, config)
    return CollusionDetector(closeness, similarity, config), config


def interval_with(pairs, n=N):
    value_sum, pos_counts, neg_counts = (np.zeros((n, n)) for _ in range(3))
    for (i, j, value, count) in pairs:
        if value >= 0:
            pos_counts[i, j] += count
        else:
            neg_counts[i, j] += count
        value_sum[i, j] += value * count
    return IntervalRatings.from_dense(value_sum, pos_counts, neg_counts)


def background_ratings():
    """Light genuine rating activity so bands are well defined."""
    out = []
    for i in range(N):
        for j in range(N):
            if i != j:
                out.append((i, j, 1.0, 2))
    return out


class TestFrequencyGate:
    def test_no_flag_below_threshold(self):
        detector, _ = build_detector()
        iv = interval_with(background_ratings())
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert result.n_adjusted == 0
        assert np.all(result.weights == 1.0)

    def test_flag_above_threshold(self):
        detector, _ = build_detector()
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        pairs = {(f.rater, f.ratee) for f in result.findings}
        assert (0, 1) in pairs

    def test_derived_threshold_from_theta(self):
        cfg = SocialTrustConfig(theta=3.0)
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings())
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        # Mean positive frequency is 2 -> threshold 6.
        assert result.thresholds.pos_frequency == pytest.approx(6.0)

    def test_empty_interval_all_ones(self):
        detector, _ = build_detector()
        result = detector.analyze(
            IntervalRatings(N), np.zeros(N), np.empty(0, dtype=np.int64)
        )
        assert np.all(result.weights == 1.0)
        assert result.findings == ()


class TestBehaviourReasons:
    def _analyze(self, extra, reputations=None):
        detector, _ = build_detector()
        iv = interval_with(background_ratings() + extra)
        reps = reputations if reputations is not None else np.zeros(N)
        return detector.analyze(iv, reps, np.empty(0, dtype=np.int64))

    def test_b2_high_closeness_low_reputed_ratee(self):
        result = self._analyze([(0, 1, 1.0, 40)])
        finding = next(f for f in result.findings if (f.rater, f.ratee) == (0, 1))
        assert finding.reasons & SuspicionReason.B2

    def test_b3_low_similarity(self):
        result = self._analyze([(0, 1, 1.0, 40)])
        finding = next(f for f in result.findings if (f.rater, f.ratee) == (0, 1))
        assert finding.reasons & SuspicionReason.B3

    def test_b2_not_triggered_for_reputable_ratee(self):
        reps = np.zeros(N)
        reps[1] = 0.5
        result = self._analyze([(0, 1, 1.0, 40)], reputations=reps)
        finding = next(f for f in result.findings if (f.rater, f.ratee) == (0, 1))
        assert not (finding.reasons & SuspicionReason.B2)
        assert finding.reasons & SuspicionReason.B3  # still dissimilar

    def test_b1_low_closeness_strangers(self):
        # 2 and 5 are not adjacent and share modest interactions -> low
        # closeness; flood positive ratings.
        result = self._analyze([(2, 5, 1.0, 40)])
        findings = {(f.rater, f.ratee): f for f in result.findings}
        if (2, 5) in findings:
            assert findings[(2, 5)].reasons & (
                SuspicionReason.B1 | SuspicionReason.B3
            )

    def test_b4_negative_flood_at_high_similarity(self):
        # 2 and 3 share declared interests and behaviour -> high similarity.
        result = self._analyze([(2, 3, -1.0, 40)])
        finding = next(f for f in result.findings if (f.rater, f.ratee) == (2, 3))
        assert finding.reasons & SuspicionReason.B4

    def test_normal_negative_rating_not_flagged(self):
        result = self._analyze([(2, 3, -1.0, 3)])
        assert (2, 3) not in {(f.rater, f.ratee) for f in result.findings}


class TestDamping:
    def test_flagged_pair_weight_below_one(self):
        detector, _ = build_detector()
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert result.weights[0, 1] < 1.0

    def test_unflagged_pairs_untouched(self):
        detector, _ = build_detector()
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        flagged = {(f.rater, f.ratee) for f in result.findings}
        for i in range(N):
            for j in range(N):
                if (i, j) not in flagged:
                    assert result.weights[i, j] == 1.0

    def test_colluder_pair_damped_strongly(self):
        """The outlier pair deviates far from the rater's leave-one-out band.

        In this tiny graph the partner still leaks into the band through
        common-friend paths, so a single interval only halves the weight;
        the integration tests cover the cumulative end-to-end collapse.
        """
        detector, _ = build_detector()
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40), (1, 0, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert result.weights[0, 1] < 0.5

    def test_weights_in_unit_interval(self):
        detector, _ = build_detector()
        iv = interval_with(
            background_ratings() + [(0, 1, 1.0, 40), (2, 3, -1.0, 40)]
        )
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert np.all(result.weights > 0.0)
        assert np.all(result.weights <= 1.0)

    def test_alpha_caps_weights(self):
        cfg = SocialTrustConfig(
            alpha=0.5,
            pos_frequency_threshold=10.0,
            closeness_low=0.05,
            closeness_high=0.5,
            similarity_low=0.1,
            similarity_high=0.8,
            low_reputation_threshold=0.01,
        )
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert result.weights[0, 1] <= 0.5


class TestAblations:
    def test_closeness_only_skips_b3_b4(self):
        cfg = SocialTrustConfig(
            use_similarity=False,
            pos_frequency_threshold=10.0,
            neg_frequency_threshold=10.0,
            closeness_low=0.05,
            closeness_high=0.5,
            low_reputation_threshold=0.01,
        )
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings() + [(2, 3, -1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert not any(f.reasons & SuspicionReason.B4 for f in result.findings)

    def test_similarity_only_skips_b1_b2(self):
        cfg = SocialTrustConfig(
            use_closeness=False,
            pos_frequency_threshold=10.0,
            neg_frequency_threshold=10.0,
            similarity_low=0.1,
            similarity_high=0.8,
            low_reputation_threshold=0.01,
        )
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        for f in result.findings:
            assert not (f.reasons & (SuspicionReason.B1 | SuspicionReason.B2))


class TestCentering:
    def test_global_center_mode(self):
        cfg = SocialTrustConfig(
            center=GaussianCenter.GLOBAL,
            pos_frequency_threshold=10.0,
            closeness_low=0.05,
            closeness_high=0.5,
            similarity_low=0.1,
            similarity_high=0.8,
            low_reputation_threshold=0.01,
        )
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        assert result.weights[0, 1] < 1.0

    def test_derived_percentile_band_thresholds(self):
        cfg = SocialTrustConfig(pos_frequency_threshold=10.0)
        detector, _ = build_detector(cfg)
        iv = interval_with(background_ratings() + [(0, 1, 1.0, 40)])
        result = detector.analyze(iv, np.zeros(N), np.empty(0, dtype=np.int64))
        t = result.thresholds
        assert t.closeness_low <= t.closeness_high
        assert t.similarity_low <= t.similarity_high


class TestMismatch:
    def test_computer_size_mismatch(self):
        detector, cfg = build_detector()
        profiles = InterestProfiles(N + 1, 6)
        for i in range(N + 1):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            CollusionDetector(
                detector._closeness,  # noqa: SLF001
                SimilarityComputer(profiles, cfg),
                cfg,
            )


class TestPairKeyedInputs:
    def test_ledger_keys_and_count_scan_give_the_same_result(self):
        """An interval drained from the ledger's batched writes and the
        same counts written as dense cells (``from_dense``) are keyed
        alike and analysed bit for bit alike."""
        from repro.reputation.ledger import RatingLedger

        rows = background_ratings() + [(0, 1, 1.0, 40), (1, 0, 1.0, 40), (3, 5, -1.0, 30)]
        ledger = RatingLedger(N)
        i, j, v, c = np.array(rows, dtype=np.float64).T
        ledger.record_many(i.astype(np.int64), j.astype(np.int64), v, c)
        keyed = ledger.drain()
        scanned = interval_with(rows)
        assert np.array_equal(keyed.pair_keys(), scanned.pair_keys())
        reputations = np.full(N, 1.0 / N)
        rated = np.array([0 * N + 6, 2 * N + 4])
        flags = (np.array([0 * N + 1]), np.array([2]))
        results = []
        for interval in (keyed, scanned):
            det, _ = build_detector()
            results.append(det.analyze(interval, reputations, rated, flags))
        got, want = results
        assert want.findings
        assert got.findings == want.findings
        assert np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.pair_weights, want.pair_weights)
        assert got.thresholds == want.thresholds
