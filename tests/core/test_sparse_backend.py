"""Sparse coefficient core vs the dense seed path.

The sparse backend (:mod:`repro.core.sparse`) must agree with the dense
computers everywhere both are defined: full-matrix values, sampled pair
values, band summaries, and the detector's end-to-end damping weights.
Exact mode (``sparse_top_k=None``) has no approximation — only float
summation order differs — so the tolerance here is tight.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import CollusionDetector, DetectionResult
from repro.core.similarity import SimilarityComputer
from repro.core.sparse import (
    SparseClosenessComputer,
    SparseSimilarityComputer,
    embed_rows,
)
from repro.reputation.base import IntervalRatings
from repro.social.generators import paper_social_network
from repro.social.interactions import InteractionLedger, SparseInteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import spawn_rng

from scipy import sparse

N = 16
N_INTERESTS = 6

CONFIG_VARIANTS = [
    SocialTrustConfig(coefficient_backend="sparse"),
    SocialTrustConfig(
        coefficient_backend="sparse", hardened=False, common_friend_aggregate="sum"
    ),
    SocialTrustConfig(coefficient_backend="sparse", center="global"),
]


def make_world(seed=0, *, sparse_ledger=False):
    rng = spawn_rng(seed, 0)
    network = paper_social_network(N, (1, 2, 3), rng)
    ledger = SparseInteractionLedger(N) if sparse_ledger else InteractionLedger(N)
    profiles = InterestProfiles(N, N_INTERESTS)
    for node in range(N):
        k = int(rng.integers(1, 4))
        profiles.set_declared(
            node, [int(v) for v in rng.choice(N_INTERESTS, size=k, replace=False)]
        )
    return network, ledger, profiles, rng


def seed_traffic(ledger, profiles, rng, rounds=3):
    for _ in range(rounds * N):
        i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
        if i != j:
            ledger.record(i, j, float(rng.integers(1, 4)))
            profiles.record_request(i, int(rng.integers(0, N_INTERESTS)))


def dense_config(cfg: SocialTrustConfig) -> SocialTrustConfig:
    d = cfg.to_dict()
    d["coefficient_backend"] = "dense"
    return SocialTrustConfig(**d)


class TestClosenessEquivalence:
    @pytest.mark.parametrize("cfg", CONFIG_VARIANTS)
    def test_matrix_matches_dense(self, cfg):
        network, ledger, profiles, rng = make_world(3)
        seed_traffic(ledger, profiles, rng)
        got = SparseClosenessComputer(network, ledger, cfg).closeness_matrix()
        want = ClosenessComputer(network, ledger, dense_config(cfg)).closeness_matrix()
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)

    def test_pair_values_match_matrix(self):
        network, ledger, profiles, rng = make_world(4)
        seed_traffic(ledger, profiles, rng)
        sc = SparseClosenessComputer(network, ledger, CONFIG_VARIANTS[0])
        matrix = sc.closeness_matrix()
        raters = np.repeat(np.arange(N), N)
        ratees = np.tile(np.arange(N), N)
        got = sc.pair_values(raters, ratees).reshape(N, N)
        np.testing.assert_allclose(got, matrix, atol=1e-12, rtol=0.0)

    def test_scalar_accessors_match_dense(self):
        network, ledger, profiles, rng = make_world(5)
        seed_traffic(ledger, profiles, rng)
        cfg = CONFIG_VARIANTS[0]
        sc = SparseClosenessComputer(network, ledger, cfg)
        dc = ClosenessComputer(network, ledger, dense_config(cfg))
        for i in range(0, N, 3):
            for j in range(N):
                if i != j:
                    assert sc.closeness(i, j) == pytest.approx(
                        dc.closeness(i, j), abs=1e-12
                    )

    def test_bands_match_dense(self):
        network, ledger, profiles, rng = make_world(6)
        seed_traffic(ledger, profiles, rng)
        cfg = CONFIG_VARIANTS[0]
        sc = SparseClosenessComputer(network, ledger, cfg)
        dc = ClosenessComputer(network, ledger, dense_config(cfg))
        rated = frozenset(range(1, 9))
        sb, db = sc.rater_band(0, rated), dc.rater_band(0, rated)
        assert sb.center == pytest.approx(db.center, abs=1e-12)
        assert sb.spread == pytest.approx(db.spread, abs=1e-12)
        pairs = [(0, 1), (2, 3), (1, 4)]
        sg, dg = sc.global_band(pairs), dc.global_band(pairs)
        assert sg.center == pytest.approx(dg.center, abs=1e-12)
        assert sg.spread == pytest.approx(dg.spread, abs=1e-12)


class TestSimilarityEquivalence:
    @pytest.mark.parametrize("hardened", [False, True])
    def test_matrix_matches_dense(self, hardened):
        network, ledger, profiles, rng = make_world(7)
        seed_traffic(ledger, profiles, rng)
        cfg = SocialTrustConfig(coefficient_backend="sparse", hardened=hardened)
        got = SparseSimilarityComputer(profiles, cfg).similarity_matrix()
        want = SimilarityComputer(profiles, dense_config(cfg)).similarity_matrix()
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0.0)

    def test_pair_values_match_matrix(self):
        network, ledger, profiles, rng = make_world(8)
        seed_traffic(ledger, profiles, rng)
        cfg = SocialTrustConfig(coefficient_backend="sparse")
        sc = SparseSimilarityComputer(profiles, cfg)
        matrix = sc.similarity_matrix()
        raters = np.repeat(np.arange(N), N)
        ratees = np.tile(np.arange(N), N)
        got = sc.pair_values(raters, ratees).reshape(N, N)
        np.testing.assert_allclose(got, matrix, atol=1e-12, rtol=0.0)


class TestIncrementalSparseCache:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 40), steps=st.integers(1, 8))
    def test_churn_matches_fresh_and_dense(self, seed, steps):
        network, ledger, profiles, rng = make_world(seed, sparse_ledger=True)
        dense_ledger = InteractionLedger(N)
        cfg = SocialTrustConfig(
            coefficient_backend="sparse", cache_rebuild_interval=3
        )
        cached = SparseClosenessComputer(network, ledger, cfg)
        cached.closeness_matrix()  # prime the incremental path
        for step in range(steps):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
                if i == j:
                    continue
                ledger.record(i, j, 2.0)
                dense_ledger.record(i, j, 2.0)
            elif kind == 1:
                nodes = np.unique(rng.integers(0, N, size=3))
                ledger.decay_nodes(nodes, 0.5)
                dense_ledger.decay_nodes(nodes, 0.5)
            else:
                raters = rng.integers(0, N, size=2 * N)
                ratees = rng.integers(0, N, size=2 * N)
                keep = raters != ratees
                ledger.record_many(raters[keep], ratees[keep])
                dense_ledger.record_many(raters[keep], ratees[keep])
            got = np.asarray(cached.closeness_matrix())
            fresh = np.asarray(
                SparseClosenessComputer(network, ledger, cfg).closeness_matrix()
            )
            np.testing.assert_allclose(got, fresh, atol=1e-9, rtol=1e-9)
            want = ClosenessComputer(
                network, dense_ledger, dense_config(cfg)
            ).closeness_matrix()
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)

    def test_periodic_exact_rebuild_resets_drift_counter(self):
        network, ledger, profiles, rng = make_world(9, sparse_ledger=True)
        cfg = SocialTrustConfig(
            coefficient_backend="sparse", cache_rebuild_interval=2
        )
        sc = SparseClosenessComputer(network, ledger, cfg)
        seed_traffic(ledger, profiles, rng, rounds=1)
        sc.closeness_matrix()
        assert sc._t2_updates == 0  # full build
        ledger.record(0, 1, 1.0)
        sc.closeness_matrix()
        assert sc._t2_updates == 1  # one low-rank correction
        ledger.record(1, 2, 1.0)
        sc.closeness_matrix()
        ledger.record(2, 3, 1.0)
        sc.closeness_matrix()  # interval reached → exact rebuild
        assert sc._t2_updates == 0


class TestTopKTruncation:
    def test_rows_capped_and_strongest_kept(self):
        network, ledger, profiles, rng = make_world(10)
        seed_traffic(ledger, profiles, rng)
        k = 3
        cfg = SocialTrustConfig(coefficient_backend="sparse", sparse_top_k=k)
        full = SparseClosenessComputer(
            network, ledger, SocialTrustConfig(coefficient_backend="sparse")
        ).closeness_matrix()
        truncated = SparseClosenessComputer(network, ledger, cfg).closeness_matrix()
        full = np.asarray(full)
        truncated = np.asarray(truncated)
        for row in range(N):
            kept = np.flatnonzero(truncated[row])
            assert kept.size <= k
            np.testing.assert_allclose(truncated[row][kept], full[row][kept])
            if kept.size:
                dropped = np.setdiff1d(np.flatnonzero(full[row]), kept)
                if dropped.size:
                    assert full[row][dropped].max() <= full[row][kept].min() + 1e-12


class TestSparseDetector:
    def _interval(self, rng):
        interval = IntervalRatings(N)
        for _ in range(4 * N):
            i, j = int(rng.integers(0, N)), int(rng.integers(0, N))
            if i != j:
                interval.pos_counts[i, j] += 1
                interval.value_sum[i, j] += 1.0
        # A collusive pair far above the median frequency.
        interval.pos_counts[0, 1] += 12
        interval.value_sum[0, 1] += 12.0
        interval.neg_counts[2, 3] += 9
        interval.value_sum[2, 3] -= 9.0
        return interval

    def _detectors(self, seed=11):
        network, ledger, profiles, rng = make_world(seed)
        seed_traffic(ledger, profiles, rng)
        sparse_cfg = SocialTrustConfig(coefficient_backend="sparse")
        dense_cfg = dense_config(sparse_cfg)
        dense_det = CollusionDetector(
            ClosenessComputer(network, ledger, dense_cfg),
            SimilarityComputer(profiles, dense_cfg),
            dense_cfg,
        )
        sparse_det = CollusionDetector(
            SparseClosenessComputer(network, ledger, sparse_cfg),
            SparseSimilarityComputer(profiles, sparse_cfg),
            sparse_cfg,
        )
        return dense_det, sparse_det, rng

    def test_analyze_dispatch_matches_dense(self):
        """The one kernel agrees with itself across coefficient computers
        (dense vs sparse) and input adapters (dense arrays vs CSR)."""
        dense_det, sparse_det, rng = self._detectors()
        interval = self._interval(rng)
        reputations = np.full(N, 1.0 / N)
        rated = interval.counts > 0
        flag_counts = np.zeros((N, N))
        flag_counts[0, 1] = 2.0
        want = dense_det.analyze(interval, reputations, rated, flag_counts)
        assert want.findings, "scenario must actually flag pairs"
        csr_inputs = (
            sparse.csr_matrix(interval.pos_counts),
            sparse.csr_matrix(interval.neg_counts),
            reputations,
            sparse.csr_matrix(rated),
            sparse.csr_matrix(flag_counts),
        )
        for got in (
            sparse_det.analyze(interval, reputations, rated, flag_counts),
            sparse_det.analyze_sparse(*csr_inputs),
            dense_det.analyze_sparse(*csr_inputs),
        ):
            np.testing.assert_array_equal(got.pairs, want.pairs)
            np.testing.assert_allclose(
                got.pair_weights, want.pair_weights, atol=1e-9, rtol=1e-9
            )
            for g, w in zip(got.findings, want.findings):
                assert g.reasons == w.reasons
                assert g.weight == pytest.approx(w.weight, rel=1e-9, abs=1e-9)
            for field in (
                "pos_frequency",
                "neg_frequency",
                "low_reputation",
                "closeness_low",
                "closeness_high",
                "similarity_low",
                "similarity_high",
            ):
                assert getattr(got.thresholds, field) == pytest.approx(
                    getattr(want.thresholds, field), rel=1e-9, abs=1e-12
                )

    def test_analyze_sparse_returns_pair_set_only(self):
        _, sparse_det, rng = self._detectors(12)
        interval = self._interval(rng)
        reputations = np.full(N, 1.0 / N)
        rated = sparse.csr_matrix(interval.counts > 0)
        result = sparse_det.analyze_sparse(
            sparse.csr_matrix(interval.pos_counts),
            sparse.csr_matrix(interval.neg_counts),
            reputations,
            rated,
        )
        assert isinstance(result, DetectionResult)
        assert result.pairs.shape == (result.pair_weights.shape[0], 2)
        assert result.pairs.shape[0] > 0
        assert np.all(result.pair_weights <= 1.0)
        assert np.any(result.pair_weights < 1.0)
        dense_w = result.weights
        assert dense_w.shape == (N, N)
        ones = np.ones((N, N))
        ones[result.pairs[:, 0], result.pairs[:, 1]] = result.pair_weights
        np.testing.assert_array_equal(dense_w, ones)

    def test_no_flags_reports_pinned_thresholds(self):
        """Satellite: the early return must echo configured pins, not sentinels."""
        network, ledger, profiles, rng = make_world(13)
        seed_traffic(ledger, profiles, rng)
        for backend in ("dense", "sparse"):
            cfg = SocialTrustConfig(
                coefficient_backend=backend,
                pos_frequency_threshold=50.0,
                neg_frequency_threshold=50.0,
                closeness_low=0.2,
                closeness_high=0.8,
                similarity_low=0.1,
                similarity_high=0.9,
            )
            if backend == "dense":
                det = CollusionDetector(
                    ClosenessComputer(network, ledger, cfg),
                    SimilarityComputer(profiles, cfg),
                    cfg,
                )
            else:
                det = CollusionDetector(
                    SparseClosenessComputer(network, ledger, cfg),
                    SparseSimilarityComputer(profiles, cfg),
                    cfg,
                )
            interval = IntervalRatings(N)
            interval.pos_counts[0, 1] = 1.0  # below threshold: no flags
            result = det.analyze(
                interval, np.full(N, 1.0 / N), interval.counts > 0
            )
            assert not result.findings
            assert result.thresholds.closeness_low == 0.2
            assert result.thresholds.closeness_high == 0.8
            assert result.thresholds.similarity_low == 0.1
            assert result.thresholds.similarity_high == 0.9

    def test_no_flags_unpinned_reports_open_band(self):
        _, sparse_det, rng = self._detectors(14)
        interval = IntervalRatings(N)
        result = sparse_det.analyze(
            interval, np.full(N, 1.0 / N), interval.counts > 0
        )
        assert not result.findings
        assert result.thresholds.closeness_low == 0.0
        assert result.thresholds.closeness_high == np.inf


class TestRestoreStateValidation:
    def test_sparse_closeness_rejects_wrong_shape(self):
        network, ledger, profiles, rng = make_world(15)
        seed_traffic(ledger, profiles, rng)
        cfg = SocialTrustConfig(coefficient_backend="sparse")
        sc = SparseClosenessComputer(network, ledger, cfg)
        sc.closeness_matrix()
        state = sc.state_dict()
        bad = dict(state)
        bad["a"] = sparse.csr_matrix((N + 1, N + 1))
        with pytest.raises(ValueError, match="different network size"):
            sc.restore_state(bad)

    def test_sparse_closeness_rejects_dense_payload(self):
        network, ledger, profiles, rng = make_world(15)
        cfg = SocialTrustConfig(coefficient_backend="sparse")
        sc = SparseClosenessComputer(network, ledger, cfg)
        sc.closeness_matrix()
        state = sc.state_dict()
        bad = dict(state)
        bad["t1"] = np.zeros((N, N))
        with pytest.raises(ValueError):
            sc.restore_state(bad)

    def test_sparse_similarity_rejects_wrong_size(self):
        network, ledger, profiles, rng = make_world(16)
        cfg = SocialTrustConfig(coefficient_backend="sparse")
        sc = SparseSimilarityComputer(profiles, cfg)
        with pytest.raises(ValueError):
            sc.restore_state({"n_nodes": N + 3})

    def test_roundtrip_restores_bit_identical_matrix(self):
        network, ledger, profiles, rng = make_world(17, sparse_ledger=True)
        seed_traffic(ledger, profiles, rng)
        cfg = SocialTrustConfig(coefficient_backend="sparse")
        sc = SparseClosenessComputer(network, ledger, cfg)
        ledger.record(0, 1, 2.0)
        before = np.asarray(sc.closeness_matrix()).copy()
        state = sc.state_dict()
        other = SparseClosenessComputer(network, ledger, cfg)
        other.restore_state(state)
        np.testing.assert_array_equal(
            np.asarray(other.closeness_matrix()), before
        )


class TestEmbedRows:
    def test_scatters_block_into_named_rows(self):
        block = sparse.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
        out = embed_rows(block, np.array([0, 2]), 3).toarray()
        want = np.zeros((3, 3))
        want[0] = [1.0, 0.0, 2.0]
        want[2] = [0.0, 3.0, 0.0]
        np.testing.assert_array_equal(out, want)

    def test_rejects_unsorted_rows(self):
        block = sparse.csr_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            embed_rows(block, np.array([2, 0]), 3)
