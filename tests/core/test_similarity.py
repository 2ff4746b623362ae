"""Tests for interest similarity (Eqs. (7), (11))."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SocialTrustConfig
from repro.core.similarity import SimilarityComputer, overlap_similarity
from repro.social.interests import InterestProfiles


class TestOverlapSimilarity:
    def test_identical_sets(self):
        assert overlap_similarity({1, 2}, {1, 2}) == 1.0

    def test_disjoint_sets(self):
        assert overlap_similarity({1}, {2}) == 0.0

    def test_subset_is_one(self):
        assert overlap_similarity({1}, {1, 2, 3}) == 1.0

    def test_partial(self):
        assert overlap_similarity({1, 2, 3}, {2, 3, 4, 5}) == pytest.approx(2 / 3)

    def test_empty_is_zero(self):
        assert overlap_similarity(set(), {1}) == 0.0

    def test_symmetric(self):
        assert overlap_similarity({1, 2}, {2, 9}) == overlap_similarity({2, 9}, {1, 2})

    @given(
        a=st.sets(st.integers(0, 10), max_size=8),
        b=st.sets(st.integers(0, 10), max_size=8),
    )
    def test_bounded(self, a, b):
        assert 0.0 <= overlap_similarity(a, b) <= 1.0


@pytest.fixture
def profiles():
    p = InterestProfiles(4, 6)
    p.set_declared(0, {0, 1})
    p.set_declared(1, {1, 2})
    p.set_declared(2, {3, 4, 5})
    p.set_declared(3, {0, 1})
    return p


class TestPlainSimilarity:
    def test_uses_declared_sets(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        assert sc.similarity(0, 1) == pytest.approx(0.5)
        assert sc.similarity(0, 2) == 0.0
        assert sc.similarity(0, 3) == 1.0

    def test_ignores_behaviour(self, profiles):
        profiles.record_request(0, 5, 10.0)
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        assert sc.similarity(0, 2) == 0.0

    def test_self_rejected(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        with pytest.raises(ValueError):
            sc.similarity(1, 1)


class TestHardenedSimilarity:
    def test_zero_without_requests(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=True))
        assert sc.similarity(0, 1) == 0.0

    def test_eq11_formula(self, profiles):
        profiles.record_request(0, 1, 4.0)  # w0 = [0, 1, ...]
        profiles.record_request(1, 1, 1.0)
        profiles.record_request(1, 2, 3.0)  # w1 = [0, 0.25, 0.75, ...]
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=True))
        # Shared effective interest: {1}; numerator = 1 * 0.25;
        # denominator = min(|{0,1}|, |{1,2}|) = 2.
        assert sc.similarity(0, 1) == pytest.approx(0.25 / 2)

    def test_padding_profile_gains_nothing(self, profiles):
        """A colluder declaring matching interests it never requests stays
        dissimilar (Section 4.4, evading B3)."""
        profiles.record_request(0, 0, 5.0)
        profiles.record_request(2, 3, 5.0)
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=True))
        before = sc.similarity(0, 2)
        profiles.set_declared(2, {0, 1, 3})  # falsified to match node 0
        after = sc.similarity(0, 2)
        assert before == 0.0
        assert after == 0.0  # no requests on the padded interests

    def test_deleting_declared_interest_does_not_hide_behaviour(self, profiles):
        """Evading B4: requests on a deleted interest still reveal it."""
        profiles.record_request(0, 1, 5.0)
        profiles.record_request(1, 1, 5.0)
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=True))
        with_declared = sc.similarity(0, 1)
        profiles.set_declared(1, {2})  # hide the shared interest 1
        without_declared = sc.similarity(0, 1)
        assert without_declared > 0.0
        assert without_declared >= with_declared * 0.5

    def test_matrix_matches_scalar(self, profiles):
        rng = np.random.default_rng(3)
        for node in range(4):
            for _ in range(5):
                profiles.record_request(node, int(rng.integers(0, 6)))
        for hardened in (False, True):
            sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=hardened))
            matrix = sc.similarity_matrix()
            for i in range(4):
                for j in range(4):
                    if i == j:
                        assert matrix[i, j] == 0.0
                    else:
                        assert matrix[i, j] == pytest.approx(sc.similarity(i, j)), (
                            hardened,
                            i,
                            j,
                        )

    def test_effective_set_sizes_match_per_node_loop(self):
        rng = np.random.default_rng(5)
        p = InterestProfiles(40, 9)
        for node in range(40):
            p.set_declared(node, rng.choice(9, size=rng.integers(1, 4), replace=False))
            for _ in range(int(rng.integers(0, 6))):
                p.record_request(node, int(rng.integers(0, 9)))
        for _ in range(2):
            expected = [
                len(p.declared(i) | p.behavioural_interests(i)) for i in range(40)
            ]
            sizes = p.effective_set_sizes()
            assert sizes.dtype == np.float64
            assert sizes.tolist() == expected
            p.set_declared(0, {8})
            p.record_request(1, 7)

    def test_matrix_symmetric_plain(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        m = sc.similarity_matrix()
        assert np.allclose(m, m.T)


class TestBands:
    def test_rater_band(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        band = sc.rater_band(0, {1, 2, 3})
        assert band.size == 3
        assert band.center == pytest.approx((0.5 + 0.0 + 1.0) / 3)

    def test_global_band_empty(self, profiles):
        sc = SimilarityComputer(profiles, SocialTrustConfig(hardened=False))
        assert sc.global_band([]) is None
