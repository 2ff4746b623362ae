"""Tests for the EigenTrust implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.base import IntervalRatings, Rating
from repro.reputation.eigentrust import EigenTrust


def interval(n, ratings):
    iv = IntervalRatings(n)
    for i, j, v in ratings:
        iv.add(Rating(i, j, v))
    return iv


class TestConstruction:
    def test_rejects_bad_pretrust_weight(self):
        with pytest.raises(ValueError):
            EigenTrust(4, pretrust_weight=1.0)
        with pytest.raises(ValueError):
            EigenTrust(4, pretrust_weight=-0.1)

    def test_rejects_out_of_range_pretrusted(self):
        with pytest.raises(ValueError):
            EigenTrust(4, [5])

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            EigenTrust(4, epsilon=0)

    def test_initial_reputations_are_pretrust(self):
        et = EigenTrust(4, [0, 1], pretrust_weight=0.2)
        assert np.allclose(et.reputations, [0.5, 0.5, 0, 0])

    def test_no_pretrusted_uniform(self):
        et = EigenTrust(4)
        assert np.allclose(et.reputations, 0.25)

    def test_name(self):
        assert EigenTrust(2).name == "EigenTrust"


class TestNormalizedLocal:
    def test_rows_stochastic(self):
        et = EigenTrust(3, [0])
        et.update(interval(3, [(1, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)]))
        c = et.normalized_local()
        assert np.allclose(c.sum(axis=1), 1.0)

    def test_negative_trust_clipped(self):
        et = EigenTrust(3, [0])
        et.update(interval(3, [(1, 2, -5.0), (1, 0, 1.0)]))
        c = et.normalized_local()
        assert c[1, 2] == 0.0
        assert c[1, 0] == 1.0

    def test_empty_row_falls_back_to_pretrust(self):
        et = EigenTrust(3, [0])
        et.update(interval(3, [(1, 2, 1.0)]))
        c = et.normalized_local()
        assert np.allclose(c[2], [1.0, 0.0, 0.0])

    def test_diagonal_zeroed(self):
        et = EigenTrust(3, [0])
        cells = np.zeros((3, 3))
        cells[1, 1] = 5.0  # malformed input guarded at aggregation
        iv = IntervalRatings.from_dense(cells, np.zeros((3, 3)), np.zeros((3, 3)))
        et.update(iv)
        assert et.normalized_local()[1, 1] == 0.0


class TestUpdate:
    def test_reputations_sum_to_one(self):
        et = EigenTrust(4, [0])
        et.update(interval(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]))
        assert et.reputations.sum() == pytest.approx(1.0)

    def test_reputations_non_negative(self):
        et = EigenTrust(4, [0])
        et.update(interval(4, [(1, 2, -1.0), (2, 3, 1.0)]))
        assert np.all(et.reputations >= 0)

    def test_well_rated_node_beats_unrated(self):
        et = EigenTrust(5, [0], pretrust_weight=0.1)
        ratings = [(i, 4, 1.0) for i in range(4)]
        et.update(interval(5, ratings))
        reps = et.reputations
        assert reps[4] > reps[1]

    def test_accumulates_across_intervals(self):
        et = EigenTrust(3, [0], pretrust_weight=0.1)
        et.update(interval(3, [(0, 1, 1.0)]))
        r1 = et.reputations[1]
        et.update(interval(3, [(0, 1, 1.0), (2, 1, 1.0)]))
        assert et.local_trust[0, 1] == 2.0
        assert et.reputations[1] >= r1 * 0.5  # still prominent

    def test_mutual_collusion_loop_inflates(self):
        """The PCM amplification EigenTrust is vulnerable to (Fig. 8(a))."""
        et = EigenTrust(6, [0], pretrust_weight=0.1)
        ratings = [(4, 5, 30.0), (5, 4, 30.0)]
        # Mass must be able to leave the pre-trusted source, and the
        # colluders need a trickle of external trust to amplify.
        ratings += [(0, 1, 1.0), (0, 2, 1.0)]
        ratings += [(1, 4, 1.0), (2, 5, 1.0), (1, 3, 1.0), (2, 3, 1.0)]
        et.update(interval(6, ratings))
        reps = et.reputations
        assert reps[4] > reps[3]
        assert reps[5] > reps[3]

    def test_size_mismatch_rejected(self):
        et = EigenTrust(3, [0])
        with pytest.raises(ValueError):
            et.update(IntervalRatings(4))

    def test_last_iterations_positive(self):
        et = EigenTrust(3, [0])
        et.update(interval(3, [(1, 2, 1.0)]))
        assert et.last_iterations >= 1

    def test_converges_within_bound(self):
        et = EigenTrust(10, [0], max_iterations=500)
        ratings = [(i, (i + 1) % 10, 1.0) for i in range(10)]
        et.update(interval(10, ratings))
        assert et.last_iterations < 500

    def test_local_trust_read_only(self):
        et = EigenTrust(3, [0])
        with pytest.raises(ValueError):
            et.local_trust[0, 1] = 1.0


class TestReset:
    def test_reset_restores_initial(self):
        et = EigenTrust(3, [0])
        et.update(interval(3, [(1, 2, 1.0)]))
        et.reset()
        assert np.allclose(et.reputations, [1.0, 0.0, 0.0])
        assert et.local_trust.sum() == 0.0


class TestStationaryProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        ratings=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-1.0, 1.0])),
            max_size=40,
        )
    )
    def test_fixed_point(self, ratings):
        """The converged vector satisfies t = (1-a) C^T t + a p."""
        et = EigenTrust(6, [0], pretrust_weight=0.2, epsilon=1e-13)
        iv = IntervalRatings(6)
        for i, j, v in ratings:
            if i != j:
                iv.add(Rating(i, j, v))
        t = et.update(iv)
        c = et.normalized_local()
        p = np.zeros(6)
        p[0] = 1.0
        expected = 0.8 * (c.T @ t) + 0.2 * p
        assert np.allclose(t, expected, atol=1e-8)
