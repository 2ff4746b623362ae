"""Tests for Rating / IntervalRatings."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.reputation.base import IntervalRatings, Rating


class TestRating:
    def test_fields(self):
        r = Rating(rater=0, ratee=1, value=1.0, interest=3)
        assert (r.rater, r.ratee, r.value, r.interest) == (0, 1, 1.0, 3)

    def test_rejects_self_rating(self):
        with pytest.raises(ValueError):
            Rating(rater=2, ratee=2, value=1.0)

    def test_interest_optional(self):
        assert Rating(rater=0, ratee=1, value=-1.0).interest is None


class TestIntervalRatings:
    def test_add_positive(self):
        iv = IntervalRatings(3)
        iv.add(Rating(0, 1, 1.0))
        assert iv.value_sum[0, 1] == 1.0
        assert iv.pos_counts[0, 1] == 1
        assert iv.neg_counts[0, 1] == 0

    def test_add_negative(self):
        iv = IntervalRatings(3)
        iv.add(Rating(0, 1, -1.0))
        assert iv.value_sum[0, 1] == -1.0
        assert iv.neg_counts[0, 1] == 1

    def test_zero_value_counts_positive(self):
        iv = IntervalRatings(3)
        iv.add(Rating(0, 1, 0.0))
        assert iv.pos_counts[0, 1] == 1

    def test_counts_total(self):
        iv = IntervalRatings(3)
        iv.add(Rating(0, 1, 1.0))
        iv.add(Rating(0, 1, -1.0))
        assert iv.counts[0, 1] == 2

    def test_scaled_multiplies_values_keeps_counts(self):
        iv = IntervalRatings(2)
        iv.add(Rating(0, 1, 1.0))
        iv.add(Rating(0, 1, 1.0))
        w = np.full((2, 2), 0.25)
        out = iv.scaled(w)
        assert out.value_sum[0, 1] == pytest.approx(0.5)
        assert out.pos_counts[0, 1] == 2
        # Original untouched.
        assert iv.value_sum[0, 1] == 2.0

    def test_scaled_shape_mismatch(self):
        iv = IntervalRatings(2)
        with pytest.raises(ValueError):
            iv.scaled(np.ones((3, 3)))

    @given(
        values=st.lists(
            st.floats(-5.0, 5.0, allow_subnormal=False), min_size=16, max_size=16
        ),
        pairs=st.sets(st.integers(0, 15), max_size=10),
        weights=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
    )
    def test_scaled_pairs_is_bitwise_scaled(self, values, pairs, weights):
        iv = IntervalRatings.from_dense(
            np.reshape(values, (4, 4)), np.full((4, 4), 2.0), np.zeros((4, 4))
        )
        keys = np.array(sorted(pairs), dtype=np.int64)
        w = np.array(weights[: keys.size])
        dense = np.ones((4, 4))
        dense[keys // 4, keys % 4] = w
        want = iv.scaled(dense)
        got = iv.scaled_pairs(keys // 4, keys % 4, w)
        assert np.array_equal(got.value_sum, want.value_sum)
        assert np.array_equal(got.pos_counts, want.pos_counts)
        assert np.array_equal(got.neg_counts, want.neg_counts)
        assert np.array_equal(iv.value_sum, np.reshape(values, (4, 4)))

    def test_copy_independent(self):
        iv = IntervalRatings(2)
        iv.add(Rating(0, 1, 1.0))
        c = iv.copy()
        c.add(Rating(0, 1, 98.0))
        assert c.value_sum[0, 1] == 99.0
        assert iv.value_sum[0, 1] == 1.0

    @given(
        ratings=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.sampled_from([-1.0, 1.0]),
            ),
            max_size=40,
        )
    )
    def test_value_sum_equals_pos_minus_neg_for_unit_ratings(self, ratings):
        iv = IntervalRatings(4)
        for i, j, v in ratings:
            if i != j:
                iv.add(Rating(i, j, v))
        assert np.allclose(iv.value_sum, iv.pos_counts - iv.neg_counts)

    @given(weight=st.floats(0.0, 1.0))
    def test_scaling_bounds(self, weight):
        iv = IntervalRatings(2)
        iv.add(Rating(0, 1, 1.0))
        out = iv.scaled(np.full((2, 2), weight))
        assert 0.0 <= out.value_sum[0, 1] <= iv.value_sum[0, 1]
