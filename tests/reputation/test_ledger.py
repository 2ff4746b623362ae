"""Tests for the per-interval rating ledger."""

import numpy as np
import pytest

from repro.reputation.base import Rating
from repro.reputation.ledger import RatingLedger


class TestRatingLedger:
    def test_record_and_drain(self):
        ledger = RatingLedger(3)
        ledger.record(Rating(0, 1, 1.0))
        interval = ledger.drain()
        assert interval.value_sum[0, 1] == 1.0

    def test_drain_resets(self):
        ledger = RatingLedger(3)
        ledger.record(Rating(0, 1, 1.0))
        ledger.drain()
        second = ledger.drain()
        assert second.value_sum.sum() == 0.0

    def test_total_recorded_survives_drain(self):
        ledger = RatingLedger(3)
        ledger.record(Rating(0, 1, 1.0))
        ledger.drain()
        ledger.record(Rating(1, 2, -1.0))
        assert ledger.total_recorded == 2

    def test_record_batch(self):
        ledger = RatingLedger(3)
        ledger.record_batch(0, 1, 1.0, 20)
        interval = ledger.drain()
        assert interval.value_sum[0, 1] == 20.0
        assert interval.pos_counts[0, 1] == 20

    def test_record_batch_negative(self):
        ledger = RatingLedger(3)
        ledger.record_batch(0, 1, -1.0, 5)
        interval = ledger.drain()
        assert interval.neg_counts[0, 1] == 5

    def test_batch_equals_loop(self):
        a = RatingLedger(3)
        b = RatingLedger(3)
        a.record_batch(0, 2, 1.0, 7)
        for _ in range(7):
            b.record(Rating(0, 2, 1.0))
        ia, ib = a.drain(), b.drain()
        assert (ia.value_sum == ib.value_sum).all()
        assert (ia.pos_counts == ib.pos_counts).all()

    def test_peek_does_not_drain(self):
        ledger = RatingLedger(3)
        ledger.record(Rating(0, 1, 1.0))
        assert ledger.peek().value_sum[0, 1] == 1.0
        assert ledger.drain().value_sum[0, 1] == 1.0

    def test_peek_returns_copy(self):
        ledger = RatingLedger(3)
        ledger.record(Rating(0, 1, 1.0))
        peeked = ledger.peek()
        peeked.add(Rating(0, 1, 41.0))
        assert peeked.value_sum[0, 1] == 42.0
        assert ledger.drain().value_sum[0, 1] == 1.0

    def test_rejects_out_of_range(self):
        ledger = RatingLedger(2)
        with pytest.raises(IndexError):
            ledger.record(Rating(0, 5, 1.0))
        with pytest.raises(IndexError):
            ledger.record_batch(0, 5, 1.0, 1)

    def test_batch_rejects_self(self):
        ledger = RatingLedger(3)
        with pytest.raises(ValueError):
            ledger.record_batch(1, 1, 1.0, 2)

    def test_batch_rejects_zero_count(self):
        ledger = RatingLedger(3)
        with pytest.raises(ValueError):
            ledger.record_batch(0, 1, 1.0, 0)


class TestRecordMany:
    def test_equivalent_to_scalar_ratings(self):
        import numpy as np

        raters = np.array([0, 1, 0, 2])
        ratees = np.array([1, 2, 1, 0])
        values = np.array([1.0, -1.0, 1.0, -1.0])
        batched = RatingLedger(3)
        batched.record_many(raters, ratees, values)
        scalar = RatingLedger(3)
        for i, j, v in zip(raters, ratees, values):
            scalar.record(Rating(int(i), int(j), float(v)))
        got = batched.drain()
        want = scalar.drain()
        assert np.array_equal(got.value_sum, want.value_sum)
        assert np.array_equal(got.pos_counts, want.pos_counts)
        assert np.array_equal(got.neg_counts, want.neg_counts)

    def test_self_ratings_rejected(self):
        import numpy as np

        ledger = RatingLedger(3)
        with pytest.raises(ValueError):
            ledger.record_many(
                np.array([0, 1]), np.array([0, 2]), np.array([1.0, 1.0])
            )

    def test_counts_equivalent_to_scalar_and_batch_calls(self):
        import numpy as np

        # Requests (count 1) followed by bursts, with a non-integral
        # value so the increment order is observable in the float sums.
        raters = np.array([0, 1, 0, 2, 0, 1])
        ratees = np.array([1, 2, 1, 0, 1, 0])
        values = np.array([1.0, -1.0, 0.3, -1.0, 0.7, -0.1])
        counts = np.array([1, 1, 1, 1, 20, 3])
        batched = RatingLedger(3)
        batched.record_many(raters, ratees, values, counts)
        scalar = RatingLedger(3)
        for i, j, v, c in zip(raters, ratees, values, counts):
            if c == 1:
                scalar.record(Rating(int(i), int(j), float(v)))
            else:
                scalar.record_batch(int(i), int(j), float(v), int(c))
        got = batched.drain()
        want = scalar.drain()
        assert np.array_equal(got.value_sum, want.value_sum)
        assert np.array_equal(got.pos_counts, want.pos_counts)
        assert np.array_equal(got.neg_counts, want.neg_counts)
        assert batched.total_recorded == scalar.total_recorded == 27

    def test_counts_validated(self):
        import numpy as np

        ledger = RatingLedger(3)
        with pytest.raises(ValueError, match=">= 1"):
            ledger.record_many(np.array([0]), np.array([1]), np.array([1.0]), [0])
        with pytest.raises(ValueError):
            ledger.record_many(
                np.array([0]), np.array([1]), np.array([1.0]), np.array([1, 2])
            )


class TestState:
    def test_drained_interval_writes_no_arrays(self):
        ledger = RatingLedger(4)
        assert ledger.state_dict() == {"total_recorded": 0}
        ledger.record_many(np.array([0, 1]), np.array([1, 2]), np.array([1.0, -1.0]))
        ledger.drain()
        assert ledger.state_dict() == {"total_recorded": 2}

    def test_in_flight_interval_round_trips(self):
        ledger = RatingLedger(4)
        ledger.record_many(np.array([0, 3]), np.array([1, 2]), np.array([1.0, -1.0]), 2.0)
        state = ledger.state_dict()
        assert set(state["interval"]) == {"keys", "value", "pos", "neg"}
        resumed = RatingLedger(4)
        resumed.restore_state(state)
        want, got = ledger.drain(), resumed.drain()
        for name in ("value_sum", "pos_counts", "neg_counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.pair_keys(), want.pair_keys())
        assert resumed.total_recorded == 4

    def test_older_state_with_zero_arrays_loads(self):
        zeros = np.zeros((4, 4))
        resumed = RatingLedger(4)
        resumed.restore_state(
            {"value_sum": zeros, "pos_counts": zeros, "neg_counts": zeros, "total_recorded": 7}
        )
        assert resumed.state_dict() == {"total_recorded": 7}
        resumed.record_many(np.array([2]), np.array([0]), np.array([1.0]))
        assert resumed.drain().pos_counts[2, 0] == 1.0
