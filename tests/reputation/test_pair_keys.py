"""The interval's pair keys and the count columns the adjusted interval shares.

:meth:`RatingLedger.drain` keys the interval by the sorted, unique keys
``i * n + j`` its writes touched, whatever the write path, and
:meth:`IntervalRatings.add` inserts the pair it writes.  Either way
:meth:`IntervalRatings.pair_keys` is ``np.flatnonzero(pos_counts + neg_counts)``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SocialTrust
from repro.reputation import EigenTrust
from repro.reputation.base import IntervalRatings, Rating
from repro.reputation.ledger import RatingLedger
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

N = 6
NODE = st.integers(0, N - 1)
VALUE = st.sampled_from([-1.0, 0.0, 1.0, 2.5])
COUNT = st.integers(1, 3)

OP = st.one_of(
    st.tuples(st.just("record"), NODE, NODE, VALUE),
    st.tuples(st.just("batch"), NODE, NODE, VALUE, COUNT),
    st.tuples(
        st.just("many"),
        st.lists(st.tuples(NODE, NODE, VALUE, COUNT), min_size=0, max_size=8),
    ),
    st.tuples(st.just("restore")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("add"), NODE, NODE, VALUE),
)


def expected_keys(interval: IntervalRatings) -> np.ndarray:
    return np.flatnonzero(interval.pos_counts + interval.neg_counts)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(OP, max_size=25))
def test_pair_keys_are_the_nonzero_counts(ops):
    ledger = RatingLedger(N)
    drained = IntervalRatings(N)
    for op in ops:
        kind = op[0]
        if kind == "record" and op[1] != op[2]:
            ledger.record(Rating(op[1], op[2], op[3]))
        elif kind == "batch" and op[1] != op[2]:
            ledger.record_batch(op[1], op[2], op[3], op[4])
        elif kind == "many":
            rows = [r for r in op[1] if r[0] != r[1]]
            i, j, v, c = np.array(rows, dtype=np.float64).reshape(-1, 4).T
            ledger.record_many(i.astype(np.int64), j.astype(np.int64), v, c)
        elif kind == "restore":
            # A mid-interval checkpoint resumed by a fresh ledger.
            resumed = RatingLedger(N)
            resumed.restore_state(ledger.state_dict())
            ledger = resumed
        elif kind == "drain":
            drained = ledger.drain()
            keys = drained.pair_keys()
            assert keys.dtype == np.int64
            assert np.array_equal(keys, expected_keys(drained))
        elif kind == "add" and op[1] != op[2]:
            # A direct write to a drained interval keys its pair.
            drained.add(Rating(op[1], op[2], op[3]))
            assert np.array_equal(drained.pair_keys(), expected_keys(drained))
    final = ledger.drain()
    assert np.array_equal(final.pair_keys(), expected_keys(final))
    assert np.array_equal(ledger.drain().pair_keys(), np.empty(0, dtype=np.int64))


def test_batched_interval_carries_sorted_unique_keys():
    ledger = RatingLedger(N)
    ledger.record_many(np.array([3, 0, 3]), np.array([1, 5, 1]), np.ones(3))
    ledger.record_many(np.array([0]), np.array([2]), np.array([-1.0]), 4.0)
    interval = ledger.drain()
    assert interval._pair_keys is not None  # no scan on this path
    assert interval.pair_keys().tolist() == [2, 5, 19]
    assert not interval.pair_keys().flags.writeable


def test_copy_and_scaled_keep_the_keys():
    ledger = RatingLedger(N)
    ledger.record_many(np.array([1, 2]), np.array([4, 0]), np.ones(2))
    interval = ledger.drain()
    for other in (
        interval.copy(),
        interval.scaled(np.ones((N, N))),
        interval.scaled_pairs(np.array([1]), np.array([4]), np.array([0.5])),
    ):
        assert np.array_equal(other.pair_keys(), interval.pair_keys())


class _Recorder(EigenTrust):
    """EigenTrust that keeps the interval it was handed."""

    def update(self, interval):
        self.seen = interval
        return super().update(interval)


def test_adjusted_interval_shares_the_drained_counts():
    n = 12
    network = paper_social_network(n, (0, 1), spawn_rng(11, 0))
    interactions = InteractionLedger(n)
    profiles = InterestProfiles(n, 5)
    inner = _Recorder(n, [2])
    system = SocialTrust(inner, network, interactions, profiles)
    ledger = RatingLedger(n)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    ledger.record_many(i, j, np.ones(i.size))
    ledger.record_many(np.array([0, 1]), np.array([1, 0]), np.ones(2), 50.0)
    interactions.record_many(i, j, np.ones(i.size))
    interval = ledger.drain()
    before = interval.copy()
    system.update(interval)
    assert system.last_detection.n_adjusted  # the adjusted interval is a copy
    adjusted = inner.seen
    assert adjusted is not interval
    assert adjusted.pos is interval.pos
    assert adjusted.neg is interval.neg
    for name in ("value_sum", "pos_counts", "neg_counts"):
        assert np.array_equal(getattr(interval, name), getattr(before, name))
    assert np.array_equal(adjusted.pos_counts, before.pos_counts)
    assert np.array_equal(adjusted.neg_counts, before.neg_counts)
    assert not np.array_equal(adjusted.value_sum, before.value_sum)
