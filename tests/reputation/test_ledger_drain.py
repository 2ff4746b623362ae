"""The keyed drain is bitwise the dense ``np.add.at`` accumulation.

:class:`RatingLedger` appends rows on every write path and reduces them
once, at :meth:`~RatingLedger.drain`, by ``np.unique`` and ``np.bincount``
in write order.  The reference is what the ledger did before it kept
rows: ``np.add.at`` of ``value * count`` and of the counts into zeroed
``n x n`` arrays, in write order.  Float values make the sums round, so
any change of summation order shows in the bits; a mid-interval
checkpoint restored into a fresh ledger must not change them either.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.base import Rating
from repro.reputation.ledger import RatingLedger

N = 5
NODE = st.integers(0, N - 1)
VALUE = st.one_of(
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
)
COUNT = st.integers(1, 4)

OP = st.one_of(
    st.tuples(st.just("record"), NODE, NODE, VALUE),
    st.tuples(st.just("batch"), NODE, NODE, VALUE, COUNT),
    st.tuples(
        st.just("many"),
        st.lists(st.tuples(NODE, NODE, VALUE, COUNT), min_size=1, max_size=10),
    ),
    st.tuples(st.just("restore")),
    st.tuples(st.just("drain")),
)


class DenseReference:
    """The interval as zeroed ``n x n`` arrays written by ``np.add.at``."""

    def __init__(self) -> None:
        self.value, self.pos, self.neg = (np.zeros((N, N)) for _ in range(3))

    def write(self, i, j, v, c) -> None:
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        v, c = np.asarray(v, dtype=np.float64), np.asarray(c, dtype=np.float64)
        np.add.at(self.value, (i, j), v * c)
        pos = v >= 0
        np.add.at(self.pos, (i[pos], j[pos]), c[pos])
        np.add.at(self.neg, (i[~pos], j[~pos]), c[~pos])


def assert_bitwise(interval, reference: DenseReference) -> None:
    for got, want in (
        (interval.value_sum, reference.value),
        (interval.pos_counts, reference.pos),
        (interval.neg_counts, reference.neg),
    ):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(
        interval.pair_keys(), np.flatnonzero(reference.pos + reference.neg)
    )


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OP, max_size=30))
def test_drain_is_bitwise_dense_add_at(ops):
    ledger = RatingLedger(N)
    reference = DenseReference()
    recorded = 0
    for op in ops:
        kind = op[0]
        if kind == "record" and op[1] != op[2]:
            ledger.record(Rating(op[1], op[2], op[3]))
            reference.write([op[1]], [op[2]], [op[3]], [1.0])
            recorded += 1
        elif kind == "batch" and op[1] != op[2]:
            ledger.record_batch(op[1], op[2], op[3], op[4])
            reference.write([op[1]], [op[2]], [op[3]], [op[4]])
            recorded += op[4]
        elif kind == "many":
            rows = [r for r in op[1] if r[0] != r[1]]
            if not rows:
                continue
            i, j, v, c = (np.array(column) for column in zip(*rows))
            ledger.record_many(i, j, v, c.astype(np.float64))
            reference.write(i, j, v, c)
            recorded += int(c.sum())
        elif kind == "restore":
            resumed = RatingLedger(N)
            resumed.restore_state(ledger.state_dict())
            ledger = resumed
        elif kind == "drain":
            assert_bitwise(ledger.peek(), reference)
            assert_bitwise(ledger.drain(), reference)
            reference = DenseReference()
    assert ledger.total_recorded == recorded
    assert_bitwise(ledger.drain(), reference)
