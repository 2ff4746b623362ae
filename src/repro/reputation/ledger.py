"""Per-interval rating accumulator.

The simulator records every rating into a :class:`RatingLedger`; at each
reputation-update interval the ledger is drained into an immutable-by-
convention :class:`~repro.reputation.base.IntervalRatings` bundle.  Keeping
the hot-path ``record`` a pair of array increments (rather than appending
Python objects) is what keeps the 200-node x 30-query-cycle x 50-cycle
experiment grid fast.

The batched :meth:`RatingLedger.record_many` also keeps the row-major keys
``i * n + j`` it wrote, and :meth:`RatingLedger.drain` hands them to the
interval as its sorted, unique :meth:`~repro.reputation.base.IntervalRatings.pair_keys`,
so the detector reads the interval's pairs without scanning ``n x n``
count matrices.  A scalar write (``record``, ``record_batch``) or a
restored in-flight interval drops the keys for that interval; its
``pair_keys`` then scans the counts.
"""

from __future__ import annotations

import numpy as np

from repro.reputation.base import IntervalRatings, Rating

__all__ = ["RatingLedger"]


class RatingLedger:
    """Accumulates ratings for the current reputation-update interval."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = int(n_nodes)
        self._start_interval()
        self._total_recorded = 0

    def _start_interval(self) -> None:
        self._interval = IntervalRatings(self._n)
        # Keys written by record_many this interval; None once another
        # write path has touched the interval.
        self._keys: list[np.ndarray] | None = [np.empty(0, dtype=np.int64)]

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def total_recorded(self) -> int:
        """Ratings recorded since construction (across all intervals)."""
        return self._total_recorded

    def record(self, rating: Rating) -> None:
        if not 0 <= rating.rater < self._n or not 0 <= rating.ratee < self._n:
            raise IndexError(
                f"rating ({rating.rater} -> {rating.ratee}) out of range"
            )
        self._interval.add(rating)
        self._keys = None
        self._total_recorded += 1

    def record_many(
        self,
        raters: np.ndarray,
        ratees: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray | float = 1.0,
    ) -> None:
        """Record ``counts[t]`` identical ratings per
        ``(raters[t], ratees[t], values[t])`` triple.

        Bit-identical to looping :meth:`record` (count 1) and
        :meth:`record_batch` in the same order: ``np.add.at`` applies the
        ``value * count`` increments unbuffered in chronological order, and
        the positive/negative counters only ever take exact integer steps.
        """
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if not (i.shape == j.shape == v.shape) or i.ndim != 1:
            raise ValueError(
                "raters, ratees and values must be 1-D arrays of equal length"
            )
        if i.size == 0:
            return
        c = np.broadcast_to(np.asarray(counts, dtype=np.float64), i.shape)
        if np.any(i == j):
            raise ValueError("self-ratings are not allowed")
        if np.any((i < 0) | (i >= self._n) | (j < 0) | (j >= self._n)):
            raise IndexError("rating endpoint out of range")
        if np.any(c < 1):
            raise ValueError("counts must be >= 1")
        interval = self._interval
        if self._keys is not None:
            self._keys.append(i * self._n + j)
        np.add.at(interval.value_sum, (i, j), v * c)
        pos = v >= 0
        if np.any(pos):
            np.add.at(interval.pos_counts, (i[pos], j[pos]), c[pos])
        if not np.all(pos):
            neg = ~pos
            np.add.at(interval.neg_counts, (i[neg], j[neg]), c[neg])
        self._total_recorded += int(c.sum())

    def record_batch(self, rater: int, ratee: int, value: float, count: int) -> None:
        """Record ``count`` identical ratings in one call (collusion bursts)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if rater == ratee:
            raise ValueError("self-ratings are not allowed")
        if not 0 <= rater < self._n or not 0 <= ratee < self._n:
            raise IndexError(f"rating ({rater} -> {ratee}) out of range")
        self._interval.value_sum[rater, ratee] += value * count
        if value >= 0:
            self._interval.pos_counts[rater, ratee] += count
        else:
            self._interval.neg_counts[rater, ratee] += count
        self._keys = None
        self._total_recorded += count

    def peek(self) -> IntervalRatings:
        """Current interval aggregates without draining (copy)."""
        return self._interval.copy()

    def drain(self) -> IntervalRatings:
        """Return the interval aggregates and start a fresh interval."""
        out = self._interval
        if self._keys is not None:
            keys = np.unique(np.concatenate(self._keys))
            keys.flags.writeable = False
            out._pair_keys = keys
        self._start_interval()
        return out

    def state_dict(self) -> dict:
        """The lifetime count, plus the in-flight interval's aggregates
        when it holds a rating: at a cycle boundary or a watermark the
        interval is freshly drained and none are written, but
        mid-interval checkpoints are supported too."""
        interval = self._interval
        state: dict = {"total_recorded": self._total_recorded}
        if interval.pos_counts.any() or interval.neg_counts.any():
            state["value_sum"] = interval.value_sum.copy()
            state["pos_counts"] = interval.pos_counts.copy()
            state["neg_counts"] = interval.neg_counts.copy()
        return state

    def restore_state(self, state: dict) -> None:
        self._start_interval()
        if "value_sum" in state:
            interval = self._interval
            interval.value_sum[:] = np.asarray(state["value_sum"], dtype=np.float64)
            interval.pos_counts[:] = np.asarray(state["pos_counts"], dtype=np.float64)
            interval.neg_counts[:] = np.asarray(state["neg_counts"], dtype=np.float64)
            self._keys = None
        self._total_recorded = int(state["total_recorded"])
