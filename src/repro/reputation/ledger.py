"""Per-interval rating accumulator.

The simulator records every rating into a :class:`RatingLedger`; at each
reputation-update interval the ledger is drained into an immutable-by-
convention :class:`~repro.reputation.base.IntervalRatings` bundle keyed by
the rated pairs.

Every write path (``record``, ``record_batch``, ``record_many``) appends
rows -- the row-major key ``i * n + j``, the value times the count, and
the count in the positive or the negative column -- and
:meth:`RatingLedger.drain` reduces them once: ``np.unique`` gives the
interval's sorted keys and each row's key index, and ``np.bincount``
sums each column per key in write order from 0.0.  That is the order,
and so the bits, of ``np.add.at`` into zeroed ``n x n`` arrays, without
allocating any.  A write costs its rows, and a drain the interval's rows
and pairs, whatever ``n`` is.
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
        # Rows written this interval, in write order: chunks of
        # (keys, value * count, positive count, negative count).
        self._rows: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def total_recorded(self) -> int:
        """Ratings recorded since construction (across all intervals)."""
        return self._total_recorded

    def _append(self, i: np.ndarray, j: np.ndarray, v: np.ndarray, c: np.ndarray) -> None:
        pos = v >= 0
        self._rows.append(
            (i * np.int64(self._n) + j, v * c, np.where(pos, c, 0.0), np.where(pos, 0.0, c))
        )

    def record(self, rating: Rating) -> None:
        self.record_batch(rating.rater, rating.ratee, rating.value, 1)

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
        :meth:`record_batch` in the same order: every path appends the
        ``value * count`` increments in chronological order, and the
        positive/negative counters only ever take exact integer steps.
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
        self._append(i, j, v, c)
        self._total_recorded += int(c.sum())

    def record_batch(self, rater: int, ratee: int, value: float, count: int) -> None:
        """Record ``count`` identical ratings in one call (collusion bursts)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if rater == ratee:
            raise ValueError("self-ratings are not allowed")
        if not 0 <= rater < self._n or not 0 <= ratee < self._n:
            raise IndexError(f"rating ({rater} -> {ratee}) out of range")
        self._append(
            np.array([rater], dtype=np.int64),
            np.array([ratee], dtype=np.int64),
            np.array([value], dtype=np.float64),
            np.array([count], dtype=np.float64),
        )
        self._total_recorded += count

    def _reduce(self) -> IntervalRatings:
        """The interval the rows written so far sum to (see the module
        docstring)."""
        if not self._rows:
            return IntervalRatings(self._n)
        keys, value, pos, neg = (
            np.concatenate(column) if len(self._rows) > 1 else column[0]
            for column in zip(*self._rows)
        )
        unique, inverse = np.unique(keys, return_inverse=True)
        size = unique.size
        return IntervalRatings.from_columns(
            self._n,
            unique,
            *(np.bincount(inverse, column, minlength=size) for column in (value, pos, neg)),
        )

    def peek(self) -> IntervalRatings:
        """Current interval aggregates without draining."""
        return self._reduce()

    def drain(self) -> IntervalRatings:
        """Return the interval aggregates and start a fresh interval."""
        out = self._reduce()
        self._start_interval()
        return out

    def state_dict(self) -> dict:
        """The lifetime count, plus the in-flight interval, reduced to its
        keys and columns, when it holds a rating: at a cycle boundary or a
        watermark the interval is freshly drained and none is written, but
        mid-interval checkpoints are supported too."""
        state: dict = {"total_recorded": self._total_recorded}
        if self._rows:
            interval = self._reduce()
            state["interval"] = {
                "keys": interval.pair_keys().copy(),
                "value": interval.value.copy(),
                "pos": interval.pos.copy(),
                "neg": interval.neg.copy(),
            }
        return state

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output; older checkpoints' dense
        ``value_sum`` / ``pos_counts`` / ``neg_counts`` arrays load too.

        The in-flight interval comes back as one chunk of rows holding its
        per-pair sums, which later writes add to as they did before the
        checkpoint (a sum from 0.0 is never -0.0, so ``0.0 + s == s``)."""
        self._start_interval()
        if "interval" in state:
            saved = state["interval"]
            interval = IntervalRatings.from_columns(
                self._n,
                np.array(saved["keys"], dtype=np.int64),
                *(np.array(saved[name], dtype=np.float64) for name in ("value", "pos", "neg")),
            )
        elif "value_sum" in state:
            interval = IntervalRatings.from_dense(
                state["value_sum"], state["pos_counts"], state["neg_counts"]
            )
            if interval.n_nodes != self._n:
                raise ValueError(
                    f"in-flight interval covers {interval.n_nodes} nodes, "
                    f"ledger has {self._n}"
                )
        else:
            interval = None
        if interval is not None and interval.pair_keys().size:
            self._rows.append(
                (interval.pair_keys(), interval.value, interval.pos, interval.neg)
            )
        self._total_recorded = int(state["total_recorded"])
