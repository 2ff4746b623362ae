"""Core reputation-system abstractions.

The simulator produces a stream of :class:`Rating` events.  At the end of
every *simulation cycle* (the paper's reputation-update interval ``T``)
those events are drained into an :class:`IntervalRatings` bundle — value
sums and positive/negative counts keyed by the rated pairs — and handed to
a :class:`ReputationSystem` for the global-reputation recomputation.

SocialTrust (:mod:`repro.core.socialtrust`) is itself a ``ReputationSystem``
that rescales the interval's value sums before forwarding them to a wrapped base
system, which is exactly how the paper layers it over EigenTrust and eBay.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["Rating", "IntervalRatings", "ReputationSystem"]


@dataclass(frozen=True)
class Rating:
    """One service rating.

    Attributes
    ----------
    rater / ratee:
        Node ids (client rates server).
    value:
        Rating value; the paper's P2P evaluation uses +1 (authentic
        service) / -1 (inauthentic).
    interest:
        Interest category of the rated transaction, if known.
    """

    rater: int
    ratee: int
    value: float
    interest: int | None = None

    def __post_init__(self) -> None:
        if self.rater == self.ratee:
            raise ValueError("self-ratings are not allowed")


class IntervalRatings:
    """Per-interval rating aggregates, keyed by rated pair.

    The interval holds the sorted row-major keys ``i * n + j`` of the pairs
    rated in it (:meth:`pair_keys`) and three float64 columns aligned to
    them: ``value`` is the summed rating value from rater ``i`` to ratee
    ``j``, and ``pos`` / ``neg`` are the rating-frequency observations
    (``t+`` / ``t-`` in Section 4.3) the collusion detector thresholds on.
    Pair-wise consumers (the detector, SocialTrust, EigenTrust) read the
    columns; ``value_sum``, ``pos_counts`` and ``neg_counts`` are
    read-only dense ``n x n`` views, built on first access, for the
    readers that want every cell (eBay, TrustGuard, PowerTrust, gossip).

    Intervals are immutable by convention once built (a
    :class:`~repro.reputation.ledger.RatingLedger` drain, :meth:`from_dense`,
    :meth:`scaled_pairs`): the columns are read-only and shared between an
    interval and its scaled copies.  :meth:`add` is the one writer; it
    replaces the columns rather than writing into them.
    """

    __slots__ = ("_n", "_pair_keys", "_value", "_pos", "_neg", "_dense")

    def __init__(self, n_nodes: int) -> None:
        empty = np.empty(0, dtype=np.float64)
        self._set(int(n_nodes), np.empty(0, dtype=np.int64), empty, empty, empty)

    def _set(
        self,
        n_nodes: int,
        keys: np.ndarray,
        value: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
    ) -> None:
        self._n = n_nodes
        for column in (keys, value, pos, neg):
            column.flags.writeable = False
        self._pair_keys, self._value, self._pos, self._neg = keys, value, pos, neg
        # Dense views built so far, by attribute name.
        self._dense: dict[str, np.ndarray] = {}

    @classmethod
    def from_columns(
        cls,
        n_nodes: int,
        keys: np.ndarray,
        value: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
    ) -> "IntervalRatings":
        """An interval over sorted, unique row-major ``keys`` and the
        float64 columns aligned to them (taken, not copied, and made
        read-only)."""
        out = cls.__new__(cls)
        out._set(int(n_nodes), keys, value, pos, neg)
        return out

    @classmethod
    def from_dense(
        cls, value_sum: np.ndarray, pos_counts: np.ndarray, neg_counts: np.ndarray
    ) -> "IntervalRatings":
        """An interval keyed at every cell where any of the three dense
        ``n x n`` arrays is nonzero."""
        arrays = [np.asarray(a, dtype=np.float64) for a in (value_sum, pos_counts, neg_counts)]
        shape = arrays[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in arrays):
            raise ValueError(
                f"interval arrays must be square and alike, got "
                f"{[a.shape for a in arrays]}"
            )
        flat = [a.ravel() for a in arrays]
        keys = np.flatnonzero((flat[0] != 0) | (flat[1] != 0) | (flat[2] != 0))
        return cls.from_columns(shape[0], keys, *(f[keys] for f in flat))

    @property
    def n_nodes(self) -> int:
        return self._n

    def pair_keys(self) -> np.ndarray:
        """Sorted row-major keys ``i * n + j`` of the interval's pairs
        (read-only).  A drained interval keys exactly the pairs rated in
        it, which are the pairs with a nonzero count."""
        return self._pair_keys

    @property
    def value(self) -> np.ndarray:
        """Summed rating value per pair, aligned to :meth:`pair_keys`."""
        return self._value

    @property
    def pos(self) -> np.ndarray:
        """Positive-rating count per pair, aligned to :meth:`pair_keys`."""
        return self._pos

    @property
    def neg(self) -> np.ndarray:
        """Negative-rating count per pair, aligned to :meth:`pair_keys`."""
        return self._neg

    def _dense_view(self, name: str, column: np.ndarray) -> np.ndarray:
        out = self._dense.get(name)
        if out is None:
            n = self._n
            flat = np.zeros(n * n, dtype=np.float64)
            flat[self._pair_keys] = column
            out = flat.reshape(n, n)
            out.flags.writeable = False
            self._dense[name] = out
        return out

    @property
    def value_sum(self) -> np.ndarray:
        """Dense read-only ``n x n`` view of :attr:`value`."""
        return self._dense_view("value_sum", self._value)

    @property
    def pos_counts(self) -> np.ndarray:
        """Dense read-only ``n x n`` view of :attr:`pos`."""
        return self._dense_view("pos_counts", self._pos)

    @property
    def neg_counts(self) -> np.ndarray:
        """Dense read-only ``n x n`` view of :attr:`neg`."""
        return self._dense_view("neg_counts", self._neg)

    @property
    def counts(self) -> np.ndarray:
        """Total rating counts per rater-ratee pair (dense ``n x n``)."""
        return self.pos_counts + self.neg_counts

    def _positions(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each of ``keys`` sits in :meth:`pair_keys`, and whether it
        is there at all."""
        own = self._pair_keys
        at = np.searchsorted(own, keys)
        hit = at < own.size
        hit[hit] = own[at[hit]] == keys[hit]
        return at, hit

    def counts_at(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, neg)`` counts at row-major ``keys`` (0.0 off the
        interval's pairs)."""
        keys = np.asarray(keys, dtype=np.int64)
        at, hit = self._positions(keys)
        pos = np.zeros(keys.shape, dtype=np.float64)
        neg = np.zeros(keys.shape, dtype=np.float64)
        pos[hit] = self._pos[at[hit]]
        neg[hit] = self._neg[at[hit]]
        return pos, neg

    def add(self, rating: Rating) -> None:
        """Add one rating, as ``value_sum[i, j] += value`` and one step of
        ``pos_counts`` (value >= 0) or ``neg_counts``."""
        n = self._n
        if not (0 <= rating.rater < n and 0 <= rating.ratee < n):
            raise IndexError(f"rating ({rating.rater} -> {rating.ratee}) out of range")
        key = np.array([rating.rater * n + rating.ratee], dtype=np.int64)
        keys, value, pos, neg = self._pair_keys, self._value, self._pos, self._neg
        at, hit = self._positions(key)
        if hit[0]:
            value, pos, neg = value.copy(), pos.copy(), neg.copy()
        else:
            keys = np.insert(keys, at, key)
            value, pos, neg = (np.insert(c, at, 0.0) for c in (value, pos, neg))
        value[at] += rating.value
        if rating.value >= 0:
            pos[at] += 1
        else:
            neg[at] += 1
        self._set(n, keys, value, pos, neg)

    def _with_values(self, value: np.ndarray) -> "IntervalRatings":
        """An interval over the ``value`` column that shares this one's
        keys and count columns (no reputation backend writes the counts)."""
        return IntervalRatings.from_columns(
            self._n, self._pair_keys, value, self._pos, self._neg
        )

    def scaled(self, weights: np.ndarray) -> "IntervalRatings":
        """Return an interval with ``value_sum`` multiplied element-wise by
        the dense ``weights`` matrix.

        Counts are preserved (shared with this interval): SocialTrust damps
        the *influence* of suspected ratings, it does not pretend they never
        happened (the frequency observations remain available to downstream
        consumers).
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self._n, self._n):
            raise ValueError(
                f"weight matrix shape {w.shape} != {(self._n, self._n)}"
            )
        return self._with_values(self._value * w.ravel()[self._pair_keys])

    def scaled_pairs(
        self, raters: np.ndarray, ratees: np.ndarray, weights: np.ndarray
    ) -> "IntervalRatings":
        """:meth:`scaled` by a weight matrix that is 1.0 except at the
        given distinct pairs, without building that matrix: only the
        ``value`` column is copied, and multiplied only at the pairs the
        interval holds, which gives the same bits (``x * 1.0 == x``, and
        a pair it does not hold sums to 0.0 either way)."""
        keys = (
            np.asarray(raters, dtype=np.int64) * np.int64(self._n)
            + np.asarray(ratees, dtype=np.int64)
        )
        at, hit = self._positions(keys)
        value = self._value.copy()
        value[at[hit]] *= np.broadcast_to(np.asarray(weights, dtype=np.float64), keys.shape)[hit]
        return self._with_values(value)

    def copy(self) -> "IntervalRatings":
        # The columns are read-only, so sharing them is a copy.
        return self._with_values(self._value)


class ReputationSystem(abc.ABC):
    """Interface every reputation model (and SocialTrust) implements."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = int(n_nodes)

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable system name used in experiment reports."""

    @abc.abstractmethod
    def update(self, interval: IntervalRatings) -> np.ndarray:
        """Ingest one interval of ratings and recompute global reputations.

        Returns the new reputation vector (also available via
        :attr:`reputations`).
        """

    @property
    @abc.abstractmethod
    def reputations(self) -> np.ndarray:
        """Current global reputation vector, normalised to sum to 1
        (all-zero before any informative update)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Discard all accumulated state."""

    def _check_interval(self, interval: IntervalRatings) -> IntervalRatings:
        if interval.n_nodes != self._n:
            raise ValueError(
                f"interval is for {interval.n_nodes} nodes, system has {self._n}"
            )
        return interval
