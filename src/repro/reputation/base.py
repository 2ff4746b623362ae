"""Core reputation-system abstractions.

The simulator produces a stream of :class:`Rating` events.  At the end of
every *simulation cycle* (the paper's reputation-update interval ``T``)
those events are drained into an :class:`IntervalRatings` bundle — dense
``n x n`` matrices of value sums and positive/negative counts — and handed
to a :class:`ReputationSystem` for the global-reputation recomputation.

SocialTrust (:mod:`repro.core.socialtrust`) is itself a ``ReputationSystem``
that rescales the interval matrices before forwarding them to a wrapped base
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
    """Dense per-interval rating aggregates.

    ``value_sum[i, j]`` is the summed rating value from rater ``i`` to ratee
    ``j`` during the interval; ``pos_counts`` / ``neg_counts`` are the
    rating-frequency observations (``t+`` / ``t-`` in Section 4.3) the
    collusion detector thresholds on.  :meth:`pair_keys` names the pairs
    with a nonzero count, so pair-wise consumers need not scan ``n x n``.
    """

    __slots__ = ("value_sum", "pos_counts", "neg_counts", "_pair_keys")

    def __init__(self, n_nodes: int) -> None:
        self.value_sum = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        self.pos_counts = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        self.neg_counts = np.zeros((n_nodes, n_nodes), dtype=np.float64)
        # Sorted keys of the rated pairs when the writer knows them (the
        # ledger's batched path); None means "scan the counts".
        self._pair_keys: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.value_sum.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Total rating counts per rater-ratee pair."""
        return self.pos_counts + self.neg_counts

    def pair_keys(self) -> np.ndarray:
        """Sorted row-major keys ``i * n + j`` of the pairs with a nonzero
        count: ``np.flatnonzero(self.counts)``.

        An interval drained from a :class:`~repro.reputation.ledger.RatingLedger`
        that saw only batched writes carries the keys those writes touched;
        any other interval scans its counts once per call.  Intervals are
        immutable by convention once drained, so the carried keys stay
        those of the counts.
        """
        if self._pair_keys is not None:
            return self._pair_keys
        return np.flatnonzero(self.counts)

    def add(self, rating: Rating) -> None:
        self.value_sum[rating.rater, rating.ratee] += rating.value
        if rating.value >= 0:
            self.pos_counts[rating.rater, rating.ratee] += 1
        else:
            self.neg_counts[rating.rater, rating.ratee] += 1
        self._pair_keys = None

    def _with_values(self, value_sum: np.ndarray) -> "IntervalRatings":
        """An interval over ``value_sum`` that shares this one's count
        arrays and pair keys (no reputation backend writes the counts)."""
        out = IntervalRatings.__new__(IntervalRatings)
        out.value_sum = value_sum
        out.pos_counts = self.pos_counts
        out.neg_counts = self.neg_counts
        out._pair_keys = self._pair_keys
        return out

    def scaled(self, weights: np.ndarray) -> "IntervalRatings":
        """Return an interval with ``value_sum`` multiplied element-wise by
        ``weights``.

        Counts are preserved (shared with this interval): SocialTrust damps
        the *influence* of suspected ratings, it does not pretend they never
        happened (the frequency observations remain available to downstream
        consumers).
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != self.value_sum.shape:
            raise ValueError(
                f"weight matrix shape {w.shape} != {self.value_sum.shape}"
            )
        return self._with_values(np.multiply(self.value_sum, w))

    def scaled_pairs(
        self, raters: np.ndarray, ratees: np.ndarray, weights: np.ndarray
    ) -> "IntervalRatings":
        """:meth:`scaled` by a weight matrix that is 1.0 except at the
        given distinct pairs, without building that matrix: only
        ``value_sum`` is copied, and multiplied only at the pairs, which
        gives the same bits (``x * 1.0 == x``)."""
        value_sum = self.value_sum.copy()
        value_sum[raters, ratees] *= weights
        return self._with_values(value_sum)

    def copy(self) -> "IntervalRatings":
        out = IntervalRatings(self.n_nodes)
        out.value_sum[:] = self.value_sum
        out.pos_counts[:] = self.pos_counts
        out.neg_counts[:] = self.neg_counts
        out._pair_keys = self._pair_keys
        return out


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
