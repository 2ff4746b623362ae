"""The SocialTrust wrapper — centralised execution path.

``SocialTrust`` decorates any base :class:`~repro.reputation.base.ReputationSystem`.
Each reputation-update interval it runs the collusion detector over the
interval's rating aggregates, scales the flagged rater→ratee rating sums by
the Gaussian damping weights, and forwards the adjusted interval to the
wrapped system.  The base system's own aggregation (EigenTrust power
iteration, eBay accumulation, ...) is untouched — exactly the layering the
paper describes ("SocialTrust is built upon the reputation system of the
P2P network and re-scales node reputation values").
"""

from __future__ import annotations

import numpy as np

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import (
    CollusionDetector,
    DetectionResult,
    _merge_sorted,
    detected_pair_weight,
)
from repro.core.similarity import SimilarityComputer
from repro.obs import NULL_TRACER, Observability
from repro.reputation.base import IntervalRatings, ReputationSystem
from repro.social.graph import SocialView
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles

__all__ = ["SocialTrust"]


class SocialTrust(ReputationSystem):
    """Collusion-resilient wrapper around a base reputation system.

    Parameters
    ----------
    inner:
        The base reputation system whose ratings are filtered.
    social_view:
        The social network (friendships, relationships, distances).
    interactions:
        Directed interaction-frequency ledger (fed by the simulator; the
        paper equates interaction frequency with rating frequency).
    profiles:
        Declared interest sets plus behavioural request counters.
    config:
        Thresholds and switches; defaults follow the paper.
    """

    def __init__(
        self,
        inner: ReputationSystem,
        social_view: SocialView,
        interactions: InteractionLedger,
        profiles: InterestProfiles,
        config: SocialTrustConfig | None = None,
        *,
        observability: Observability | None = None,
    ) -> None:
        super().__init__(inner.n_nodes)
        for other, label in (
            (social_view.n_nodes, "social view"),
            (interactions.n_nodes, "interaction ledger"),
            (profiles.n_nodes, "interest profiles"),
        ):
            if other != inner.n_nodes:
                raise ValueError(
                    f"{label} covers {other} nodes but the base system has "
                    f"{inner.n_nodes}"
                )
        self._inner = inner
        self._config = config or SocialTrustConfig()
        self._obs = observability
        self._tracer = observability.tracer if observability is not None else NULL_TRACER
        self._closeness = ClosenessComputer(social_view, interactions, self._config)
        self._similarity = SimilarityComputer(profiles, self._config)
        if observability is not None:
            self._closeness.bind_metrics(observability.metrics)
        self._detector = CollusionDetector(
            self._closeness, self._similarity, self._config,
            observability=observability,
        )
        self._last_result: DetectionResult | None = None
        self._clear_history()

    def _clear_history(self) -> None:
        """Empty the per-pair history, kept as sorted row-major keys
        ``i * n + j``: the off-diagonal pairs rated in any past interval,
        and the pairs flagged in any past interval with the number of
        intervals each was flagged in."""
        self._rated = np.empty(0, dtype=np.int64)
        self._flag_keys = np.empty(0, dtype=np.int64)
        self._flag_hits = np.empty(0, dtype=np.int64)

    @property
    def name(self) -> str:
        return f"{self._inner.name}+SocialTrust"

    @property
    def inner(self) -> ReputationSystem:
        return self._inner

    @property
    def config(self) -> SocialTrustConfig:
        return self._config

    @property
    def closeness_computer(self) -> ClosenessComputer:
        return self._closeness

    @property
    def similarity_computer(self) -> SimilarityComputer:
        return self._similarity

    @property
    def last_detection(self) -> DetectionResult | None:
        """Detector output of the most recent :meth:`update` (None before any)."""
        return self._last_result

    def update(self, interval: IntervalRatings) -> np.ndarray:
        self._check_interval(interval)
        with self._tracer.span("detector.analyze") as span:
            result = self._detector.analyze(
                interval, self._inner.reputations, self._rated,
                (self._flag_keys, self._flag_hits),
            )
            span.set("findings", result.n_adjusted)
        self._last_result = result
        # Union the interval's pairs into the rated set and count its
        # adjusted pairs into the flag history, both as sorted keys.
        keys = interval.pair_keys()
        rows, cols = np.divmod(keys, self.n_nodes)
        self._rated = _merge_sorted(self._rated, keys[rows != cols])
        merged = _merge_sorted(self._flag_keys, result.keys)
        hits = np.zeros(merged.size, dtype=np.int64)
        hits[np.searchsorted(merged, self._flag_keys)] = self._flag_hits
        hits[np.searchsorted(merged, result.keys)] += 1
        self._flag_keys, self._flag_hits = merged, hits
        adjusted = self._adjust(interval, result)
        with self._tracer.span("reputation.inner_update", system=self._inner.name):
            return self._inner.update(adjusted)

    def _adjust(
        self, interval: IntervalRatings, result: DetectionResult
    ) -> IntervalRatings:
        """The interval the inner system ingests: the flagged pairs'
        rating sums scaled by their damping weights."""
        return interval.scaled_pairs(
            result.pairs[:, 0], result.pairs[:, 1], result.pair_weights
        )

    @property
    def reputations(self) -> np.ndarray:
        return self._inner.reputations

    def pair_weight(self, rater: int, ratee: int) -> float:
        """Live Gaussian damping weight for one rater→ratee pair.

        Reads the most recent detector result without recomputing
        anything — the streaming service's damping-query path.  1.0 when
        the pair was not adjusted last interval (or before any update).
        """
        return detected_pair_weight(self._last_result, self.n_nodes, rater, ratee)

    @property
    def flag_counts(self) -> np.ndarray:
        """Read-only per-pair count of intervals each pair was flagged in,
        as a dense ``n x n`` array built on each read."""
        n = self.n_nodes
        out = np.zeros(n * n, dtype=np.int64)
        out[self._flag_keys] = self._flag_hits
        out = out.reshape(n, n)
        out.flags.writeable = False
        return out

    def reset(self) -> None:
        self._inner.reset()
        self._detector.reset()
        self._clear_history()
        self._last_result = None

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Inner system, detector interval counter and last result
        (what :meth:`pair_weight` answers from), the rated and flagged
        pairs as sorted keys, and the Ωc/Ωs value caches (whose
        incremental updates are not bitwise equal to a fresh rebuild)."""
        return {
            "inner": self._inner.state_dict(),
            "detector": self._detector.state_dict(),
            "last_detection": (
                None
                if self._last_result is None
                else self._last_result.state_dict()
            ),
            "rated": self._rated.copy(),
            "flags": {"keys": self._flag_keys.copy(), "hits": self._flag_hits.copy()},
            "closeness": self._closeness.state_dict(),
            "similarity": self._similarity.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        self._inner.restore_state(state["inner"])
        self._detector.restore_state(state["detector"])
        if "rated" in state:
            self._rated = np.asarray(state["rated"], dtype=np.int64).copy()
            flags = state["flags"]
            self._flag_keys = np.asarray(flags["keys"], dtype=np.int64).copy()
            self._flag_hits = np.asarray(flags["hits"], dtype=np.int64).copy()
        else:  # older checkpoints: dense n x n mask and counts
            self._rated = np.flatnonzero(state["rated_mask"])
            counts = np.asarray(state["flag_counts"], dtype=np.int64).ravel()
            self._flag_keys = np.flatnonzero(counts)
            self._flag_hits = counts[self._flag_keys]
        last = state.get("last_detection")  # absent from older checkpoints
        self._last_result = (
            None if last is None else DetectionResult.from_state(last, self.n_nodes)
        )
        self._closeness.restore_state(state["closeness"])
        self._similarity.restore_state(state["similarity"])
