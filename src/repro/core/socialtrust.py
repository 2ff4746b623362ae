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
from repro.core.detector import CollusionDetector, DetectionResult
from repro.core.similarity import SimilarityComputer
from repro.core.sparse import (
    SparseClosenessComputer,
    SparseSimilarityComputer,
    coefficient_computers,
)
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
        self._closeness, self._similarity = coefficient_computers(
            social_view, interactions, profiles, self._config,
            observability=observability,
        )
        self._detector = CollusionDetector(
            self._closeness, self._similarity, self._config,
            observability=observability,
        )
        self._rated_mask = np.zeros((inner.n_nodes, inner.n_nodes), dtype=bool)
        self._flag_counts = np.zeros((inner.n_nodes, inner.n_nodes), dtype=np.int64)
        self._last_result: DetectionResult | None = None

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
    def closeness_computer(self) -> ClosenessComputer | SparseClosenessComputer:
        return self._closeness

    @property
    def similarity_computer(self) -> SimilarityComputer | SparseSimilarityComputer:
        return self._similarity

    @property
    def last_detection(self) -> DetectionResult | None:
        """Detector output of the most recent :meth:`update` (None before any)."""
        return self._last_result

    def update(self, interval: IntervalRatings) -> np.ndarray:
        self._check_interval(interval)
        with self._tracer.span("detector.analyze") as span:
            result = self._detector.analyze(
                interval, self._inner.reputations, self._rated_mask,
                self._flag_counts,
            )
            span.set("findings", result.n_adjusted)
        self._last_result = result
        self._rated_mask |= interval.counts > 0
        np.fill_diagonal(self._rated_mask, False)
        self._flag_counts[result.pairs[:, 0], result.pairs[:, 1]] += 1
        adjusted = interval.scaled(result.weights)
        with self._tracer.span("reputation.inner_update", system=self._inner.name):
            return self._inner.update(adjusted)

    @property
    def reputations(self) -> np.ndarray:
        return self._inner.reputations

    def pair_weight(self, rater: int, ratee: int) -> float:
        """Live Gaussian damping weight for one rater→ratee pair.

        Reads the most recent detector result without recomputing
        anything — the streaming service's damping-query path.  1.0 when
        the pair was not adjusted last interval (or before any update).
        """
        if not (0 <= rater < self.n_nodes and 0 <= ratee < self.n_nodes):
            raise ValueError(
                f"pair ({rater}, {ratee}) out of range [0, {self.n_nodes})"
            )
        if self._last_result is None:
            return 1.0
        return float(self._last_result.weights[rater, ratee])

    @property
    def flag_counts(self) -> np.ndarray:
        """Read-only per-pair count of intervals each pair was flagged in."""
        view = self._flag_counts.view()
        view.flags.writeable = False
        return view

    def reset(self) -> None:
        self._inner.reset()
        self._detector.reset()
        self._rated_mask[:] = False
        self._flag_counts[:] = 0
        self._last_result = None

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Inner system, detector interval counter and last result
        (what :meth:`pair_weight` answers from), recidivism bookkeeping,
        and the Ωc/Ωs value caches (whose incremental updates are not
        bitwise equal to a fresh rebuild)."""
        return {
            "inner": self._inner.state_dict(),
            "detector": self._detector.state_dict(),
            "last_detection": (
                None
                if self._last_result is None
                else self._last_result.state_dict()
            ),
            "rated_mask": self._rated_mask.copy(),
            "flag_counts": self._flag_counts.copy(),
            "closeness": self._closeness.state_dict(),
            "similarity": self._similarity.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        self._inner.restore_state(state["inner"])
        self._detector.restore_state(state["detector"])
        self._rated_mask = np.asarray(state["rated_mask"], dtype=bool).copy()
        self._flag_counts = np.asarray(state["flag_counts"], dtype=np.int64).copy()
        last = state.get("last_detection")  # absent from older checkpoints
        self._last_result = (
            None if last is None else DetectionResult.from_state(last, self.n_nodes)
        )
        self._closeness.restore_state(state["closeness"])
        self._similarity.restore_state(state["similarity"])
