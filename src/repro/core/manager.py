"""Distributed SocialTrust — the resource-manager protocol of Section 4.3.

In a large decentralised P2P network no single party holds all ratings and
social information.  The paper assigns each node a *resource manager* that
collects the ratings for the nodes it manages, tracks per-rater rating
frequencies, and — when a rater trips a frequency threshold — contacts the
rater's own manager for the social information (friend list, interest set)
needed to judge the pair and adjust the rating.

This module emulates that protocol faithfully at the information-flow
level:

* node → manager assignment is explicit and configurable;
* per interval, each ratee-side manager reports incoming ratings to the
  corresponding rater-side managers (one batched ``rating_report`` message
  per manager pair that actually exchanged ratings);
* each suspected pair whose rater and ratee live under *different*
  managers costs one ``info_request`` / ``info_response`` round trip;
* the numerical judgement each rater-side manager performs is exactly the
  centralised detector's — so :class:`DistributedSocialTrust` provably
  produces reputations identical to :class:`~repro.core.socialtrust.SocialTrust`
  while exposing the message-complexity of the distributed execution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import CollusionDetector, DetectionResult, Finding
from repro.core.similarity import SimilarityComputer
from repro.core.sparse import (
    SparseClosenessComputer,
    SparseSimilarityComputer,
    coefficient_computers,
)
from repro.faults.injector import FaultInjector
from repro.obs import NULL_TRACER, Observability
from repro.p2p.dht import ChordRing
from repro.reputation.base import IntervalRatings, ReputationSystem
from repro.social.graph import SocialView
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles

__all__ = ["MESSAGE_KINDS", "ResourceManager", "DistributedSocialTrust"]


#: The protocol's message vocabulary (Section 4.3): batched rating
#: notices plus the social-information round trip.
MESSAGE_KINDS = frozenset({"rating_report", "info_request", "info_response"})


@dataclass
class ResourceManager:
    """One trustworthy manager node responsible for a subset of peers."""

    manager_id: int
    managed: frozenset[int]
    #: Messages sent by this manager, keyed by message kind.
    messages_sent: Counter = field(default_factory=Counter)

    def record_message(self, kind: str, count: int = 1) -> None:
        if kind not in MESSAGE_KINDS:
            raise ValueError(
                f"unknown message kind {kind!r}; expected one of "
                f"{sorted(MESSAGE_KINDS)}"
            )
        if count < 0:
            raise ValueError("message count must be non-negative")
        if count == 0:
            # Recording zero messages must not materialise a zero-count
            # Counter row — that would skew message-kind enumeration in
            # reports built from ``messages_sent`` keys.
            return
        self.messages_sent[kind] += count

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())


class DistributedSocialTrust(ReputationSystem):
    """SocialTrust executed across a set of resource managers.

    Parameters mirror :class:`~repro.core.socialtrust.SocialTrust`, plus
    ``n_managers`` (nodes are assigned round-robin) or an explicit
    ``assignment`` array mapping node id → manager id.
    """

    def __init__(
        self,
        inner: ReputationSystem,
        social_view: SocialView,
        interactions: InteractionLedger,
        profiles: InterestProfiles,
        config: SocialTrustConfig | None = None,
        *,
        n_managers: int = 4,
        assignment: Sequence[int] | None = None,
        ring: "ChordRing | None" = None,
        injector: "FaultInjector | None" = None,
        observability: Observability | None = None,
    ) -> None:
        super().__init__(inner.n_nodes)
        n = inner.n_nodes
        if assignment is not None:
            assign = np.asarray(assignment, dtype=np.int64)
            if assign.shape != (n,):
                raise ValueError(
                    f"assignment must have one entry per node ({n}), got "
                    f"shape {assign.shape}"
                )
            if assign.min() < 0:
                raise ValueError("manager ids must be non-negative")
        else:
            if n_managers < 1:
                raise ValueError(f"n_managers must be >= 1, got {n_managers}")
            assign = np.arange(n, dtype=np.int64) % n_managers
        self._assignment = assign
        assigned_ids = set(int(m) for m in assign)
        if ring is not None and not assigned_ids <= set(ring.managers):
            missing = sorted(assigned_ids - set(ring.managers))
            raise ValueError(f"assignment uses managers not on the ring: {missing}")
        self._ring = ring
        # Every ring participant gets a ResourceManager (possibly with no
        # managed nodes) so failover targets can be charged for messages.
        manager_ids = sorted(assigned_ids | set(ring.managers if ring else ()))
        self._managers = {
            m: ResourceManager(
                manager_id=m,
                managed=frozenset(int(x) for x in np.flatnonzero(assign == m)),
            )
            for m in manager_ids
        }
        self._injector = injector
        if injector is not None:
            if injector.n_nodes != n:
                raise ValueError(
                    f"fault injector covers {injector.n_nodes} nodes, "
                    f"system has {n}"
                )
            injector.register_managers(manager_ids)
            if self._ring is None:
                # Failover needs a ring to agree on crash successors.
                self._ring = ChordRing(manager_ids)
        self._inner = inner
        self._config = config or SocialTrustConfig()
        self._obs = observability
        self._tracer = (
            observability.tracer if observability is not None else NULL_TRACER
        )
        self._closeness, self._similarity = coefficient_computers(
            social_view, interactions, profiles, self._config,
            observability=observability,
        )
        self._detector = CollusionDetector(
            self._closeness, self._similarity, self._config,
            observability=observability,
        )
        self._rated_mask = np.zeros((n, n), dtype=bool)
        self._flag_counts = np.zeros((n, n), dtype=np.int64)
        self._last_result: DetectionResult | None = None
        #: Weights applied in the previous interval — what a Byzantine
        #: manager in ``"stale"`` mode replays for its rows.
        self._last_weights: np.ndarray | None = None

    @property
    def name(self) -> str:
        return f"{self._inner.name}+SocialTrust(distributed)"

    @property
    def inner(self) -> ReputationSystem:
        return self._inner

    @property
    def managers(self) -> tuple[ResourceManager, ...]:
        return tuple(self._managers.values())

    @property
    def last_detection(self) -> DetectionResult | None:
        return self._last_result

    @property
    def closeness_computer(self) -> ClosenessComputer | SparseClosenessComputer:
        return self._closeness

    @property
    def similarity_computer(self) -> SimilarityComputer | SparseSimilarityComputer:
        return self._similarity

    def manager_of(self, node: int) -> ResourceManager:
        return self._managers[int(self._assignment[node])]

    @property
    def ring(self) -> "ChordRing | None":
        return self._ring

    @property
    def injector(self) -> "FaultInjector | None":
        return self._injector

    def effective_manager_of(self, node: int) -> ResourceManager | None:
        """The manager currently serving ``node`` — its home manager, or
        the Chord-ring failover successor while the home manager is down;
        ``None`` only when every manager is down."""
        serving = self._serving_managers()
        mid = serving[int(self._assignment[node])]
        return self._managers[mid] if mid is not None else None

    @property
    def total_messages(self) -> int:
        return sum(m.total_messages for m in self._managers.values())

    def _serving_managers(self) -> dict[int, int | None]:
        """home manager id → id of the manager currently serving its nodes.

        Fault-free (no injector, or nothing down) this is the identity.
        A down manager's nodes are re-assigned to its first live ring
        successor — a deterministic, coordination-free rule every
        surviving manager can evaluate locally.  ``None`` marks a home
        whose entire ring is down.
        """
        if self._injector is None:
            return {mid: mid for mid in self._managers}
        down = self._injector.down_managers() & set(self._managers)
        if not down:
            return {mid: mid for mid in self._managers}
        ring = self._ring
        assert ring is not None  # always built when an injector is attached
        serving: dict[int, int | None] = {}
        for mid in self._managers:
            if mid not in down:
                serving[mid] = mid
                continue
            successor: int | None = mid
            for _ in range(len(self._managers)):
                successor = ring.successor_of(successor)
                if successor not in down:
                    break
            else:
                successor = None
            serving[mid] = successor
        return serving

    def _account_rating_reports(
        self, interval: IntervalRatings, serving: dict[int, int | None]
    ) -> None:
        """Charge the interval's batched rating reports to their senders.

        The ratee's manager batches "your node n_i rated n_j k times
        (value v)" notices to each distinct rater-side manager.  Reports
        ride the lossy transport when a fault injector is attached; a lost
        report is retried with backoff and — failing that — re-batched
        into the next interval's report, so loss costs retries and
        latency, never rating information (the emulation keeps the
        information flow eventually consistent).
        """
        rater_idx, ratee_idx = np.nonzero(interval.counts)
        if not rater_idx.size:
            return
        assign = self._assignment
        transport = self._injector.transport if self._injector is not None else None
        pair_managers = set(
            zip(assign[ratee_idx].tolist(), assign[rater_idx].tolist())
        )
        injector = self._injector
        for ratee_home, rater_home in pair_managers:
            sender = serving[ratee_home]
            receiver = serving[rater_home]
            if sender is None or receiver is None or sender == receiver:
                continue
            if (
                injector is not None
                and injector.partition_active
                and injector.manager_side(sender) != injector.manager_side(receiver)
            ):
                # Opposite sides of an active partition: the report cannot
                # cross; it stays queued and is re-batched after heal.
                injector.metrics.record_partition_block()
                continue
            self._managers[sender].record_message("rating_report")
            if transport is not None:
                transport.send("rating_report")

    def _successor_replica(
        self, manager_id: int, rater_mgr: int
    ) -> int | None:
        """First live ring successor of ``manager_id`` reachable from
        ``rater_mgr`` (same partition side), or ``None``.

        The degradation ladder's second rung: the ring successor holds a
        replica of its predecessor's social information (the standard
        Chord successor-list recipe), so a failed primary round trip is
        retried once against it before giving up.
        """
        ring = self._ring
        injector = self._injector
        if ring is None:
            return None
        down = injector.down_managers() if injector is not None else frozenset()
        successor = int(manager_id)
        for _ in range(len(self._managers)):
            successor = ring.successor_of(successor)
            if successor == manager_id:
                return None
            if successor in down:
                continue
            if injector is not None and injector.partition_active:
                if injector.manager_side(successor) != injector.manager_side(
                    rater_mgr
                ):
                    continue
            return successor
        return None

    def _audit_degradation(
        self,
        finding: Finding,
        decision: str,
        weight: float,
        interval: IntervalRatings,
        result: DetectionResult,
    ) -> None:
        """Record one degradation-ladder outcome in the detector audit
        log, stamped with the interval the detector just analyzed."""
        if self._obs is None:
            return
        from repro.obs import AuditEvent

        interval_index = self._detector.last_interval_index
        if interval_index is None:
            return
        behaviors = tuple(
            name
            for name in ("B1", "B2", "B3", "B4")
            if getattr(type(finding.reasons), name) in finding.reasons
        )
        self._obs.audit.record(
            AuditEvent(
                interval=interval_index,
                rater=finding.rater,
                ratee=finding.ratee,
                decision=decision,
                behaviors=behaviors,
                fired=(),
                closeness=float(finding.closeness),
                similarity=float(finding.similarity),
                weight=float(weight),
                pos_count=float(interval.pos_counts[finding.rater, finding.ratee]),
                neg_count=float(interval.neg_counts[finding.rater, finding.ratee]),
                thresholds=result.thresholds.as_dict(),
            )
        )
        self._obs.metrics.counter(f"manager.degraded.{decision}").inc()
        # Roll-up across decisions — what the degradation-ladder SLO
        # rule reads without enumerating decision names.
        self._obs.metrics.counter("manager.degraded.total").inc()

    def _corrupt_byzantine_rows(
        self,
        weights: np.ndarray,
        interval: IntervalRatings,
        serving: dict[int, int | None],
    ) -> None:
        """Overwrite the rows served by Byzantine managers in place.

        A Byzantine manager keeps answering the protocol but lies about
        the damping weights for its nodes' outgoing ratings:
        ``"suppress"`` reports no damping at all, ``"stale"`` replays the
        weights it applied in the previous interval, and ``"corrupt"``
        dampens every rated pair in its rows indiscriminately.
        """
        injector = self._injector
        if injector is None:
            return
        bad = injector.byzantine_managers() & set(self._managers)
        if not bad:
            return
        mode = injector.config.byzantine_mode
        neutral = self._config.neutral_damping
        corrupted_rows = 0
        for mid in sorted(bad):
            manager = self._managers[mid]
            if not manager.managed or serving.get(mid) != mid:
                continue
            rows = sorted(manager.managed)
            if mode == "suppress":
                weights[rows, :] = 1.0
            elif mode == "stale":
                if self._last_weights is not None:
                    weights[rows, :] = self._last_weights[rows, :]
                else:
                    weights[rows, :] = 1.0
            else:  # "corrupt"
                sub = weights[rows, :]
                sub[interval.counts[rows, :] > 0] = neutral
                weights[rows, :] = sub
            corrupted_rows += len(rows)
        if corrupted_rows:
            injector.metrics.record_byzantine_corruption(corrupted_rows)

    def _failover_weights(
        self, result: DetectionResult, interval: IntervalRatings
    ) -> np.ndarray:
        """Compose the damping weights the managers actually apply.

        Fault-free this reproduces the centralised weight matrix exactly:
        each rater-side manager applies the detector's adjustment to its
        own nodes' outgoing ratings, and the row slices compose the full
        matrix.  Under faults, a down manager's rows are applied by its
        ring successor (same numbers — the judgement is deterministic
        given the social information), counted as reassignments, and each
        suspected cross-manager pair walks the explicit
        :class:`~repro.faults.policy.DegradationTier` ladder for its
        ``info_request`` / ``info_response`` round trip:

        1. **retry** — the transport retries the primary route under the
           unified :class:`~repro.faults.policy.RetryPolicy`;
        2. **successor** — a failed primary is retried once against the
           ratee-side manager's first live ring successor (its replica);
        3. **neutral damping** — both routes failed (or no live manager
           holds the information): the pair gets the conservative
           ``neutral_damping`` weight, recorded as a fallback and as a
           ``degraded_neutral`` audit event;
        4. **skip** — the ratee-side manager sits across an active
           network partition, so it is provably unreachable until heal:
           the judgement is deferred (the rating passes undamped this
           interval), counted as a partition block and audited as
           ``skipped``.

        Finally, any Byzantine manager's rows are overwritten with its
        lie (see :meth:`_corrupt_byzantine_rows`).
        """
        serving = self._serving_managers()
        weights = np.ones_like(result.weights)
        injector = self._injector
        metrics = injector.metrics if injector is not None else None
        neutral = self._config.neutral_damping
        all_down = all(mid is None for mid in serving.values())
        if all_down:
            for finding in result.findings:
                weights[finding.rater, finding.ratee] = neutral
                assert metrics is not None
                metrics.record_fallback()
                self._audit_degradation(
                    finding, "degraded_neutral", neutral, interval, result
                )
            self._last_weights = weights.copy()
            return weights
        for home, manager in self._managers.items():
            if not manager.managed:
                continue
            rows = sorted(manager.managed)
            weights[rows, :] = result.weights[rows, :]
            if serving[home] != home and metrics is not None:
                metrics.record_reassignment(len(rows))
        transport = injector.transport if injector is not None else None
        for finding in result.findings:
            rater_mgr = serving[int(self._assignment[finding.rater])]
            ratee_mgr = serving[int(self._assignment[finding.ratee])]
            if rater_mgr == ratee_mgr and rater_mgr is not None:
                continue  # social information is local to the manager
            if rater_mgr is None or ratee_mgr is None:
                weights[finding.rater, finding.ratee] = neutral
                assert metrics is not None
                metrics.record_fallback()
                self._audit_degradation(
                    finding, "degraded_neutral", neutral, interval, result
                )
                continue
            if (
                injector is not None
                and injector.partition_active
                and injector.manager_side(rater_mgr)
                != injector.manager_side(ratee_mgr)
            ):
                # Tier 4: provably unreachable until the partition heals —
                # defer the judgement instead of damping on local evidence.
                weights[finding.rater, finding.ratee] = 1.0
                assert metrics is not None
                metrics.record_partition_block()
                self._audit_degradation(finding, "skipped", 1.0, interval, result)
                continue
            if transport is None or transport.send("info_request").delivered:
                # Tier 1: primary route (with transport-level retries).
                self._managers[rater_mgr].record_message("info_request")
                self._managers[ratee_mgr].record_message("info_response")
                continue
            replica = self._successor_replica(ratee_mgr, rater_mgr)
            if (
                replica is not None
                and transport is not None
                and transport.send("info_request").delivered
            ):
                # Tier 2: the ratee-side manager's replica answered.
                self._managers[rater_mgr].record_message("info_request")
                self._managers[replica].record_message("info_response")
                continue
            # Tier 3: neutral damping.
            weights[finding.rater, finding.ratee] = neutral
            assert metrics is not None
            metrics.record_fallback()
            self._audit_degradation(
                finding, "degraded_neutral", neutral, interval, result
            )
        self._corrupt_byzantine_rows(weights, interval, serving)
        self._last_weights = weights.copy()
        return weights

    def update(self, interval: IntervalRatings) -> np.ndarray:
        self._check_interval(interval)
        with self._tracer.span("detector.analyze") as span:
            result = self._detector.analyze(
                interval, self._inner.reputations, self._rated_mask,
                self._flag_counts,
            )
            span.set("findings", result.n_adjusted)
        self._last_result = result
        self._account_rating_reports(interval, self._serving_managers())
        self._rated_mask |= interval.counts > 0
        np.fill_diagonal(self._rated_mask, False)
        self._flag_counts[result.pairs[:, 0], result.pairs[:, 1]] += 1
        with self._tracer.span("manager.failover_weights"):
            weights = self._failover_weights(result, interval)
        self._publish_manager_metrics()
        adjusted = interval.scaled(weights)
        with self._tracer.span("reputation.inner_update", system=self._inner.name):
            return self._inner.update(adjusted)

    def _publish_manager_metrics(self) -> None:
        """Mirror cumulative manager/fault counters into the registry.

        Gauges, because the underlying counters (``messages_sent``, the
        shared :class:`~repro.faults.metrics.FaultMetrics`) are already
        cumulative over the run.
        """
        if self._obs is None:
            return
        registry = self._obs.metrics
        registry.gauge("manager.messages_total").set(self.total_messages)
        kinds: Counter = Counter()
        for manager in self._managers.values():
            kinds.update(manager.messages_sent)
        for kind, count in kinds.items():
            registry.gauge(f"manager.messages.{kind}").set(count)
        if self._injector is not None:
            faults = self._injector.metrics
            registry.gauge("manager.fallbacks").set(faults.fallbacks)
            registry.gauge("manager.reassignments").set(faults.reassignments)
            registry.gauge("manager.partition_blocks").set(faults.partition_blocks)
            registry.gauge("manager.byzantine_corruptions").set(
                faults.byzantine_corruptions
            )

    @property
    def reputations(self) -> np.ndarray:
        return self._inner.reputations

    def reset(self) -> None:
        self._inner.reset()
        self._detector.reset()
        self._rated_mask[:] = False
        self._flag_counts[:] = 0
        self._last_result = None
        self._last_weights = None
        for manager in self._managers.values():
            manager.messages_sent.clear()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Mutable system state for cycle-boundary checkpoints.

        Covers the inner reputation system, the detector's interval
        counter and last result, the recidivism bookkeeping, the previous
        interval's applied weights, the per-manager message counters, and
        the Ωc/Ωs value caches (whose incremental updates are not bitwise
        equal to a fresh rebuild, so a bit-identical resume must carry
        them).
        """
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
            "last_weights": (
                None if self._last_weights is None else self._last_weights.copy()
            ),
            "messages": [
                [mid, dict(manager.messages_sent)]
                for mid, manager in sorted(self._managers.items())
            ],
            "closeness": self._closeness.state_dict(),
            "similarity": self._similarity.state_dict(),
        }

    def restore_state(self, state: dict) -> None:
        self._inner.restore_state(state["inner"])
        self._detector.restore_state(state["detector"])
        self._rated_mask = np.asarray(state["rated_mask"], dtype=bool).copy()
        self._flag_counts = np.asarray(state["flag_counts"], dtype=np.int64).copy()
        lw = state["last_weights"]
        self._last_weights = (
            None if lw is None else np.asarray(lw, dtype=np.float64).copy()
        )
        last = state.get("last_detection")  # absent from older checkpoints
        self._last_result = (
            None if last is None else DetectionResult.from_state(last, self.n_nodes)
        )
        for manager in self._managers.values():
            manager.messages_sent.clear()
        for mid, counts in state["messages"]:
            self._managers[int(mid)].messages_sent.update(counts)
        self._closeness.restore_state(state["closeness"])
        self._similarity.restore_state(state["similarity"])
