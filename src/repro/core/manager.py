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
  centralised detector's: :class:`DistributedSocialTrust` is a
  :class:`~repro.core.socialtrust.SocialTrust` whose one override, the
  ``_adjust`` hook, runs the protocol (message accounting, failover and
  degradation tiers, Byzantine rows).  With no fault active the hook
  applies the detector's weights unchanged, so the reputations equal the
  centralised wrapper's by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.config import SocialTrustConfig
from repro.core.detector import _BEHAVIORS, DetectionResult, Finding
from repro.core.socialtrust import SocialTrust
from repro.faults.injector import FaultInjector
from repro.obs import Observability
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


class DistributedSocialTrust(SocialTrust):
    """SocialTrust executed across a set of resource managers.

    Parameters are :class:`~repro.core.socialtrust.SocialTrust`'s, plus
    ``n_managers`` (nodes are assigned round-robin) or an explicit
    ``assignment`` array mapping node id → manager id, and an optional
    Chord ``ring`` and fault ``injector``.

    Only :meth:`_adjust` is overridden.  :meth:`pair_weight` still reads
    the detector's judgement; under manager faults the weight actually
    applied to a pair's ratings may differ (failover, neutral damping,
    Byzantine rows).
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
        super().__init__(
            inner, social_view, interactions, profiles, config,
            observability=observability,
        )
        n = self.n_nodes
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
        #: Weights applied in the previous interval as sorted pair keys
        #: and their weights (1.0 elsewhere) — what a Byzantine manager in
        #: ``"stale"`` mode replays for its rows.  Only kept under a fault
        #: injector (None otherwise).
        self._last_weights: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def name(self) -> str:
        return f"{self._inner.name}+SocialTrust(distributed)"

    @property
    def managers(self) -> tuple[ResourceManager, ...]:
        return tuple(self._managers.values())

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
        rater_idx, ratee_idx = np.divmod(interval.pair_keys(), self.n_nodes)
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
        assert ring is not None and injector is not None  # fault path only
        down = injector.down_managers()
        successor = int(manager_id)
        for _ in range(len(self._managers)):
            successor = ring.successor_of(successor)
            if successor == manager_id:
                return None
            if successor in down:
                continue
            if injector.partition_active:
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
        pos, neg = interval.counts_at([finding.rater * self.n_nodes + finding.ratee])
        self._obs.audit.record(
            AuditEvent(
                interval=interval_index,
                rater=finding.rater,
                ratee=finding.ratee,
                decision=decision,
                behaviors=_BEHAVIORS[finding.reasons.value],
                fired=(),
                closeness=float(finding.closeness),
                similarity=float(finding.similarity),
                weight=float(weight),
                pos_count=float(pos[0]),
                neg_count=float(neg[0]),
                thresholds=result.thresholds.as_dict(),
            )
        )
        self._obs.metrics.counter(f"manager.degraded.{decision}").inc()
        # Roll-up across decisions — what the degradation-ladder SLO
        # rule reads without enumerating decision names.
        self._obs.metrics.counter("manager.degraded.total").inc()

    def _corrupt_byzantine_rows(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        interval: IntervalRatings,
        serving: dict[int, int | None],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The applied weights with the rows served by Byzantine managers
        overwritten.

        A Byzantine manager keeps answering the protocol but lies about
        the damping weights for its nodes' outgoing ratings:
        ``"suppress"`` reports no damping at all, ``"stale"`` replays the
        weights it applied in the previous interval, and ``"corrupt"``
        dampens every rated pair in its rows indiscriminately.
        """
        injector = self._injector
        assert injector is not None  # fault path only
        lying = np.zeros(self.n_nodes, dtype=bool)
        for mid in sorted(injector.byzantine_managers() & set(self._managers)):
            manager = self._managers[mid]
            if manager.managed and serving.get(mid) == mid:
                lying[list(manager.managed)] = True
        corrupted_rows = int(np.count_nonzero(lying))
        if not corrupted_rows:
            return keys, weights
        injector.metrics.record_byzantine_corruption(corrupted_rows)
        honest = ~lying[keys // self.n_nodes]
        keys, weights = keys[honest], weights[honest]
        mode = injector.config.byzantine_mode
        if mode == "stale" and self._last_weights is not None:
            last_keys, last_weights = self._last_weights
            replay = lying[last_keys // self.n_nodes]
            lie_keys, lie_weights = last_keys[replay], last_weights[replay]
        elif mode == "corrupt":
            rated = interval.pair_keys()
            lie_keys = rated[lying[rated // self.n_nodes]]
            lie_weights = np.full(lie_keys.size, self._config.neutral_damping)
        else:  # "suppress", or "stale" with nothing to replay
            return keys, weights
        # The lying rows' keys and the honest rows' keys are disjoint.
        keys = np.concatenate([keys, lie_keys])
        order = np.argsort(keys, kind="stable")
        return keys[order], np.concatenate([weights, lie_weights])[order]

    def _failover_weights(
        self, result: DetectionResult, interval: IntervalRatings
    ) -> tuple[np.ndarray, np.ndarray]:
        """Compose the damping weights the managers actually apply under
        a fault injector (fault-free, :meth:`_adjust` applies the
        detector's weights directly), as sorted pair keys and their
        weights; every other pair keeps weight 1.0.

        Each rater-side manager applies the detector's adjustment to its
        own nodes' outgoing ratings, and the row slices compose the
        detector's weights.  A down manager's rows are applied by its
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
        injector = self._injector
        assert injector is not None  # the fault-free path never gets here
        metrics = injector.metrics
        neutral = self._config.neutral_damping
        keys = result.keys
        if all(mid is None for mid in serving.values()):
            weights = np.full(keys.size, neutral)
            for finding in result.findings:
                metrics.record_fallback()
                self._audit_degradation(
                    finding, "degraded_neutral", neutral, interval, result
                )
            self._last_weights = (keys, weights)
            return keys, weights
        weights = result.pair_weights.copy()
        for home, manager in self._managers.items():
            if manager.managed and serving[home] != home:
                metrics.record_reassignment(len(manager.managed))
        transport = injector.transport
        for t, finding in enumerate(result.findings):
            rater_mgr = serving[int(self._assignment[finding.rater])]
            ratee_mgr = serving[int(self._assignment[finding.ratee])]
            if rater_mgr == ratee_mgr and rater_mgr is not None:
                continue  # social information is local to the manager
            if rater_mgr is None or ratee_mgr is None:
                weights[t] = neutral
                metrics.record_fallback()
                self._audit_degradation(
                    finding, "degraded_neutral", neutral, interval, result
                )
                continue
            if (
                injector.partition_active
                and injector.manager_side(rater_mgr)
                != injector.manager_side(ratee_mgr)
            ):
                # Tier 4: provably unreachable until the partition heals —
                # defer the judgement instead of damping on local evidence.
                weights[t] = 1.0
                metrics.record_partition_block()
                self._audit_degradation(finding, "skipped", 1.0, interval, result)
                continue
            if transport.send("info_request").delivered:
                # Tier 1: primary route (with transport-level retries).
                self._managers[rater_mgr].record_message("info_request")
                self._managers[ratee_mgr].record_message("info_response")
                continue
            replica = self._successor_replica(ratee_mgr, rater_mgr)
            if replica is not None and transport.send("info_request").delivered:
                # Tier 2: the ratee-side manager's replica answered.
                self._managers[rater_mgr].record_message("info_request")
                self._managers[replica].record_message("info_response")
                continue
            # Tier 3: neutral damping.
            weights[t] = neutral
            metrics.record_fallback()
            self._audit_degradation(
                finding, "degraded_neutral", neutral, interval, result
            )
        keys, weights = self._corrupt_byzantine_rows(keys, weights, interval, serving)
        self._last_weights = (keys, weights)
        return keys, weights

    def _adjust(
        self, interval: IntervalRatings, result: DetectionResult
    ) -> IntervalRatings:
        """The manager protocol: charge the rating reports, compose the
        weights the managers actually apply (:meth:`_failover_weights`)
        and scale the interval at their pairs.

        With no fault injector every manager serves its own nodes and
        every round trip is delivered, so the managers apply exactly the
        detector's weights: the hook charges the messages and scales the
        flagged pairs as the centralised wrapper does.
        """
        self._account_rating_reports(interval, self._serving_managers())
        with self._tracer.span("manager.failover_weights"):
            if self._injector is None:
                self._account_info_round_trips(result)
                keys, weights = result.keys, result.pair_weights
            else:
                keys, weights = self._failover_weights(result, interval)
        self._publish_manager_metrics()
        raters, ratees = np.divmod(keys, self.n_nodes)
        return interval.scaled_pairs(raters, ratees, weights)

    def _account_info_round_trips(self, result: DetectionResult) -> None:
        """Fault-free tier 1: each suspected pair whose rater and ratee
        have different managers costs the rater's manager one
        ``info_request`` and the ratee's one ``info_response``."""
        for rater_mgr, ratee_mgr in self._assignment[result.pairs].tolist():
            if rater_mgr != ratee_mgr:
                self._managers[rater_mgr].record_message("info_request")
                self._managers[ratee_mgr].record_message("info_response")

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

    def reset(self) -> None:
        super().reset()
        self._last_weights = None
        for manager in self._managers.values():
            manager.messages_sent.clear()

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """:class:`SocialTrust`'s state plus the previous interval's
        applied weights (pair keys and weights) and the per-manager
        message counters."""
        state = super().state_dict()
        state["last_weights"] = None
        if self._last_weights is not None:
            keys, weights = self._last_weights
            state["last_weights"] = {"keys": keys.copy(), "weights": weights.copy()}
        state["messages"] = [
            [mid, dict(manager.messages_sent)]
            for mid, manager in sorted(self._managers.items())
        ]
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        lw = state["last_weights"]
        if lw is None:
            self._last_weights = None
        elif isinstance(lw, dict):
            self._last_weights = (
                np.asarray(lw["keys"], dtype=np.int64).copy(),
                np.asarray(lw["weights"], dtype=np.float64).copy(),
            )
        else:  # older checkpoints: a dense n x n weight matrix
            dense = np.asarray(lw, dtype=np.float64).ravel()
            keys = np.flatnonzero(dense != 1.0)
            self._last_weights = (keys, dense[keys])
        for manager in self._managers.values():
            manager.messages_sent.clear()
        for mid, counts in state["messages"]:
            self._managers[int(mid)].messages_sent.update(counts)
