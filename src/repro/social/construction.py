"""Incremental social-network construction — the paper's Section-4 plugin.

"If a P2P network already has a social network ... SocialTrust can directly
use the social network.  Otherwise, SocialTrust provides a plugin for the
social network construction.  It requires users to enter their interest
information and establish friend relationships ... SocialTrust maintains a
record of interactions among users."

:class:`SocialNetworkBuilder` is that plugin: an append-only event API a
live P2P application calls as things happen — users join, declare
interests, befriend each other, request resources, rate transactions —
which maintains exactly the three stores the SocialTrust stack consumes
(a :class:`~repro.social.graph.SocialGraph`, an
:class:`~repro.social.interactions.InteractionLedger`, an
:class:`~repro.social.interests.InterestProfiles`) plus a
:class:`~repro.reputation.ledger.RatingLedger` for the current reputation
interval.

Capacity grows on demand: node ids just need to be registered before use;
the fixed-size NumPy stores are re-allocated geometrically under the hood.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.reputation.base import Rating
from repro.reputation.ledger import RatingLedger
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles

__all__ = ["SocialNetworkBuilder"]


class SocialNetworkBuilder:
    """Append-only event API building the SocialTrust input stores.

    Parameters
    ----------
    n_interests:
        Size of the interest-category universe.
    initial_capacity:
        Node slots pre-allocated; grows geometrically as users register.
    """

    def __init__(self, n_interests: int, *, initial_capacity: int = 16) -> None:
        if n_interests <= 0:
            raise ValueError(f"n_interests must be positive, got {n_interests}")
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self._k = int(n_interests)
        self._capacity = int(initial_capacity)
        self._n = 0
        self._graph = SocialGraph(self._capacity)
        self._interactions = InteractionLedger(self._capacity)
        self._profiles = InterestProfiles(self._capacity, self._k)
        self._ratings = RatingLedger(self._capacity)

    # -- registration ---------------------------------------------------------

    @property
    def n_users(self) -> int:
        return self._n

    def register_user(self, interests: Iterable[int]) -> int:
        """Add a user with its declared interests; returns the new user id."""
        user_id = self._n
        if user_id >= self._capacity:
            self._grow(max(self._capacity * 2, user_id + 1))
        self._n += 1
        self._profiles.set_declared(user_id, interests)
        return user_id

    def _grow(self, new_capacity: int) -> None:
        old_graph = self._graph
        old_interactions = self._interactions
        old_profiles = self._profiles
        old_ratings = self._ratings

        self._graph = SocialGraph(new_capacity)
        for a, b in old_graph.edges():
            self._graph.add_friendship(a, b, old_graph.relationships(a, b))

        self._interactions = InteractionLedger(new_capacity)
        counts = old_interactions.counts_matrix()
        nz = np.argwhere(counts > 0)
        for i, j in nz:
            self._interactions.record(int(i), int(j), float(counts[i, j]))

        self._profiles = InterestProfiles(new_capacity, self._k)
        for node in range(self._n):
            declared = old_profiles.declared(node)
            if declared:
                self._profiles.set_declared(node, declared)
            requests = old_profiles.request_counts(node)
            for interest in np.flatnonzero(requests > 0):
                self._profiles.record_request(
                    node, int(interest), float(requests[interest])
                )

        self._ratings = RatingLedger(new_capacity)
        pending = old_ratings.peek()
        counts = pending.pos + pending.neg
        rows, cols = np.divmod(pending.pair_keys(), old_ratings.n_nodes)
        for k in np.flatnonzero(counts > 0):
            value = pending.value[k] / counts[k]
            self._ratings.record_batch(
                int(rows[k]), int(cols[k]), float(value), int(counts[k])
            )

        self._capacity = new_capacity

    def _check_user(self, user: int) -> int:
        if not 0 <= user < self._n:
            raise IndexError(f"unknown user {user}; register users first")
        return user

    # -- events -----------------------------------------------------------------

    def add_friendship(
        self, a: int, b: int, relationships: Iterable[Relationship] | None = None
    ) -> None:
        """Record an accepted friend invitation (optionally typed ties)."""
        self._check_user(a)
        self._check_user(b)
        self._graph.add_friendship(a, b, relationships)

    def record_request(self, requester: int, provider: int, interest: int) -> None:
        """Record a genuine resource request: interaction + interest trace."""
        self._check_user(requester)
        self._check_user(provider)
        self._interactions.record(requester, provider)
        self._profiles.record_request(requester, interest)

    def record_rating(
        self, rater: int, ratee: int, value: float, *, interest: int | None = None
    ) -> None:
        """Record a service rating (counts as an interaction, per the paper)."""
        self._check_user(rater)
        self._check_user(ratee)
        self._ratings.record(
            Rating(rater=rater, ratee=ratee, value=value, interest=interest)
        )
        self._interactions.record(rater, ratee)

    # -- consumption ---------------------------------------------------------

    @property
    def graph(self) -> SocialGraph:
        """The personal network built so far."""
        return self._graph

    @property
    def interactions(self) -> InteractionLedger:
        return self._interactions

    @property
    def profiles(self) -> InterestProfiles:
        return self._profiles

    def drain_interval(self):
        """Close the current reputation interval (for ``system.update``)."""
        return self._ratings.drain()

    def build_socialtrust(self, base_system, config=None):
        """Wrap ``base_system`` with SocialTrust over the built stores.

        The stores must be at their final capacity: register all expected
        users first (or over-provision ``initial_capacity``), because the
        SocialTrust wrapper holds references to the live store objects.
        """
        from repro.core import SocialTrust

        if base_system.n_nodes != self._capacity:
            raise ValueError(
                f"base system covers {base_system.n_nodes} nodes but the "
                f"builder's stores are sized {self._capacity}; construct "
                f"the base system with n_nodes={self._capacity}"
            )
        return SocialTrust(
            base_system, self._graph, self._interactions, self._profiles, config
        )
