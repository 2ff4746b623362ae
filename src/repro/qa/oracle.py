"""The seed scalar query loop, kept as a test-only oracle.

:class:`ScalarQueryOracle` is the original per-client query-cycle loop
of :class:`~repro.p2p.simulator.Simulation`: one ``Generator.choice``
per interest draw, one :func:`~repro.p2p.selection.select_server` per
request and four Python-level ledger/metric ``record`` calls, made as
each request is served.  It exposes the
:class:`~repro.p2p.engine.BatchedQueryEngine` interface
(:meth:`~ScalarQueryOracle.run_interval`), so :func:`use_oracle` can
substitute it for a built simulation's engine.  The engine equivalence
tests, ``repro qa diff``, the engine fuzz twin and the engine benchmark
compare the batched engine against it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.p2p.selection import select_server
from repro.p2p.simulator import Simulation
from repro.reputation.base import Rating

__all__ = ["ScalarQueryOracle", "use_oracle"]


class ScalarQueryOracle:
    """The seed per-client query loop over one simulation's parts."""

    def __init__(self, simulation: Simulation) -> None:
        self._rng = simulation._rng
        self._population = simulation.population
        self._overlay = simulation._overlay
        self._config = simulation._config
        self._collusion = simulation._collusion
        self._injector = simulation.fault_injector
        self._ledger = simulation.ledger
        self._interactions = simulation.interactions
        self._profiles = simulation.profiles
        self._metrics = simulation.metrics
        self._interest_choices = simulation._interest_choices
        self._interest_weights = simulation._interest_weights
        self._remaining_capacity = np.empty_like(self._population.capacities)
        self._reputations: np.ndarray | None = None
        self._partition: np.ndarray | None = None

    def run_interval(self, reputations: np.ndarray, query_cycles: int) -> None:
        """Run one simulation cycle's ``query_cycles`` query cycles."""
        self._begin_interval(reputations)
        for _ in range(query_cycles):
            self._run_query_cycle()

    def _begin_interval(self, reputations: np.ndarray) -> None:
        """Pin the interval's reputations and partition side mask."""
        self._reputations = reputations
        injector = self._injector
        self._partition = (
            injector.partition_mask
            if injector is not None and injector.partition_active
            else None
        )

    def _draw_interest(self, node: int) -> int:
        choices = self._interest_choices[node]
        if choices.size == 1:
            return int(choices[0])
        return int(self._rng.choice(choices, p=self._interest_weights[node]))

    def _run_query_cycle(self) -> None:
        """One query cycle of the seed loop.

        ``partition`` is the injector's boolean side mask during a network
        partition: clients can only reach servers on their own side, and
        cross-side collusion bursts cannot happen either.
        """
        remaining_capacity = self._remaining_capacity
        partition = self._partition
        rng = self._rng
        population = self._population
        reputations = self._reputations
        active_draw = rng.random(population.n_nodes)
        np.copyto(remaining_capacity, population.capacities)
        # Departed peers neither issue nor serve queries.  The mask is
        # only consulted when someone is actually offline, so a zero-rate
        # injector leaves the run bit-identical to an injector-free one.
        online = self._injector.online_mask if self._injector is not None else None
        churned = online is not None and not online.all()
        for client in rng.permutation(population.n_nodes):
            client = int(client)
            if churned and not online[client]:
                continue
            if active_draw[client] >= population.activity_probs[client]:
                continue
            interest = self._draw_interest(client)
            candidates = self._overlay.candidate_servers(client, interest)
            if churned:
                candidates = candidates[online[candidates]]
            if partition is not None:
                candidates = candidates[
                    partition[candidates] == partition[client]
                ]
            server = select_server(
                candidates,
                reputations,
                remaining_capacity,
                rng,
                threshold=self._config.selection_threshold,
                policy=self._config.selection_policy,
                exploration=self._config.selection_exploration,
            )
            if server is None:
                self._metrics.record_unserved(client)
                continue
            remaining_capacity[server] -= 1
            authentic = rng.random() < population.authentic_probs[server]
            value = 1.0 if authentic else -1.0
            self._ledger.record(
                Rating(rater=client, ratee=server, value=value, interest=interest)
            )
            self._interactions.record(client, server)
            self._profiles.record_request(client, interest)
            self._metrics.record_request(client, server)
        # Collusion bursts: ratings + interactions, no genuine requests.
        # Offline colluders cannot exchange ratings either, and a network
        # partition silences cross-side rating exchange.
        for burst in self._collusion.bursts(rng):
            if churned and not (online[burst.rater] and online[burst.ratee]):
                continue
            if partition is not None and partition[burst.rater] != partition[burst.ratee]:
                self._metrics.faults.record_partition_block()
                continue
            self._ledger.record_batch(
                burst.rater, burst.ratee, burst.value, burst.count
            )
            self._interactions.record(burst.rater, burst.ratee, burst.count)


def use_oracle(simulation: Simulation) -> ScalarQueryOracle:
    """Run ``simulation``'s query cycles on the scalar oracle from now on.

    Call before the first cycle; returns the installed oracle.
    """
    oracle = ScalarQueryOracle(simulation)
    simulation._engine = oracle
    return oracle
