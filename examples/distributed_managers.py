#!/usr/bin/env python
"""Distributed SocialTrust: the resource-manager protocol of Section 4.3.

Runs the same colluding workload through the centralised SocialTrust
wrapper and through :class:`~repro.core.manager.DistributedSocialTrust`
with 8 resource managers, verifies both produce byte-identical global
reputations, and reports the message traffic the distributed protocol
generated (rating reports between managers, info request/response round
trips for suspected pairs).

Run:  python examples/distributed_managers.py
"""

from __future__ import annotations

import numpy as np

from repro.collusion import PairwiseCollusion
from repro.core import DistributedSocialTrust, SocialTrust
from repro.p2p import ChordRing, InterestOverlay, Population, Simulation, SimulationConfig
from repro.reputation import EigenTrust
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

N_NODES = 80
N_INTERESTS = 12
PRETRUSTED = tuple(range(4))
COLLUDERS = tuple(range(4, 16))
N_MANAGERS = 8


def build(distributed: bool):
    rng = spawn_rng(77, 0)
    population = Population.build(
        N_NODES,
        rng,
        pretrusted_ids=PRETRUSTED,
        malicious_ids=COLLUDERS,
        n_interests=N_INTERESTS,
        interests_per_node=(1, 5),
        malicious_authentic_prob=0.6,
    )
    overlay = InterestOverlay([s.interests for s in population], N_INTERESTS)
    network = paper_social_network(N_NODES, COLLUDERS, rng)
    interactions = InteractionLedger(N_NODES)
    profiles = InterestProfiles(N_NODES, N_INTERESTS)
    for spec in population:
        profiles.set_declared(spec.node_id, spec.interests)
    base = EigenTrust(N_NODES, PRETRUSTED, pretrust_weight=0.05)
    if distributed:
        # Node -> manager responsibility comes from a Chord ring, exactly
        # how the DHT-based reputation systems the paper builds on locate
        # each peer's rating store.
        ring = ChordRing(range(N_MANAGERS))
        system = DistributedSocialTrust(
            base,
            network,
            interactions,
            profiles,
            assignment=ring.assignment(N_NODES),
        )
    else:
        system = SocialTrust(base, network, interactions, profiles)
    attack = PairwiseCollusion(
        COLLUDERS, [s.interests for s in population], ratings_per_cycle=20
    )
    simulation = Simulation(
        population,
        overlay,
        system,
        rng,
        config=SimulationConfig(
            simulation_cycles=10, query_cycles_per_simulation_cycle=15
        ),
        collusion=attack,
        interactions=interactions,
        profiles=profiles,
    )
    return simulation, system


def main() -> None:
    central_sim, central = build(distributed=False)
    central_sim.run()
    dist_sim, dist = build(distributed=True)
    dist_sim.run()

    identical = np.array_equal(central.reputations, dist.reputations)
    print(f"centralised vs distributed reputations identical: {identical}")
    assert identical

    print(f"\nmessage traffic across {N_MANAGERS} resource managers "
          f"(10 reputation-update intervals):")
    total = 0
    for manager in dist.managers:
        counts = dict(manager.messages_sent)
        total += manager.total_messages
        print(f"  manager {manager.manager_id}: "
              f"{len(manager.managed)} nodes managed, "
              f"{manager.total_messages:4d} messages {counts}")
    print(f"  total: {total} messages")
    ring = ChordRing(range(N_MANAGERS))
    print(
        f"\nDHT routing overhead: locating a node's manager takes "
        f"{ring.mean_lookup_hops(N_NODES):.2f} Chord hops on average "
        f"across the {N_MANAGERS}-manager ring."
    )
    print(
        "Every suspected rater/ratee pair whose endpoints live under "
        "different managers costs one info_request/info_response round "
        "trip; rating reports are batched per manager pair per interval."
    )


if __name__ == "__main__":
    main()
