"""Batched query engine vs the scalar seed-loop oracle.

The batched engine (:mod:`repro.p2p.engine`) promises to consume the RNG
stream draw-for-draw like the seed scalar loop (:mod:`repro.qa.oracle`),
so whole simulations must come out **bit-identical** — not merely close —
across selection policies, exploration, collusion schedules, SocialTrust
variants, churn and network partitions.  These tests are the contract;
the benchmark in ``benchmarks/test_bench_engine.py`` shows the speed side
of the trade.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collusion import PairwiseCollusion
from repro.core import SocialTrust, SocialTrustConfig
from repro.core.config import CommonFriendAggregate
from repro.experiments import CollusionKind, SystemKind, WorldConfig, build_world
from repro.faults import FaultConfig, FaultInjector
from repro.p2p import (
    InterestOverlay,
    Population,
    SelectionPolicy,
    Simulation,
    SimulationConfig,
)
from repro.qa.oracle import use_oracle
from repro.reputation import EigenTrust
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

#: Small world, tiny capacity: every query cycle exhausts several servers,
#: exercising the engine's candidate-list maintenance, not just the happy
#: path.
SMALL = dict(
    n_nodes=24,
    n_pretrusted=2,
    n_colluders=6,
    n_interests=5,
    interests_per_node=(1, 3),
    capacity=3,
    simulation_cycles=3,
    query_cycles=5,
)


#: A scripted partition over cycles [1, 3) of a 4-cycle run.
PARTITION = {"partitions": [{"start_cycle": 1, "heal_cycle": 3}]}

#: Stochastic partitions plus churn (a chaos spec would replace the
#: stochastic schedule, churn included).
PARTITION_CHURN = {
    "partition_rate": 0.6,
    "partition_heal_cycles": 2,
    "peer_leave_rate": 0.15,
    "peer_rejoin_rate": 0.3,
    "offline_decay": 0.5,
}


def run_world(oracle, seed, **overrides):
    """(reputation history, interaction counts, request totals, partition
    blocks) for one run, on the oracle or the batched engine."""
    config = WorldConfig(**{**SMALL, **overrides})
    world = build_world(config, seed=seed)
    if oracle:
        use_oracle(world.simulation)
    metrics = world.simulation.run()
    injector = world.simulation.fault_injector
    return (
        metrics.reputation_history(),
        world.interactions.counts_matrix().copy(),
        (metrics.total_requests, metrics.total_served, metrics.unserved),
        injector.metrics.partition_blocks if injector is not None else 0,
    )


def assert_identical(seed, **overrides):
    """Engine and oracle agree bit for bit; returns the partition blocks."""
    hist_s, counts_s, totals_s, blocks_s = run_world(True, seed, **overrides)
    hist_b, counts_b, totals_b, blocks_b = run_world(False, seed, **overrides)
    assert totals_b == totals_s
    assert blocks_b == blocks_s
    assert np.array_equal(counts_b, counts_s)
    assert np.array_equal(hist_b, hist_s)
    return blocks_b


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", list(SelectionPolicy))
def test_bit_identical_across_policies(seed, policy):
    assert_identical(
        seed, collusion=CollusionKind.NONE, selection_policy=policy
    )


@pytest.mark.parametrize("exploration", [0.0, 0.2, 1.0])
def test_bit_identical_across_exploration(exploration):
    assert_identical(
        7, collusion=CollusionKind.NONE, selection_exploration=exploration
    )


@pytest.mark.parametrize("hardened", [False, True])
@pytest.mark.parametrize(
    "aggregate", [CommonFriendAggregate.MEAN, CommonFriendAggregate.SUM]
)
def test_bit_identical_with_socialtrust_and_pcm(hardened, aggregate):
    assert_identical(
        1,
        collusion=CollusionKind.PCM,
        system=SystemKind.EIGENTRUST_SOCIALTRUST,
        socialtrust=SocialTrustConfig(
            hardened=hardened, common_friend_aggregate=aggregate
        ),
    )


@pytest.mark.parametrize("collusion", [CollusionKind.MCM, CollusionKind.MMM])
def test_bit_identical_with_multinode_collusion(collusion):
    assert_identical(
        2, collusion=collusion, system=SystemKind.EIGENTRUST_SOCIALTRUST
    )


@pytest.mark.parametrize("exploration", [0.0, 0.2])
@pytest.mark.parametrize("policy", list(SelectionPolicy))
@pytest.mark.parametrize(
    "faults",
    [dict(chaos=PARTITION), dict(faults=PARTITION_CHURN)],
    ids=["partition", "partition+churn"],
)
def test_bit_identical_under_partition(faults, policy, exploration):
    """Partitioned intervals run on the engine's per-side structures; the
    colluders' cross-side bursts are blocked and counted identically."""
    blocks = assert_identical(
        4,
        collusion=CollusionKind.PCM,
        system=SystemKind.EIGENTRUST_SOCIALTRUST,
        selection_policy=policy,
        selection_exploration=exploration,
        simulation_cycles=4,
        **faults,
    )
    assert blocks > 0


def query_cycle_states(oracle, seed, **overrides):
    """The generator's state after every query cycle of one run."""
    world = build_world(WorldConfig(**{**SMALL, **overrides}), seed=seed)
    sim = world.simulation
    engine = use_oracle(sim) if oracle else sim._engine
    run_query_cycle = engine._run_query_cycle
    states = []

    def recorded():
        run_query_cycle()
        states.append(sim._rng.bit_generator.state)

    engine._run_query_cycle = recorded
    sim.run()
    return states


@pytest.mark.parametrize(
    "overrides",
    [
        dict(collusion=CollusionKind.PCM),
        dict(collusion=CollusionKind.MCM),
        dict(collusion=CollusionKind.MMM),
        dict(collusion=CollusionKind.PCM, faults=PARTITION_CHURN, simulation_cycles=4),
    ],
    ids=["pcm", "mcm", "mmm", "partition+churn"],
)
def test_generator_state_after_every_query_cycle(overrides):
    """The engine leaves the stream where the seed loop does after each
    query cycle, bursts included, not just at the end of the run."""
    batched = query_cycle_states(False, 3, **overrides)
    scalar = query_cycle_states(True, 3, **overrides)
    cycles = overrides.get("simulation_cycles", SMALL["simulation_cycles"])
    assert len(batched) == cycles * SMALL["query_cycles"]
    assert batched == scalar


def _churn_sim(seed):
    """Manual wiring (build_world has no injector hook) with heavy churn."""
    n, n_interests = 20, 5
    rng = spawn_rng(seed, 0)
    pop = Population.build(
        n,
        rng,
        pretrusted_ids=[0, 1],
        malicious_ids=[2, 3, 4, 5],
        n_interests=n_interests,
        interests_per_node=(1, 3),
        capacity=3,
        malicious_authentic_prob=0.3,
    )
    overlay = InterestOverlay([s.interests for s in pop], n_interests)
    network = paper_social_network(n, (2, 3, 4, 5), rng)
    interactions = InteractionLedger(n)
    profiles = InterestProfiles(n, n_interests)
    for spec in pop:
        profiles.set_declared(spec.node_id, spec.interests)
    system = SocialTrust(
        EigenTrust(n, [0, 1]), network, interactions, profiles
    )
    attack = PairwiseCollusion(
        [2, 3, 4, 5], [s.interests for s in pop], ratings_per_cycle=5
    )
    injector = FaultInjector(
        n,
        config=FaultConfig(
            peer_leave_rate=0.15, peer_rejoin_rate=0.3, offline_decay=0.5
        ),
        rng=spawn_rng(seed, 1),
    )
    sim = Simulation(
        pop,
        overlay,
        system,
        rng,
        config=SimulationConfig(
            simulation_cycles=4,
            query_cycles_per_simulation_cycle=5,
        ),
        collusion=attack,
        interactions=interactions,
        profiles=profiles,
        fault_injector=injector,
    )
    return sim, interactions


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_bit_identical_under_churn_and_decay(seed):
    """Churn drives ``decay_nodes`` between intervals — the case where the
    incremental closeness cache takes its low-rank path."""
    results = []
    for oracle in (True, False):
        sim, interactions = _churn_sim(seed)
        if oracle:
            use_oracle(sim)
        metrics = sim.run()
        results.append(
            (metrics.reputation_history(), interactions.counts_matrix().copy())
        )
    (hist_s, counts_s), (hist_b, counts_b) = results
    assert np.array_equal(counts_b, counts_s)
    assert np.array_equal(hist_b, hist_s)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    capacity=st.integers(1, 4),
    policy=st.sampled_from(list(SelectionPolicy)),
    exploration=st.floats(0.0, 1.0, allow_nan=False),
    collusion=st.sampled_from(
        [CollusionKind.NONE, CollusionKind.PCM, CollusionKind.MCM, CollusionKind.MMM]
    ),
    partition=st.booleans(),
)
def test_property_bit_identical(
    seed, capacity, policy, exploration, collusion, partition
):
    """Hypothesis sweep: any (seed, capacity, policy, exploration, attack,
    partition) combination must agree bit-for-bit between the engine and
    the oracle."""
    assert_identical(
        seed,
        capacity=capacity,
        selection_policy=policy,
        selection_exploration=exploration,
        collusion=collusion,
        simulation_cycles=2,
        query_cycles=4,
        chaos={"partitions": [{"start_cycle": 0, "heal_cycle": 1}]}
        if partition
        else None,
    )
