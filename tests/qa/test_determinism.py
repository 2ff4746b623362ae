"""Seed determinism: same seed ⇒ bit-identical results, on the batched
engine and the scalar oracle, for every collusion model."""

import numpy as np
import pytest

from repro.api import build_scenario
from repro.qa.oracle import use_oracle

SMALL = dict(
    n_nodes=20,
    n_pretrusted=2,
    n_colluders=5,
    n_interests=6,
    interests_per_node=(1, 3),
    capacity=10,
    query_cycles=3,
    simulation_cycles=3,
)

COLLUSIONS = ["none", "pcm", "mcm", "mmm"]


def _run(collusion: str, engine: str, seed: int = 17):
    scenario = build_scenario(
        seed=seed,
        system="EigenTrust+SocialTrust",
        collusion=collusion,
        **SMALL,
    )
    if engine == "scalar":
        use_oracle(scenario.simulation)
    return scenario.run()


@pytest.mark.parametrize("collusion", COLLUSIONS)
@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_same_seed_is_bit_identical(collusion, engine):
    first = _run(collusion, engine)
    second = _run(collusion, engine)
    assert np.array_equal(first.reputations, second.reputations)
    assert np.array_equal(first.history, second.history)
    assert first.metrics.total_requests == second.metrics.total_requests
    assert first.metrics.total_served == second.metrics.total_served
    assert first.metrics.unserved == second.metrics.unserved


@pytest.mark.parametrize("collusion", COLLUSIONS)
def test_engine_modes_are_bit_identical(collusion):
    batched = _run(collusion, "batched")
    scalar = _run(collusion, "scalar")
    assert np.array_equal(batched.reputations, scalar.reputations)
    assert np.array_equal(batched.history, scalar.history)
    assert batched.metrics.total_requests == scalar.metrics.total_requests


@pytest.mark.parametrize("collusion", ["none", "pcm"])
def test_different_seeds_differ(collusion):
    a = _run(collusion, "batched", seed=17)
    b = _run(collusion, "batched", seed=18)
    assert not np.array_equal(a.reputations, b.reputations)


def test_history_shape_matches_cycles():
    result = _run("pcm", "batched")
    assert result.history.shape == (SMALL["simulation_cycles"], SMALL["n_nodes"])
