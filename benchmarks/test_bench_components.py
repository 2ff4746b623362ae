"""Micro-benchmarks of the hot computational kernels.

Unlike the figure benchmarks (one timed run of a full experiment), these
use pytest-benchmark's normal calibration to time the inner kernels the
simulation grid leans on: the EigenTrust power iteration, the vectorised
closeness/similarity matrices, the detector pass, and one simulation
cycle.
"""

import numpy as np
import pytest

from repro.core import ClosenessComputer, CollusionDetector, SimilarityComputer, SocialTrustConfig
from repro.experiments.setup import CollusionKind, SystemKind, WorldConfig, build_world
from repro.reputation import EigenTrust
from repro.reputation.base import IntervalRatings
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

N = 200


@pytest.fixture(scope="module")
def dense_interval():
    rng = spawn_rng(1, 0)
    values = rng.random((N, N))
    value_sum = np.where(values > 0.5, 1.0, -1.0) * (values > 0.2)
    pos_counts = (value_sum > 0).astype(float)
    neg_counts = (value_sum < 0).astype(float)
    np.fill_diagonal(value_sum, 0)
    return IntervalRatings.from_dense(value_sum, pos_counts, neg_counts)


@pytest.fixture(scope="module")
def social_stack():
    rng = spawn_rng(2, 0)
    network = paper_social_network(N, list(range(10, 40)), rng)
    interactions = InteractionLedger(N)
    for _ in range(4000):
        i, j = rng.integers(0, N, size=2)
        if i != j:
            interactions.record(int(i), int(j))
    profiles = InterestProfiles(N, 20)
    for node in range(N):
        k = int(rng.integers(1, 11))
        profiles.set_declared(node, (int(v) for v in rng.choice(20, k, replace=False)))
        for _ in range(10):
            profiles.record_request(node, int(rng.choice(sorted(profiles.declared(node)))))
    config = SocialTrustConfig()
    closeness = ClosenessComputer(network, interactions, config)
    similarity = SimilarityComputer(profiles, config)
    return closeness, similarity, config


class TestKernels:
    def test_eigentrust_update(self, benchmark, dense_interval):
        system = EigenTrust(N, list(range(9)))

        def step():
            system.update(dense_interval)

        benchmark(step)

    def test_closeness_matrix(self, benchmark, social_stack):
        closeness, _, _ = social_stack
        result = benchmark(closeness.closeness_matrix)
        assert result.shape == (N, N)

    def test_similarity_matrix(self, benchmark, social_stack):
        _, similarity, _ = social_stack
        result = benchmark(similarity.similarity_matrix)
        assert result.shape == (N, N)

    def test_detector_analyze(self, benchmark, social_stack, dense_interval):
        closeness, similarity, config = social_stack
        detector = CollusionDetector(closeness, similarity, config)
        reputations = np.full(N, 1.0 / N)
        rated = np.flatnonzero(dense_interval.counts)

        def analyze():
            return detector.analyze(dense_interval, reputations, rated)

        result = benchmark(analyze)
        assert result.weights.shape == (N, N)


class TestSimulationCycle:
    def test_one_simulation_cycle(self, benchmark):
        config = WorldConfig(
            collusion=CollusionKind.PCM,
            colluder_b=0.6,
            system=SystemKind.EIGENTRUST_SOCIALTRUST,
            simulation_cycles=1,
        )
        world = build_world(config, seed=3)

        def cycle():
            world.simulation.run_simulation_cycle()

        benchmark.pedantic(cycle, rounds=3, iterations=1)
