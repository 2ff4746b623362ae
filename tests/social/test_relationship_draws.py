"""The vectorised relationship-count draw replays the per-pair loop.

:func:`assign_relationships` draws every adjacent pair's tie count in one
array-bound ``rng.integers`` call.  The worlds it builds must equal the
ones the scalar loop built — same distances, same ties on every pair —
and leave the generator at the same next draw, on every supported numpy.
"""

import numpy as np
import pytest

from repro.social.generators import (
    assign_relationships,
    assigned_distance_matrix,
    paper_social_network,
)
from repro.social.graph import AssignedSocialNetwork, Relationship
from repro.utils.rng import spawn_rng


def loop_relationships(distances, colluders, rng, normal, colluder, weight):
    """The per-pair loop the generators used to run."""
    net = AssignedSocialNetwork(distances)
    n = distances.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if distances[i, j] != 1:
                continue
            lo, hi = colluder if i in colluders and j in colluders else normal
            count = int(rng.integers(lo, hi + 1))
            net.set_relationships(i, j, [Relationship(weight=weight)] * count)
    return net


def assert_same_world(got, want, rng_got, rng_want):
    assert np.array_equal(got.distance_matrix, want.distance_matrix)
    n = want.n_nodes
    for i in range(n):
        for j in range(i + 1, n):
            assert got.relationships(i, j) == want.relationships(i, j), (i, j)
    assert rng_got.integers(0, 2**40) == rng_want.integers(0, 2**40)
    assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paper_network_matches_loop(seed):
    n, colluders, weight = 60, (3, 7, 11, 19, 23, 40), 0.8
    rng_got, rng_want = spawn_rng(seed, 0), spawn_rng(seed, 0)
    got = paper_social_network(n, colluders, rng_got, relationship_weight=weight)
    distances = assigned_distance_matrix(n, rng_want)
    for a in colluders:
        for b in colluders:
            if a != b:
                distances[a, b] = 1
    want = loop_relationships(
        distances, set(colluders), rng_want, (1, 2), (3, 5), weight
    )
    assert_same_world(got, want, rng_got, rng_want)


@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_distance_network_matches_loop(seed):
    """The compromised pre-trusted re-generation: extra distance-1 pins and
    a colluder set that includes the compromised nodes."""
    n, group = 50, {0, 1, 5, 9, 30}
    pinned = [(0, 30), (1, 9), (5, 9)]
    rng_got, rng_want = spawn_rng(seed, 1), spawn_rng(seed, 1)
    d_got = assigned_distance_matrix(n, rng_got, unit_distance_pairs=pinned)
    d_want = assigned_distance_matrix(n, rng_want, unit_distance_pairs=pinned)
    got = assign_relationships(d_got, group, rng_got)
    want = loop_relationships(d_want, group, rng_want, (1, 2), (3, 5), 1.0)
    assert_same_world(got, want, rng_got, rng_want)


def test_no_adjacent_pairs_draws_nothing():
    distances = np.full((4, 4), 2) - 2 * np.eye(4, dtype=np.int64)
    rng_got, rng_want = spawn_rng(9, 0), spawn_rng(9, 0)
    got = assign_relationships(distances, {0, 1}, rng_got)
    want = loop_relationships(distances, {0, 1}, rng_want, (1, 2), (3, 5), 1.0)
    assert_same_world(got, want, rng_got, rng_want)
