"""The array-backed assigned network against per-pair references.

:class:`AssignedSocialNetwork` holds its ties as one interned-tuple index
per adjacent pair and builds ``friends`` sets lazily from its CSR rows.
The network the bulk generator builds must equal the one the per-pair
``set_relationships`` loop builds, factor CSR bit for bit; ``friends``
must iterate in the order the eager ``np.flatnonzero`` frozensets did, so
the BFS in ``path`` returns the same path; and a 1000-node paper network
must hold no Python object per pair.
"""

import tracemalloc

import numpy as np
import pytest

from repro.collusion import falsify_single_relationship
from repro.social.generators import (
    assign_relationships,
    assigned_distance_matrix,
    paper_social_network,
)
from repro.social.graph import AssignedSocialNetwork, Relationship
from repro.utils.rng import spawn_rng
from tests.social.test_relationship_draws import loop_relationships

N_PAPER = 200
COLLUDERS = tuple(range(10, 40))
MODES = [(False, 1.0), (True, 0.5), (True, 0.75)]


def assert_same_factors(got, want, hardened, lambda_scaling):
    a = got.relationship_factors(hardened=hardened, lambda_scaling=lambda_scaling)
    b = want.relationship_factors(hardened=hardened, lambda_scaling=lambda_scaling)
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_bulk_network_equals_per_pair_loop(seed):
    n, colluders, weight = 80, {3, 7, 11, 19, 23}, 0.8
    d = assigned_distance_matrix(n, spawn_rng(seed, 0))
    for a in colluders:
        for b in colluders:
            if a != b:
                d[a, b] = 1
    got = assign_relationships(
        d, colluders, spawn_rng(seed, 1), relationship_weight=weight
    )
    want = loop_relationships(
        d, colluders, spawn_rng(seed, 1), (1, 2), (3, 5), weight
    )
    pairs = [(int(a), int(b)) for a in colluders for b in colluders if a < b]
    for stage in ("built", "falsified"):
        if stage == "falsified":
            falsify_single_relationship(got, pairs, weight=0.5)
            falsify_single_relationship(want, pairs, weight=0.5)
        for hardened, lambda_scaling in MODES:
            assert_same_factors(got, want, hardened, lambda_scaling)
        for i in range(n):
            for j in range(i + 1, n):
                assert got.relationships(i, j) == want.relationships(i, j), (
                    stage,
                    i,
                    j,
                )
    assert got.relationships(3, 7) == (Relationship(weight=0.5),)


def reference_friends(net):
    """The eager frozensets the network used to build."""
    adjacency = net.distance_matrix == 1
    return [
        frozenset(np.flatnonzero(adjacency[i]).tolist()) for i in range(net.n_nodes)
    ]


def reference_path(friends, i, j):
    """BFS over the eager frozensets, as ``path`` walked them."""
    if i == j:
        return [i]
    parent = {i: i}
    frontier = [i]
    while frontier:
        nxt = []
        for u in frontier:
            for v in friends[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v == j:
                    out = [j]
                    while out[-1] != i:
                        out.append(parent[out[-1]])
                    out.reverse()
                    return out
                nxt.append(v)
        frontier = nxt
    return []


def assert_friends_and_paths(net, pairs):
    friends = reference_friends(net)
    for i in range(net.n_nodes):
        assert net.friends(i) == friends[i]
        assert list(net.friends(i)) == list(friends[i]), i
    for i, j in pairs:
        assert net.path(i, j) == reference_path(friends, i, j), (i, j)


def no_common_friend_pairs(net):
    adjacency = (net.distance_matrix == 1).astype(np.int64)
    common = adjacency @ adjacency
    return np.argwhere(np.triu(common == 0, k=1)).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_friends_and_paths_match_eager_frozensets_paper_world(seed):
    """Every pair with no common friend (the pairs the closeness fallback
    walks a path for) and, since the paper world at n=200 has next to none,
    every distance-2 pair of the first rows too: their path's middle node
    is whichever common friend the BFS meets first, so it follows the
    frozensets' iteration order, which is not ascending here."""
    net = paper_social_network(N_PAPER, COLLUDERS, spawn_rng(seed, 0))
    d = net.distance_matrix
    pairs = no_common_friend_pairs(net)
    pairs += [(i, j) for i in range(4) for j in range(N_PAPER) if d[i, j] == 2]
    assert any(list(net.friends(i)) != sorted(net.friends(i)) for i in range(N_PAPER))
    assert_friends_and_paths(net, pairs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paths_match_eager_frozensets_sparse_world(seed):
    """A world with few adjacent pairs, where most pairs have no common
    friend and the fallback's paths are long or missing."""
    n = 120
    d = assigned_distance_matrix(
        n, spawn_rng(seed, 2), distance_choices=(1,) + (3,) * 29
    )
    net = assign_relationships(d, (), spawn_rng(seed, 3))
    pairs = [(i, j) for i, j in no_common_friend_pairs(net) if i < 6]
    assert len(pairs) > 300
    lengths = {len(net.path(i, j)) for i, j in pairs}
    assert 0 in lengths and max(lengths) >= 6
    assert_friends_and_paths(net, pairs)


def test_unset_and_non_adjacent_pairs():
    d = np.full((5, 5), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j in [(0, 1), (1, 2), (3, 4)]:
        d[i, j] = d[j, i] = 1
    net = AssignedSocialNetwork(d)
    net.set_relationships(2, 1, [Relationship("kin", 2.0)] * 2)
    assert net.relationships(0, 1) == (Relationship(),)
    assert net.relationships(4, 3) == (Relationship(),)
    assert net.relationships(1, 2) == (Relationship("kin", 2.0),) * 2
    assert net.relationships(0, 2) == ()
    assert net.relationships(2, 4) == ()
    csr = net.relationship_factors(hardened=True, lambda_scaling=0.5)
    assert csr.toarray()[[0, 1, 2, 3], [1, 2, 1, 4]].tolist() == [1.0, 3.0, 3.0, 1.0]


def test_paper_network_at_1000_nodes_holds_no_per_pair_objects():
    """The distance matrix is 7.6 MiB; a list of tie objects per adjacent
    pair (~167k pairs) and eager friend sets retained about 79 MiB."""
    tracemalloc.start()
    try:
        net = paper_social_network(1000, range(100, 160), spawn_rng(3, 0))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n_nodes == 1000
    assert retained < 24 * 2**20, retained / 2**20
