"""Parity of the views' Ωc relationship structure with the per-pair formula.

``relationship_factors`` is the one place the closeness computers get
Eq. (2)'s ``m(i,j)`` / Eq. (10)'s ``sum_l lambda^(l-1) w_dl`` from, so
every entry must equal :func:`relationship_factor` over the pair's ties
bit for bit, and its explicit entries must be exactly the adjacency.
"""

import numpy as np
import pytest

from repro.collusion import falsify_single_relationship
from repro.social.generators import paper_social_network
from repro.social.graph import (
    AssignedSocialNetwork,
    Relationship,
    SocialGraph,
    relationship_factor,
)
from repro.utils.rng import spawn_rng


def mixed_graph() -> SocialGraph:
    """Mixed kinds and weights; ties accumulated by repeated calls."""
    g = SocialGraph(8)
    g.add_friendship(0, 1, [Relationship("kin", 3.0), Relationship("friend", 1.0)])
    g.add_friendship(1, 0, [Relationship("colleague", 0.5)])
    g.add_friendship(1, 2)
    g.add_friendship(2, 3, [Relationship("kin", 2.0)] * 3)
    g.add_friendship(3, 4, [Relationship("friend", 0.7), Relationship("colleague", 1.3)])
    g.add_friendship(4, 5)
    g.add_friendship(5, 4, [Relationship("kin", 2.5)])
    g.add_friendship(4, 5)  # no ties given: the edge is left as it is
    g.add_friendship(6, 2, [Relationship("friend", 0.25)])
    g.add_friendship(0, 7)
    g.remove_friendship(0, 7)
    return g


def default_ties_network() -> AssignedSocialNetwork:
    """Adjacent pairs with no explicit ties next to pairs with some."""
    d = spawn_rng(3, 0).choice([1, 2, 3], size=(9, 9))
    d = np.triu(d, 1)
    d = d + d.T
    net = AssignedSocialNetwork(d)
    adjacent = np.argwhere(np.triu(d == 1, 1))
    for i, j in adjacent[::2]:
        net.set_relationships(int(i), int(j), [Relationship("kin", 1.5)] * 2)
    return net


def falsified_network() -> AssignedSocialNetwork:
    net = paper_social_network(12, (1, 2, 3, 4), spawn_rng(5, 0))
    falsify_single_relationship(net, [(1, 2), (3, 4)], weight=0.5)
    return net


VIEWS = {
    "graph": mixed_graph,
    "assigned-default": default_ties_network,
    "assigned-falsified": falsified_network,
}


@pytest.mark.parametrize("lambda_scaling", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("hardened", [False, True], ids=["plain", "hardened"])
@pytest.mark.parametrize("view_name", sorted(VIEWS))
def test_relationship_factors_match_per_pair_formula(
    view_name, hardened, lambda_scaling
):
    view = VIEWS[view_name]()
    n = view.n_nodes
    csr = view.relationship_factors(hardened=hardened, lambda_scaling=lambda_scaling)
    assert csr.shape == (n, n)
    assert csr.has_canonical_format
    pattern = np.zeros((n, n), dtype=bool)
    pattern[np.repeat(np.arange(n), np.diff(csr.indptr)), csr.indices] = True
    adjacency = np.array(
        [[i != j and view.are_adjacent(i, j) for j in range(n)] for i in range(n)]
    )
    assert np.array_equal(pattern, adjacency)
    dense = csr.toarray()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            want = relationship_factor(
                view.relationships(i, j),
                hardened=hardened,
                lambda_scaling=lambda_scaling,
            )
            assert dense[i, j] == want, (i, j)


def test_default_tie_factor_is_one():
    net = AssignedSocialNetwork(np.array([[0, 1], [1, 0]]))
    csr = net.relationship_factors(hardened=True, lambda_scaling=0.5)
    assert csr.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
