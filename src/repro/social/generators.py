"""Synthetic social-topology builders.

Builders for the two social-network representations:

* :func:`paper_social_network` — the assigned-distance network of the
  paper's evaluation (Section 5.1): colluder pairs at distance 1 with 3-5
  same-weight relationships, all other pairs at a distance uniform over
  [1, 3] with 1-2 relationships when adjacent;
  :func:`assign_relationships` draws those relationship counts over any
  assigned distance matrix.
* :func:`preferential_attachment_graph` — a scale-free friendship graph for
  the Overstock trace substrate (social degree distributions are heavy
  tailed; Fig. 2 relies on friend counts varying over orders of magnitude).
* :func:`erdos_renyi_graph` — a plain random graph, mostly for tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.social.graph import AssignedSocialNetwork, Relationship, SocialGraph
from repro.utils.rng import RngStream

__all__ = [
    "assign_relationships",
    "assigned_distance_matrix",
    "paper_social_network",
    "preferential_attachment_graph",
    "erdos_renyi_graph",
]


def assigned_distance_matrix(
    n_nodes: int,
    rng: RngStream,
    *,
    distance_choices: Sequence[int] = (1, 2, 3),
    unit_distance_pairs: Sequence[tuple[int, int]] = (),
) -> np.ndarray:
    """Symmetric matrix of assigned pairwise distances.

    Every unordered pair receives a distance drawn uniformly from
    ``distance_choices``; pairs listed in ``unit_distance_pairs`` are then
    forced to distance 1 (the paper pins colluder pairs to distance 1).  A
    pinned pair with a node outside ``[0, n_nodes)`` or naming one node
    twice is refused.
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    choices = np.asarray(distance_choices, dtype=np.int64)
    if choices.size == 0 or np.any(choices < 1):
        raise ValueError("distance_choices must be non-empty and >= 1")
    pins = [(int(i), int(j)) for i, j in unit_distance_pairs]
    for i, j in pins:
        if not (0 <= i < n_nodes and 0 <= j < n_nodes):
            raise ValueError(
                f"unit-distance pair ({i}, {j}) has a node out of range "
                f"[0, {n_nodes})"
            )
        if i == j:
            raise ValueError(
                f"unit-distance pair ({i}, {j}) is a self-pair; a node's "
                "distance to itself is 0"
            )
    d = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    iu = np.triu_indices(n_nodes, k=1)
    draws = rng.choice(choices, size=iu[0].size)
    d[iu] = draws
    d.T[iu] = draws
    for i, j in pins:
        d[i, j] = d[j, i] = 1
    return d


def _checked_colluders(colluder_ids: Iterable[int], n_nodes: int) -> list[int]:
    """The distinct colluder ids, ascending; an id outside ``[0, n_nodes)``
    is refused rather than wrapped by negative indexing."""
    colluders = sorted(set(int(c) for c in colluder_ids))
    for c in colluders:
        if not 0 <= c < n_nodes:
            raise ValueError(f"colluder id {c} out of range [0, {n_nodes})")
    return colluders


def paper_social_network(
    n_nodes: int,
    colluder_ids: Sequence[int],
    rng: RngStream,
    *,
    normal_relationship_range: tuple[int, int] = (1, 2),
    colluder_relationship_range: tuple[int, int] = (3, 5),
    relationship_weight: float = 1.0,
    colluder_distance: int = 1,
) -> AssignedSocialNetwork:
    """The social network of the paper's experimental setup.

    Colluder pairs sit at social distance ``colluder_distance`` (1 in the
    main experiments; Fig. 20 sweeps 1-3) and, when adjacent, carry 3-5
    relationships of identical weight; all other pairs get a distance
    uniform over [1, 3] and, when adjacent, 1-2 relationships.
    """
    if colluder_distance < 1:
        raise ValueError(f"colluder_distance must be >= 1, got {colluder_distance}")
    colluders = _checked_colluders(colluder_ids, n_nodes)
    colluder_pairs = [
        (a, b) for ai, a in enumerate(colluders) for b in colluders[ai + 1 :]
    ]
    distances = assigned_distance_matrix(n_nodes, rng)
    for i, j in colluder_pairs:
        distances[i, j] = distances[j, i] = colluder_distance
    return assign_relationships(
        distances,
        colluders,
        rng,
        normal_relationship_range=normal_relationship_range,
        colluder_relationship_range=colluder_relationship_range,
        relationship_weight=relationship_weight,
    )


def assign_relationships(
    distances: np.ndarray,
    colluder_ids: Iterable[int],
    rng: RngStream,
    *,
    normal_relationship_range: tuple[int, int] = (1, 2),
    colluder_relationship_range: tuple[int, int] = (3, 5),
    relationship_weight: float = 1.0,
) -> AssignedSocialNetwork:
    """The assigned-distance network with the paper's relationship counts.

    Every adjacent pair gets a tie count drawn uniformly from
    ``colluder_relationship_range`` when both ends are colluders and from
    ``normal_relationship_range`` otherwise; all ties carry
    ``relationship_weight``.  The counts come from one array-bound
    ``rng.integers`` call over the adjacent upper-triangle pairs in
    row-major order, which yields the same values, and leaves ``rng`` in
    the same state, as one scalar draw per pair in that order; the network
    takes them in one array call, with no object per pair.  A colluder id
    outside the matrix is refused.
    """
    net = AssignedSocialNetwork(distances)
    colluder = np.zeros(net.n_nodes, dtype=bool)
    colluder[_checked_colluders(colluder_ids, net.n_nodes)] = True
    rows, cols = net._adjacent_pairs()
    both = colluder[rows] & colluder[cols]
    lo_n, hi_n = normal_relationship_range
    lo_c, hi_c = colluder_relationship_range
    counts = rng.integers(np.where(both, lo_c, lo_n), np.where(both, hi_c, hi_n) + 1)
    net._set_tie_counts(counts, Relationship(weight=relationship_weight))
    return net


def preferential_attachment_graph(
    n_nodes: int,
    rng: RngStream,
    *,
    edges_per_node: int = 3,
) -> SocialGraph:
    """Barabási–Albert-style scale-free friendship graph.

    Each arriving node attaches to ``edges_per_node`` existing nodes chosen
    with probability proportional to their current degree (plus one, so
    isolated seeds remain reachable).
    """
    if edges_per_node < 1:
        raise ValueError(f"edges_per_node must be >= 1, got {edges_per_node}")
    if n_nodes <= edges_per_node:
        raise ValueError("n_nodes must exceed edges_per_node")
    g = SocialGraph(n_nodes)
    degrees = np.zeros(n_nodes, dtype=np.float64)
    # Seed clique keeps early attachment well defined.
    seed = edges_per_node + 1
    for i in range(seed):
        for j in range(i + 1, seed):
            g.add_friendship(i, j)
            degrees[i] += 1
            degrees[j] += 1
    for node in range(seed, n_nodes):
        weights = degrees[:node] + 1.0
        weights = weights / weights.sum()
        targets = rng.choice(node, size=edges_per_node, replace=False, p=weights)
        for t in targets:
            g.add_friendship(node, int(t))
            degrees[node] += 1
            degrees[t] += 1
    return g


def erdos_renyi_graph(n_nodes: int, edge_prob: float, rng: RngStream) -> SocialGraph:
    """G(n, p) friendship graph."""
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    g = SocialGraph(n_nodes)
    iu = np.triu_indices(n_nodes, k=1)
    mask = rng.random(iu[0].size) < edge_prob
    for a, b in zip(iu[0][mask], iu[1][mask]):
        g.add_friendship(int(a), int(b))
    return g
