"""Friendship graphs with typed, weighted social relationships.

Two concrete social-network representations are provided, both satisfying
the :class:`SocialView` protocol that :mod:`repro.core.closeness` consumes:

:class:`SocialGraph`
    A genuine undirected graph.  Distances are BFS hop counts, friend sets
    are adjacency sets.  Used by the synthetic Overstock trace substrate and
    available to library users who bring real social graphs.

:class:`AssignedSocialNetwork`
    The representation matching the paper's experimental setup (Section 5.1),
    where pairwise social distances are *assigned* (colluder pairs at
    distance 1, all other pairs drawn from [1, 3]) rather than derived from
    an explicit edge set.  Adjacency is defined as assigned distance 1, and
    common friends are nodes at distance 1 from both endpoints, so the
    SocialTrust formulas operate exactly as they would on a real graph.

Each adjacent pair carries a tuple of :class:`Relationship` records: the
count ``m(i,j)`` feeds Eq. (2) and the sorted weights feed the hardened
Eq. (10) (``sum_l lambda^(l-1) * w_dl``).  Both views build that factor for
every pair at once with ``relationship_factors()``: a symmetric CSR whose
explicit entries are the adjacency, the structure both closeness
computers read.

:class:`SocialGraph` keeps a tie list per edge.  :class:`AssignedSocialNetwork`
holds arrays only: the distance matrix, the adjacency as ascending CSR rows,
the adjacent pairs as sorted row-major keys, and per pair an index into a
small table of distinct interned tie tuples (a handful: the paper's world
draws tie counts 1-5 of one weight).  So a 1000-node paper network holds
no Python object per pair, and its factor CSR is a gather of a few
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np
from scipy import sparse

from repro.utils.validation import check_positive

__all__ = [
    "Relationship",
    "SocialView",
    "SocialGraph",
    "AssignedSocialNetwork",
    "UNREACHABLE",
]

#: Sentinel distance for disconnected pairs.
UNREACHABLE: int = -1


@dataclass(frozen=True)
class Relationship:
    """A typed social tie between two adjacent users.

    Parameters
    ----------
    kind:
        Free-form label, e.g. ``"friend"``, ``"colleague"``, ``"kin"``.
    weight:
        Strength of the tie used by the hardened closeness Eq. (10).
        Kinship, for instance, should outweigh mere friendship.
    """

    kind: str = "friend"
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_positive("relationship weight", self.weight)


def relationship_factor(
    relationships: Sequence[Relationship],
    *,
    hardened: bool,
    lambda_scaling: float,
) -> float:
    """Return the relationship multiplier of the closeness formula.

    Plain mode returns ``m(i,j)`` — the number of relationships (Eq. (2)).
    Hardened mode returns ``sum_l lambda^(l-1) * w_dl`` over relationship
    weights sorted in descending order (Eq. (10)), which exponentially
    discounts additional low-value ties so colluders cannot inflate
    closeness by piling on cheap relationships.
    """
    if not relationships:
        return 0.0
    if not hardened:
        return float(len(relationships))
    weights = sorted((rel.weight for rel in relationships), reverse=True)
    scale = 1.0
    total = 0.0
    for w in weights:
        total += scale * w
        scale *= lambda_scaling
    return total


def _factor_lookup(
    *, hardened: bool, lambda_scaling: float
) -> Callable[[tuple[Relationship, ...]], float]:
    """:func:`relationship_factor` memoised per distinct tie tuple: a
    graph has few distinct tie lists, so a structure build evaluates the
    formula a handful of times."""
    return cache(
        lambda ties: relationship_factor(
            ties, hardened=hardened, lambda_scaling=lambda_scaling
        )
    )


def _symmetric_csr(
    n_nodes: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
) -> sparse.csr_matrix:
    """Canonical CSR holding each unique pair ``(rows[k], cols[k])`` and its
    mirror, both with value ``data[k]``."""
    return sparse.csr_matrix(
        (
            np.concatenate([data, data]),
            (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
        ),
        shape=(n_nodes, n_nodes),
    )


@runtime_checkable
class SocialView(Protocol):
    """What the SocialTrust closeness computation needs from a social network."""

    @property
    def n_nodes(self) -> int: ...

    def are_adjacent(self, i: int, j: int) -> bool: ...

    def friends(self, i: int) -> frozenset[int]: ...

    def relationships(self, i: int, j: int) -> tuple[Relationship, ...]: ...

    def relationship_factors(
        self, *, hardened: bool, lambda_scaling: float
    ) -> sparse.csr_matrix:
        """The static Ωc relationship structure: a symmetric CSR whose
        explicit entries are the adjacency and whose values are each
        pair's :func:`relationship_factor`."""
        ...

    def distance(self, i: int, j: int) -> int:
        """Hop distance; ``UNREACHABLE`` when no path exists."""
        ...

    def path(self, i: int, j: int) -> list[int]:
        """One shortest path ``[i, ..., j]``; empty list when none exists."""
        ...


def _check_node(n_nodes: int, node: int) -> int:
    if not 0 <= node < n_nodes:
        raise IndexError(f"node {node} out of range [0, {n_nodes})")
    return node


def _check_pair(n_nodes: int, i: int, j: int) -> tuple[int, int]:
    _check_node(n_nodes, i)
    _check_node(n_nodes, j)
    if i == j:
        raise ValueError(f"self-pair ({i}, {i}) has no social closeness")
    return (i, j) if i < j else (j, i)


class SocialGraph:
    """An undirected friendship graph with typed weighted edges.

    Nodes are dense integer ids ``0..n_nodes-1``.  The graph is mutable:
    edges (friendships) can be added with one or more relationships, and
    additional relationships can be attached to existing edges.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = int(n_nodes)
        self._adj: list[set[int]] = [set() for _ in range(self._n)]
        self._rels: dict[tuple[int, int], list[Relationship]] = {}

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return len(self._rels)

    def add_friendship(
        self,
        i: int,
        j: int,
        relationships: Iterable[Relationship] | None = None,
    ) -> None:
        """Create (or extend) the friendship edge between ``i`` and ``j``.

        Repeated calls accumulate relationships on the same edge.  When
        ``relationships`` is omitted a single default ``friend`` tie is added
        only if the edge does not already exist.
        """
        key = _check_pair(self._n, i, j)
        new = list(relationships) if relationships is not None else []
        if key not in self._rels:
            self._adj[i].add(j)
            self._adj[j].add(i)
            self._rels[key] = new if new else [Relationship()]
        elif new:
            self._rels[key].extend(new)

    def remove_friendship(self, i: int, j: int) -> None:
        key = _check_pair(self._n, i, j)
        if key not in self._rels:
            raise KeyError(f"no friendship between {i} and {j}")
        del self._rels[key]
        self._adj[i].discard(j)
        self._adj[j].discard(i)

    def are_adjacent(self, i: int, j: int) -> bool:
        _check_node(self._n, i)
        _check_node(self._n, j)
        return j in self._adj[i]

    def friends(self, i: int) -> frozenset[int]:
        _check_node(self._n, i)
        return frozenset(self._adj[i])

    def degree(self, i: int) -> int:
        _check_node(self._n, i)
        return len(self._adj[i])

    def relationships(self, i: int, j: int) -> tuple[Relationship, ...]:
        key = _check_pair(self._n, i, j)
        return tuple(self._rels.get(key, ()))

    def distance(self, i: int, j: int) -> int:
        """BFS hop distance between ``i`` and ``j`` (``UNREACHABLE`` if none)."""
        _check_node(self._n, i)
        _check_node(self._n, j)
        if i == j:
            return 0
        frontier = {i}
        seen = {i}
        hops = 0
        while frontier:
            hops += 1
            nxt: set[int] = set()
            for u in frontier:
                for v in self._adj[u]:
                    if v == j:
                        return hops
                    if v not in seen:
                        seen.add(v)
                        nxt.add(v)
            frontier = nxt
        return UNREACHABLE

    def path(self, i: int, j: int) -> list[int]:
        """One shortest path from ``i`` to ``j`` (BFS parents); [] if none."""
        _check_node(self._n, i)
        _check_node(self._n, j)
        if i == j:
            return [i]
        parent: dict[int, int] = {i: i}
        frontier = [i]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self._adj[u]:
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

    def edges(self) -> Iterable[tuple[int, int]]:
        return iter(self._rels.keys())

    def to_numpy_adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix (n x n); useful for vectorised stats."""
        out = np.zeros((self._n, self._n), dtype=bool)
        for (a, b) in self._rels:
            out[a, b] = out[b, a] = True
        return out

    def relationship_factors(
        self, *, hardened: bool, lambda_scaling: float
    ) -> sparse.csr_matrix:
        """:meth:`SocialView.relationship_factors`, built O(n + m) from the
        edge set in one pass over the unique pairs."""
        factor = _factor_lookup(hardened=hardened, lambda_scaling=lambda_scaling)
        pairs = np.array(list(self._rels), dtype=np.int64).reshape(-1, 2)
        data = np.fromiter(
            map(factor, map(tuple, self._rels.values())),
            dtype=np.float64,
            count=len(self._rels),
        )
        return _symmetric_csr(self._n, pairs[:, 0], pairs[:, 1], data)


class AssignedSocialNetwork:
    """A social network defined by an explicit pairwise distance matrix.

    The paper's evaluation *assigns* social distances (colluders at
    distance 1, all other pairs uniform over [1, 3]) instead of deriving
    them from edges.  This class stores that symmetric distance matrix and
    derives everything :class:`SocialView` requires from it:

    * adjacency  <=> assigned distance 1;
    * ``friends(i)``  = nodes at distance 1 from ``i``;
    * ``path(i, j)`` = BFS over the induced adjacency graph (used only by the
      min-over-path closeness fallback when no common friend exists).

    The state is arrays only, with no Python object per pair:

    * the distance matrix;
    * the adjacency as CSR rows (``_indptr``/``_indices``), each row
      ascending;
    * the adjacent pairs as sorted row-major upper-triangle keys
      ``i * n + j`` with ``i < j`` (``_keys``);
    * per key, an index (``_tie_ids``) into a table of distinct interned tie
      tuples (``_ties``).  Index 0 is the default single tie
      ``(Relationship(),)`` that an adjacent pair reports until its ties
      are set.

    ``friends(i)`` builds its frozenset from the ascending CSR row on first
    request and caches it: the same set, in the same iteration order, as a
    frozenset of ``np.flatnonzero(adjacency[i])``, so ``path`` walks the
    same BFS.  ``relationship_factors`` evaluates the factor once per
    distinct tie tuple and gathers it by index.
    """

    def __init__(self, distances: np.ndarray) -> None:
        d = np.asarray(distances)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got {d.shape}")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0):
            raise ValueError("self-distances must be 0")
        off = d[~np.eye(d.shape[0], dtype=bool)]
        if np.any((off < 1) & (off != UNREACHABLE)):
            raise ValueError("off-diagonal distances must be >= 1 or UNREACHABLE")
        self._d = d.astype(np.int64, copy=True)
        n = self._n = d.shape[0]
        rows, self._indices = np.nonzero(self._d == 1)
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self._indptr[1:])
        upper = rows < self._indices
        self._keys = rows[upper] * n + self._indices[upper]
        self._tie_ids = np.zeros(self._keys.size, dtype=np.int32)
        self._ties: list[tuple[Relationship, ...]] = [(Relationship(),)]
        self._tie_lookup = {self._ties[0]: 0}
        self._friend_sets: dict[int, frozenset[int]] = {}

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def distance_matrix(self) -> np.ndarray:
        """Read-only view of the assigned distance matrix."""
        view = self._d.view()
        view.flags.writeable = False
        return view

    def are_adjacent(self, i: int, j: int) -> bool:
        _check_node(self._n, i)
        _check_node(self._n, j)
        return bool(self._d[i, j] == 1)

    def friends(self, i: int) -> frozenset[int]:
        _check_node(self._n, i)
        found = self._friend_sets.get(i)
        if found is None:
            row = self._indices[self._indptr[i] : self._indptr[i + 1]]
            found = self._friend_sets[i] = frozenset(row.tolist())
        return found

    def _slot(self, pair: tuple[int, int]) -> int:
        """Position of an adjacent ``(lo, hi)`` pair in the sorted keys."""
        return int(np.searchsorted(self._keys, pair[0] * self._n + pair[1]))

    def _intern(self, ties: tuple[Relationship, ...]) -> int:
        """Index of ``ties`` in the tie table, appended on first sight."""
        index = self._tie_lookup.get(ties)
        if index is None:
            index = self._tie_lookup[ties] = len(self._ties)
            self._ties.append(ties)
        return index

    def set_relationships(
        self, i: int, j: int, relationships: Iterable[Relationship]
    ) -> None:
        """Attach the relationship list for an *adjacent* pair."""
        key = _check_pair(self._n, i, j)
        if self._d[i, j] != 1:
            raise ValueError(
                f"pair ({i}, {j}) has distance {self._d[i, j]}; relationships "
                "can only be attached to adjacent (distance-1) pairs"
            )
        ties = tuple(relationships)
        if not ties:
            raise ValueError("relationship list must be non-empty")
        self._tie_ids[self._slot(key)] = self._intern(ties)

    def _adjacent_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of the adjacent pairs ``rows < cols``, in key
        (row-major) order."""
        return np.divmod(self._keys, self._n)

    def _set_tie_counts(self, counts: np.ndarray, tie: Relationship) -> None:
        """Give the ``k``-th pair of :meth:`_adjacent_pairs` ``counts[k]``
        copies of ``tie``: :meth:`set_relationships` over every adjacent
        pair at once, interning one tuple per distinct count."""
        if np.any(counts < 1):
            raise ValueError("relationship list must be non-empty")
        distinct, inverse = np.unique(counts, return_inverse=True)
        ids = [self._intern((tie,) * count) for count in distinct.tolist()]
        self._tie_ids = np.asarray(ids, dtype=np.int32)[inverse.reshape(-1)]

    def relationships(self, i: int, j: int) -> tuple[Relationship, ...]:
        key = _check_pair(self._n, i, j)
        if self._d[i, j] != 1:
            return ()
        return self._ties[self._tie_ids[self._slot(key)]]

    def distance(self, i: int, j: int) -> int:
        _check_node(self._n, i)
        _check_node(self._n, j)
        return int(self._d[i, j])

    def relationship_factors(
        self, *, hardened: bool, lambda_scaling: float
    ) -> sparse.csr_matrix:
        """:meth:`SocialView.relationship_factors` over the distance-1
        pairs: one factor per distinct tie tuple, gathered by each pair's
        tie index."""
        factors = np.array(
            [
                relationship_factor(
                    ties, hardened=hardened, lambda_scaling=lambda_scaling
                )
                for ties in self._ties
            ],
            dtype=np.float64,
        )
        rows, cols = self._adjacent_pairs()
        return _symmetric_csr(self._n, rows, cols, factors[self._tie_ids])

    def path(self, i: int, j: int) -> list[int]:
        """Shortest path over the distance-1 adjacency graph; [] if none."""
        _check_node(self._n, i)
        _check_node(self._n, j)
        if i == j:
            return [i]
        parent: dict[int, int] = {i: i}
        frontier = [i]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in self.friends(u):
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
