"""Per-node interest sets and request-weighted interest vectors.

Two views of a node's interests coexist, and keeping them separate is the
point of the paper's Section 4.4 hardening:

* the **declared** interest set — what the node's profile claims
  (``V_i`` in Eq. (7)); colluders can falsify this freely;
* the **behavioural** request weights — the fraction of the node's actual
  resource requests landing on each interest (``w_s(i,l)`` in Eq. (11));
  these are observed by the system and cannot be faked without actually
  issuing requests.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["InterestProfiles"]


class InterestProfiles:
    """Declared interest sets plus behavioural request counters for all nodes."""

    def __init__(self, n_nodes: int, n_interests: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if n_interests <= 0:
            raise ValueError(f"n_interests must be positive, got {n_interests}")
        self._n = int(n_nodes)
        self._k = int(n_interests)
        self._declared: list[frozenset[int]] = [frozenset() for _ in range(self._n)]
        self._requests = np.zeros((self._n, self._k), dtype=np.float64)
        self._version = 0
        self._row_versions = np.zeros(self._n, dtype=np.int64)
        self._declared_version = 0
        self._declared_matrix: np.ndarray | None = None
        self._declared_matrix_version = -1

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def n_interests(self) -> int:
        return self._k

    # -- change tracking ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every behavioural-request mutation."""
        return self._version

    @property
    def declared_version(self) -> int:
        """Monotonic counter bumped every time a declared set is replaced."""
        return self._declared_version

    def rows_changed_since(self, version: int) -> np.ndarray:
        """Ascending ids of nodes whose request counters changed after
        ``version`` was current."""
        return np.flatnonzero(self._row_versions > version)

    def _touch_rows(self, rows: np.ndarray | list[int]) -> None:
        self._version += 1
        self._row_versions[rows] = self._version

    # -- declared profile ---------------------------------------------------

    def set_declared(self, node: int, interests: Iterable[int]) -> None:
        """Set the declared interest set of ``node`` (replaces any previous)."""
        vals = frozenset(int(v) for v in interests)
        for v in vals:
            if not 0 <= v < self._k:
                raise ValueError(f"interest {v} out of range [0, {self._k})")
        if not vals:
            raise ValueError("declared interest set must be non-empty")
        self._declared[node] = vals
        self._declared_version += 1

    def declared(self, node: int) -> frozenset[int]:
        return self._declared[node]

    # -- behavioural requests -----------------------------------------------

    def record_request(self, node: int, interest: int, count: float = 1.0) -> None:
        """Record that ``node`` issued ``count`` requests on ``interest``."""
        if not 0 <= interest < self._k:
            raise ValueError(f"interest {interest} out of range [0, {self._k})")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._requests[node, interest] += count
        self._touch_rows([node])

    def record_requests(
        self,
        nodes: np.ndarray,
        interests: np.ndarray,
        counts: np.ndarray | float = 1.0,
    ) -> None:
        """Batched :meth:`record_request`; bit-identical to the scalar loop
        (``np.add.at`` is unbuffered and the increments are exact integers).
        """
        i = np.asarray(nodes, dtype=np.int64)
        l = np.asarray(interests, dtype=np.int64)
        if i.shape != l.shape or i.ndim != 1:
            raise ValueError("nodes and interests must be 1-D arrays of equal length")
        if i.size == 0:
            return
        c = np.broadcast_to(np.asarray(counts, dtype=np.float64), i.shape)
        if np.any((l < 0) | (l >= self._k)):
            raise ValueError(f"interest out of range [0, {self._k})")
        if np.any(c <= 0):
            raise ValueError("counts must be positive")
        np.add.at(self._requests, (i, l), c)
        self._touch_rows(np.unique(i))

    def request_counts(self, node: int) -> np.ndarray:
        """Copy of the raw per-interest request counts of ``node``."""
        return self._requests[node].copy()

    def request_weights(self, node: int) -> np.ndarray:
        """``w_s(node, l)`` — share of the node's requests per interest.

        All-zero when the node has issued no requests yet.
        """
        row = self._requests[node]
        total = row.sum()
        if total == 0.0:
            return np.zeros(self._k)
        return row / total

    def request_weight_matrix(self) -> np.ndarray:
        """Row-normalised request-share matrix for all nodes (zero rows kept)."""
        totals = self._requests.sum(axis=1, keepdims=True)
        return np.divide(
            self._requests,
            totals,
            out=np.zeros_like(self._requests),
            where=totals > 0,
        )

    def behavioural_interests(self, node: int) -> frozenset[int]:
        """Interests the node has actually requested at least once."""
        return frozenset(np.flatnonzero(self._requests[node] > 0).tolist())

    def declared_matrix(self) -> np.ndarray:
        """Boolean ``n x k`` membership matrix of the declared sets.

        Cached on :attr:`declared_version`; the returned array is the
        read-only cache.
        """
        if self._declared_matrix_version != self._declared_version:
            sizes = [len(vals) for vals in self._declared]
            out = np.zeros((self._n, self._k), dtype=bool)
            out[
                np.repeat(np.arange(self._n), sizes),
                [v for vals in self._declared for v in vals],
            ] = True
            out.flags.writeable = False
            self._declared_matrix = out
            self._declared_matrix_version = self._declared_version
        return self._declared_matrix

    def effective_set_sizes(self) -> np.ndarray:
        """``|declared(i) ∪ behavioural_interests(i)|`` for every node —
        the hardened Ωs denominator's set sizes, as ``float64``."""
        effective = self.declared_matrix() | (self._requests > 0)
        return effective.sum(axis=1).astype(np.float64)

    def summary(self) -> Mapping[str, float]:
        """Aggregate statistics used in docs/tests."""
        sizes = np.array([len(v) for v in self._declared], dtype=float)
        return {
            "mean_declared_size": float(sizes.mean()),
            "total_requests": float(self._requests.sum()),
        }

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Declared sets, request counters, and all three version
        counters (they key the Ωs cache)."""
        return {
            "declared": [sorted(vals) for vals in self._declared],
            "requests": self._requests.copy(),
            "version": self._version,
            "row_versions": self._row_versions.copy(),
            "declared_version": self._declared_version,
        }

    def restore_state(self, state: dict) -> None:
        declared = state["declared"]
        if len(declared) != self._n:
            raise ValueError(
                f"declared sets cover {len(declared)} nodes, store has {self._n}"
            )
        self._declared = [frozenset(int(v) for v in vals) for vals in declared]
        self._declared_matrix_version = -1
        requests = np.asarray(state["requests"], dtype=np.float64)
        if requests.shape != self._requests.shape:
            raise ValueError(
                f"requests shape {requests.shape} != {self._requests.shape}"
            )
        self._requests = requests.copy()
        self._version = int(state["version"])
        self._row_versions = np.asarray(state["row_versions"], dtype=np.int64).copy()
        self._declared_version = int(state["declared_version"])
