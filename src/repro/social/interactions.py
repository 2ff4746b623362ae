"""Directed interaction-frequency ledger — the ``f(i,j)`` input of Eq. (2).

In a P2P network coupled to a social network, an *interaction* is one node
requesting a resource from (or rating) another.  SocialTrust's closeness
formula normalises the pairwise frequency by the rater's total outgoing
frequency, so colluders cannot raise their closeness to everyone at once:
pumping ``f(i,j)`` for one partner necessarily dilutes the share of every
other partner.

The ledger is a dense ``n x n`` ``float64`` matrix; recording is O(1) and
the share computation is a vectorised row normalisation.

Every mutation bumps a monotonically increasing version counter and stamps
the affected *rows* with it, so downstream consumers (the incremental
:class:`~repro.core.closeness.ClosenessComputer` cache) can ask which
rows' outgoing shares changed since a version they last saw and recompute
only those.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = ["InteractionLedger", "SparseInteractionLedger"]


class InteractionLedger:
    """Accumulates directed interaction counts between nodes."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = int(n_nodes)
        self._counts = np.zeros((self._n, self._n), dtype=np.float64)
        self._version = 0
        self._row_versions = np.zeros(self._n, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return self._n

    # -- change tracking ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation of the ledger."""
        return self._version

    def rows_changed_since(self, version: int) -> np.ndarray:
        """Ascending ids of rows mutated after ``version`` was current."""
        return np.flatnonzero(self._row_versions > version)

    def _touch_rows(self, rows: np.ndarray | list[int]) -> None:
        self._version += 1
        self._row_versions[rows] = self._version

    def record(self, i: int, j: int, count: float = 1.0) -> None:
        """Record ``count`` interactions initiated by ``i`` toward ``j``."""
        if i == j:
            raise ValueError("self-interactions are not meaningful")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._counts[i, j] += count
        self._touch_rows([i])

    def record_many(
        self,
        raters: np.ndarray,
        ratees: np.ndarray,
        counts: np.ndarray | float = 1.0,
    ) -> None:
        """Record a batch of interactions in one vectorised pass.

        Equivalent to ``record(raters[t], ratees[t], counts[t])`` for every
        ``t`` in order — and bit-identical to it: ``np.add.at`` applies the
        unbuffered increments sequentially in index order, and the hot-path
        increments are exact ``float64`` integers anyway.
        """
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        if i.shape != j.shape or i.ndim != 1:
            raise ValueError("raters and ratees must be 1-D arrays of equal length")
        if i.size == 0:
            return
        c = np.broadcast_to(np.asarray(counts, dtype=np.float64), i.shape)
        if np.any(i == j):
            raise ValueError("self-interactions are not meaningful")
        if np.any(c <= 0):
            raise ValueError("counts must be positive")
        np.add.at(self._counts, (i, j), c)
        self._touch_rows(np.unique(i))

    def frequency(self, i: int, j: int) -> float:
        """Raw interaction count from ``i`` to ``j``."""
        return float(self._counts[i, j])

    def total_out(self, i: int) -> float:
        """Total outgoing interactions of ``i`` — the Eq. (2) denominator."""
        return float(self._counts[i].sum())

    def row_totals(self) -> np.ndarray:
        """Per-node total outgoing interaction counts, shape ``(n,)``.

        Parity with :meth:`SparseInteractionLedger.row_totals`;
        :meth:`share_pairs` gathers its denominators from it.
        """
        return self._counts.sum(axis=1)

    def share(self, i: int, j: int) -> float:
        """``f(i,j) / sum_k f(i,k)``; 0 when ``i`` has no interactions."""
        total = self._counts[i].sum()
        if total == 0.0:
            return 0.0
        return float(self._counts[i, j] / total)

    def share_matrix(self) -> np.ndarray:
        """Row-normalised copy of the count matrix (rows with no data stay 0)."""
        totals = self._counts.sum(axis=1, keepdims=True)
        out = np.divide(
            self._counts,
            totals,
            out=np.zeros_like(self._counts),
            where=totals > 0,
        )
        return out

    def share_pairs(self, raters: np.ndarray, ratees: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`share` over pair arrays — the lookup the Ωc
        computer's pair kernel and two-hop layout use so they never
        materialise the full share matrix.  Memory is O(n + pairs): the row totals are gathered once,
        never a count row per pair."""
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        totals = self.row_totals()[i]
        return np.divide(
            self._counts[i, j],
            totals,
            out=np.zeros(i.shape, dtype=np.float64),
            where=totals > 0,
        )

    def counts_matrix(self) -> np.ndarray:
        """Read-only view of the raw count matrix."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def decay_nodes(self, nodes: np.ndarray, factor: float) -> None:
        """Age out ``nodes``'s rows and columns by multiplying with ``factor``.

        Used by the churn-aware simulation: a departed peer's interaction
        history decays every cycle it stays offline, so a rejoining peer
        resumes with correspondingly weakened closeness evidence rather
        than stale full-strength history.  Pairs where *both* endpoints
        are offline decay by ``factor**2`` (both sides' evidence is aging).
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {factor}")
        idx = np.asarray(nodes, dtype=np.int64)
        if idx.size == 0 or factor == 1.0:
            return
        # Column scaling shifts the share denominators of every row holding
        # evidence about a decayed node, so those rows are dirty too.
        touched = np.flatnonzero(self._counts[:, idx].any(axis=1))
        self._counts[idx, :] *= factor
        self._counts[:, idx] *= factor
        self._touch_rows(np.union1d(idx, touched))

    def reset(self) -> None:
        self._counts[:] = 0.0
        self._touch_rows(np.arange(self._n))

    def state_dict(self) -> dict:
        """Counts plus both version counters — the versions key the Ωc
        cache, so a checkpoint must carry them verbatim for the resumed
        run's cache hits/misses to replay identically."""
        return {
            "counts": self._counts.copy(),
            "version": self._version,
            "row_versions": self._row_versions.copy(),
        }

    def restore_state(self, state: dict) -> None:
        counts = np.asarray(state["counts"], dtype=np.float64)
        if counts.shape != self._counts.shape:
            raise ValueError(
                f"counts shape {counts.shape} != {self._counts.shape}"
            )
        self._counts = counts.copy()
        self._version = int(state["version"])
        self._row_versions = np.asarray(state["row_versions"], dtype=np.int64).copy()


class SparseInteractionLedger:
    """CSR-backed drop-in for :class:`InteractionLedger`.

    The dense ledger's ``n x n`` count matrix is the first structure to
    hit the memory wall (80 GB of float64 at ``n = 10^5``).  Real
    interaction graphs are sparse — a node interacts with its social
    neighbourhood, not with everyone — so this ledger keeps the counts in
    a CSR matrix plus a small append-only COO buffer that absorbs
    O(1)-ish ``record``/``record_many`` calls and is compacted into the
    CSR on the next read.

    The public surface mirrors :class:`InteractionLedger` (including the
    version / dirty-row protocol the incremental Ωc caches key on and
    :meth:`share_pairs`, which the Ωc computer's kernels read).
    ``share_matrix`` / ``counts_matrix`` densify and exist for small-n
    interop and tests — don't call them at 10^5 nodes.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        self._n = int(n_nodes)
        self._csr = sparse.csr_matrix((self._n, self._n), dtype=np.float64)
        self._pending_i: list[np.ndarray] = []
        self._pending_j: list[np.ndarray] = []
        self._pending_c: list[np.ndarray] = []
        self._version = 0
        self._row_versions = np.zeros(self._n, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return self._n

    # -- change tracking ------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation of the ledger."""
        return self._version

    def rows_changed_since(self, version: int) -> np.ndarray:
        """Ascending ids of rows mutated after ``version`` was current."""
        return np.flatnonzero(self._row_versions > version)

    def _touch_rows(self, rows: np.ndarray | list[int]) -> None:
        self._version += 1
        self._row_versions[rows] = self._version

    def _compact(self) -> sparse.csr_matrix:
        """Fold the pending COO buffer into the CSR store."""
        if self._pending_i:
            i = np.concatenate(self._pending_i)
            j = np.concatenate(self._pending_j)
            c = np.concatenate(self._pending_c)
            self._pending_i, self._pending_j, self._pending_c = [], [], []
            delta = sparse.coo_matrix(
                (c, (i, j)), shape=(self._n, self._n), dtype=np.float64
            )
            self._csr = (self._csr + delta.tocsr()).tocsr()
        return self._csr

    # -- recording ------------------------------------------------------------

    def record(self, i: int, j: int, count: float = 1.0) -> None:
        """Record ``count`` interactions initiated by ``i`` toward ``j``."""
        if i == j:
            raise ValueError("self-interactions are not meaningful")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._pending_i.append(np.array([i], dtype=np.int64))
        self._pending_j.append(np.array([j], dtype=np.int64))
        self._pending_c.append(np.array([count], dtype=np.float64))
        self._touch_rows([i])

    def record_many(
        self,
        raters: np.ndarray,
        ratees: np.ndarray,
        counts: np.ndarray | float = 1.0,
    ) -> None:
        """Batched :meth:`record`; equivalent to the scalar loop."""
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        if i.shape != j.shape or i.ndim != 1:
            raise ValueError("raters and ratees must be 1-D arrays of equal length")
        if i.size == 0:
            return
        c = np.broadcast_to(np.asarray(counts, dtype=np.float64), i.shape)
        if np.any(i == j):
            raise ValueError("self-interactions are not meaningful")
        if np.any(c <= 0):
            raise ValueError("counts must be positive")
        self._pending_i.append(i.copy())
        self._pending_j.append(j.copy())
        self._pending_c.append(np.asarray(c, dtype=np.float64).copy())
        self._touch_rows(np.unique(i))

    # -- reads ----------------------------------------------------------------

    def frequency(self, i: int, j: int) -> float:
        """Raw interaction count from ``i`` to ``j``."""
        return float(self._compact()[i, j])

    def total_out(self, i: int) -> float:
        """Total outgoing interactions of ``i`` — the Eq. (2) denominator."""
        csr = self._compact()
        return float(csr.data[csr.indptr[i]:csr.indptr[i + 1]].sum())

    def share(self, i: int, j: int) -> float:
        """``f(i,j) / sum_k f(i,k)``; 0 when ``i`` has no interactions."""
        total = self.total_out(i)
        if total == 0.0:
            return 0.0
        return float(self._compact()[i, j] / total)

    def row_totals(self) -> np.ndarray:
        """Per-node total outgoing interaction counts, shape ``(n,)``."""
        return np.asarray(self._compact().sum(axis=1)).ravel()

    def share_pairs(self, raters: np.ndarray, ratees: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`share` over pair arrays (CSR sampling)."""
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        csr = self._compact()
        totals = np.asarray(csr.sum(axis=1)).ravel()
        values = np.asarray(csr[i, j]).ravel()
        return np.divide(
            values,
            totals[i],
            out=np.zeros(i.shape, dtype=np.float64),
            where=totals[i] > 0,
        )

    def share_matrix(self) -> np.ndarray:
        """Dense row-normalised counts (rows with no data stay 0) —
        small-n interop/tests only."""
        csr = self._compact().copy()
        totals = np.asarray(csr.sum(axis=1)).ravel()
        row_ids = np.repeat(np.arange(self._n), np.diff(csr.indptr))
        scale = np.divide(
            1.0, totals, out=np.zeros_like(totals), where=totals > 0
        )
        csr.data *= scale[row_ids]
        return csr.toarray()

    def counts_matrix(self) -> np.ndarray:
        """Dense copy of the counts — small-n interop/tests only."""
        return self._compact().toarray()

    # -- mutation -------------------------------------------------------------

    def decay_nodes(self, nodes: np.ndarray, factor: float) -> None:
        """Age out ``nodes``'s rows and columns by multiplying with ``factor``.

        Same contract as :meth:`InteractionLedger.decay_nodes`: pairs with
        both endpoints decayed scale by ``factor**2``, and every row
        holding evidence about a decayed node is marked dirty (column
        scaling shifts its share denominator).
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"factor must be in [0, 1], got {factor}")
        idx = np.asarray(nodes, dtype=np.int64)
        if idx.size == 0 or factor == 1.0:
            return
        csr = self._compact()
        row_ids = np.repeat(np.arange(self._n), np.diff(csr.indptr))
        in_cols = np.isin(csr.indices, idx)
        in_rows = np.isin(row_ids, idx)
        touched = np.unique(row_ids[in_cols])
        csr.data[in_rows] *= factor
        csr.data[in_cols] *= factor
        self._touch_rows(np.union1d(idx, touched))

    def reset(self) -> None:
        self._csr = sparse.csr_matrix((self._n, self._n), dtype=np.float64)
        self._pending_i, self._pending_j, self._pending_c = [], [], []
        self._touch_rows(np.arange(self._n))

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Compacted counts plus both version counters (the versions key
        the Ωc cache exactly as in the dense ledger)."""
        csr = self._compact()
        return {
            "counts_csr": csr.copy(),
            "version": self._version,
            "row_versions": self._row_versions.copy(),
        }

    def restore_state(self, state: dict) -> None:
        csr = state["counts_csr"]
        if not sparse.issparse(csr):
            raise ValueError("sparse ledger state must carry a CSR counts matrix")
        csr = csr.tocsr()
        if csr.shape != (self._n, self._n):
            raise ValueError(
                f"counts shape {csr.shape} != {(self._n, self._n)}"
            )
        self._csr = csr.copy()
        self._pending_i, self._pending_j, self._pending_c = [], [], []
        self._version = int(state["version"])
        row_versions = np.asarray(state["row_versions"], dtype=np.int64)
        if row_versions.shape != (self._n,):
            raise ValueError(
                f"row_versions shape {row_versions.shape} != {(self._n,)}"
            )
        self._row_versions = row_versions.copy()
