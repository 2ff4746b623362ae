"""The CSR-cache Ωc algorithm the two-hop layout replaced — a test oracle.

:class:`CsrCacheClosenessComputer` keeps ``A``, ``T1 = A @ F`` and
``T2 = F @ A`` as CSR matrices, patches dirty rows with ``embed_rows`` and
sparse adds, and re-aligns all three onto the union pattern on every
evaluation.  :class:`repro.core.closeness.ClosenessComputer` in its
two-hop layout must reproduce its values bitwise;
``test_sparse_parity.py`` drives both through the same ledger history.
It borrows only the computer's scalar helpers (relationship factors,
``adjacent``, the path fallback) and overrides every read.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.closeness import ClosenessComputer
from repro.core.config import CommonFriendAggregate


def embed_rows(
    block: sparse.csr_matrix, rows: np.ndarray, n: int
) -> sparse.csr_matrix:
    """Embed a ``len(rows) x n`` CSR block into an ``n x n`` CSR.

    Row ``k`` of the block lands at row ``rows[k]``; every other row is
    empty.  ``rows`` must be strictly ascending.
    """
    block = block.tocsr()
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size != block.shape[0]:
        raise ValueError(
            f"block has {block.shape[0]} rows but {rows.size} positions given"
        )
    if rows.size > 1 and np.any(np.diff(rows) <= 0):
        raise ValueError("row positions must be strictly ascending")
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[rows + 1] = np.diff(block.indptr)
    np.cumsum(indptr, out=indptr)
    return sparse.csr_matrix(
        (block.data.copy(), block.indices.copy(), indptr), shape=(n, n)
    )


def _row_major_keys(mat: sparse.csr_matrix, n: int) -> np.ndarray:
    rows = np.repeat(
        np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr)
    )
    return rows * np.int64(n) + mat.indices.astype(np.int64)


class CsrCacheClosenessComputer(ClosenessComputer):
    """Ωc over CSR value caches re-aligned to ``Pu`` on every evaluation."""

    def __init__(self, view, interactions, config=None) -> None:
        super().__init__(view, interactions, config)
        self._F = None
        self._pu = None
        self._pu_keys = None
        self._pu_is_adj = None
        self._pu_common = None
        self._pu_diag = None
        self._a = None
        self._t1 = None
        self._t2 = None
        self._cached_matrix = None
        self._cached_version = -1
        self._t2_updates = 0

    def _structure(self) -> None:
        if self._F is not None:
            return
        n = self.n_nodes
        factors = self._relationship_factors()
        f = sparse.csr_matrix(
            (
                np.ones(factors.nnz, dtype=np.float64),
                factors.indices.copy(),
                factors.indptr.copy(),
            ),
            shape=(n, n),
        )
        self._F = f
        p2 = (f @ f).tocsr()
        pu = (p2 + f).tocsr()
        pu.sort_indices()
        self._pu = pu
        self._pu_keys = _row_major_keys(pu, n)
        self._pu_common = self._align(p2)
        self._pu_is_adj = self._align(f) > 0.0
        pu_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pu.indptr))
        self._pu_diag = pu_rows == pu.indices

    def _align(self, mat: sparse.spmatrix) -> np.ndarray:
        mat = mat.tocsr()
        mat.sort_indices()
        keys = _row_major_keys(mat, self.n_nodes)
        out = np.zeros(self._pu_keys.size, dtype=np.float64)
        if keys.size:
            pos = np.searchsorted(self._pu_keys, keys)
            if np.any(pos >= self._pu_keys.size) or np.any(
                self._pu_keys[pos] != keys
            ):
                raise AssertionError(
                    "sparse cache pattern escaped the static union support"
                )
            out[pos] = mat.data
        return out

    def matrix_csr(self) -> sparse.csr_matrix:
        self._structure()
        version = self._interactions.version
        if self._cached_matrix is not None and self._cached_version == version:
            return self._cached_matrix
        n = self.n_nodes
        f = self._F
        factors = self._relationship_factors()
        dirty = (
            self._interactions.rows_changed_since(self._cached_version)
            if self._a is not None
            else None
        )
        if (
            dirty is None
            or dirty.size > n // 2
            or self._t2_updates >= self._config.cache_rebuild_interval
        ):
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(factors.indptr))
            shares = self._interactions.share_pairs(rows, factors.indices)
            self._a = sparse.csr_matrix(
                (factors.data * shares, factors.indices.copy(), factors.indptr.copy()),
                shape=(n, n),
            )
            self._t1 = (self._a @ f).tocsr()
            self._t2 = (f @ self._a).tocsr()
            self._t2_updates = 0
        elif dirty.size:
            sub = factors[dirty].tocsr()
            row_of = dirty[np.repeat(np.arange(dirty.size), np.diff(sub.indptr))]
            new = sparse.csr_matrix(
                (
                    sub.data * self._interactions.share_pairs(row_of, sub.indices),
                    sub.indices.copy(),
                    sub.indptr.copy(),
                ),
                shape=(dirty.size, n),
            )
            delta = (new - self._a[dirty]).tocsr()
            self._a = (self._a + embed_rows(delta, dirty, n)).tocsr()
            t1_delta = ((new @ f) - self._t1[dirty]).tocsr()
            self._t1 = (self._t1 + embed_rows(t1_delta, dirty, n)).tocsr()
            self._t2 = (self._t2 + f[:, dirty] @ delta).tocsr()
            self._t2_updates += 1
        self._cached_matrix = self._assemble()
        self._cached_version = version
        return self._cached_matrix

    def _assemble(self) -> sparse.csr_matrix:
        s_al = self._align(self._t1) + self._align(self._t2)
        s_al *= 0.5
        if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
            s_al = np.divide(
                s_al,
                self._pu_common,
                out=np.zeros_like(s_al),
                where=self._pu_common > 0,
            )
        data = np.where(
            self._pu_is_adj,
            self._align(self._a),
            np.where(self._pu_common > 0, s_al, 0.0),
        )
        data[self._pu_diag] = 0.0
        pu = self._pu
        return sparse.csr_matrix(
            (data, pu.indices.copy(), pu.indptr.copy()), shape=pu.shape
        )

    def pair_values(self, raters, ratees) -> np.ndarray:
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        mat = self.matrix_csr()
        values = np.asarray(mat[i, j], dtype=np.float64).ravel().copy()
        keys = i * np.int64(self.n_nodes) + j
        if self._pu_keys.size:
            pos = np.minimum(
                np.searchsorted(self._pu_keys, keys), self._pu_keys.size - 1
            )
            off = self._pu_keys[pos] != keys
        else:
            off = np.ones(keys.shape, dtype=bool)
        for t in np.flatnonzero(off):
            if i[t] != j[t]:
                values[t] = self._path_min(int(i[t]), int(j[t]))
        return values

    def state_dict(self) -> dict:
        def _copy(mat):
            return None if mat is None else mat.copy()

        return {
            "a": _copy(self._a),
            "t1": _copy(self._t1),
            "t2": _copy(self._t2),
            "version": self._cached_version,
            "t2_updates": self._t2_updates,
        }

    def restore_state(self, state: dict) -> None:
        def _mat(value):
            return None if value is None else value.tocsr().copy()

        self._a = _mat(state["a"])
        self._t1 = _mat(state["t1"])
        self._t2 = _mat(state["t2"])
        self._cached_matrix = None
        self._cached_version = int(state["version"])
        self._t2_updates = int(state.get("t2_updates", 0))
