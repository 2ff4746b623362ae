"""Sparse CSR coefficient backend — the ``n ~ 10^5`` Ωc/Ωs core.

The dense computers materialise all-pairs ``n x n`` matrices, which caps
the detector near a few thousand nodes (80 GB of float64 per matrix at
``n = 10^5``).  This module rebuilds the same quantities on SciPy CSR
structures, exploiting what is true of real reputation graphs: adjacency
is sparse, so the Eq. (4)/(10) closeness is structurally zero outside the
union of the adjacency support and the two-hop (common-friend) support.
Pairs off that union are either path-fallback pairs (rare; walked exactly
on demand) or genuinely zero.

Static structure.  The adjacency and the Eq. (2)/(10) relationship
factors are one CSR, the social view's ``relationship_factors()``; it is
the same structure the dense computer densifies, cached and read through
:class:`~repro.core.closeness.ClosenessBase`, which also holds the scalar
``adjacent`` / path-fallback helpers both computers use.

Value layout.  All per-entry arithmetic happens on *aligned data arrays*
over one static union pattern ``Pu = pattern(F @ F) ∪ pattern(F)`` (with
``F`` the float adjacency CSR).  SciPy's binary ops prune explicit zeros,
so alignment is done by construction instead: each CSR's entries are
scattered onto ``Pu`` by searchsorted over row-major ``(row, col)`` keys.
The cached Eq. (3) terms ``A`` (adjacent closeness), ``T1 = A @ F`` and
``T2 = F @ A`` all have patterns contained in ``Pu`` by construction, and
the containment is asserted on every alignment.

Incremental updates mirror the dense cache contract: keyed on the
interaction ledger's version, dirty rows of ``A``/``T1`` are recomputed
exactly and embedded back, ``T2`` takes the low-rank correction
``F[:, D] @ ΔA[D]`` — sharing the dense path's drift bound: after
``SocialTrustConfig.cache_rebuild_interval`` consecutive corrections the
next evaluation rebuilds from scratch.

The sparse path agrees with the dense oracle within floating-point
tolerance (summation order inside sparse matmuls differs), never bitwise;
the QA differential runner compares the two in tolerance mode.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.closeness import ClosenessBase, ClosenessComputer
from repro.core.config import (
    CoefficientBackend,
    CommonFriendAggregate,
    SocialTrustConfig,
)
from repro.core.gaussian import PairBands
from repro.core.similarity import SimilarityComputer
from repro.social.graph import SocialView

__all__ = [
    "SparseClosenessComputer",
    "SparseSimilarityComputer",
    "coefficient_computers",
    "embed_rows",
]

#: Densifying helpers refuse above this many nodes: a float64 ``n x n``
#: matrix at the next power of two would already cost multiple GiB.
_DENSIFY_LIMIT = 8192


def embed_rows(
    block: sparse.csr_matrix, rows: np.ndarray, n: int
) -> sparse.csr_matrix:
    """Embed a ``len(rows) x n`` CSR block into an ``n x n`` CSR.

    Row ``k`` of the block lands at row ``rows[k]``; every other row is
    empty.  ``rows`` must be ascending (which is what the ledgers'
    ``rows_changed_since`` returns), so the block's data can be reused
    verbatim.  This is the O(nnz) primitive behind the incremental cache
    updates: ``cache += embed_rows(new_rows - old_rows, dirty, n)``.
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
    """Row-major ``row * n + col`` keys of a canonical CSR's entries."""
    rows = np.repeat(
        np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr)
    )
    return rows * np.int64(n) + mat.indices.astype(np.int64)


class SparseClosenessComputer(ClosenessBase):
    """CSR drop-in for :class:`~repro.core.closeness.ClosenessComputer`.

    Same constructor signature and coefficient semantics; the all-pairs
    dense matrix is replaced by :meth:`matrix_csr` plus :meth:`pair_values`
    (the detector's sparse pass only ever asks for flagged pairs and band
    neighbourhoods).  :meth:`closeness_matrix` densifies for small-n
    interop and testing.
    """

    def __init__(
        self,
        view: SocialView,
        interactions,
        config: SocialTrustConfig | None = None,
    ) -> None:
        super().__init__(view, interactions, config)
        # Static structure (lazy; the social view is static per experiment).
        self._F: sparse.csr_matrix | None = None
        self._pu: sparse.csr_matrix | None = None
        self._pu_keys: np.ndarray | None = None
        self._pu_is_adj: np.ndarray | None = None
        self._pu_common: np.ndarray | None = None
        self._pu_diag: np.ndarray | None = None
        # Value caches keyed on the interaction ledger's mutation version.
        self._a: sparse.csr_matrix | None = None
        self._t1: sparse.csr_matrix | None = None
        self._t2: sparse.csr_matrix | None = None
        self._cached_matrix: sparse.csr_matrix | None = None
        self._cached_version = -1
        # Consecutive low-rank T2 corrections since the last exact rebuild
        # (same drift bound as the dense computer).
        self._t2_updates = 0
        # Optional instruments (see bind_metrics); None keeps the hot
        # path free of registry lookups when observability is absent.
        self._m_drift = None
        self._m_rebuilds = None
        self._m_patches = None

    def bind_metrics(self, registry) -> None:
        """Publish cache health into a :class:`repro.obs.MetricsRegistry`:
        ``sparse.cache.drift`` (consecutive low-rank corrections since the
        last exact rebuild — the quantity ``cache_rebuild_interval``
        bounds), ``sparse.cache.rebuilds`` and ``sparse.cache.patches``.
        """
        self._m_drift = registry.gauge("sparse.cache.drift")
        self._m_rebuilds = registry.counter("sparse.cache.rebuilds")
        self._m_patches = registry.counter("sparse.cache.patches")
        self._m_drift.set(float(self._t2_updates))

    def invalidate_cache(self) -> None:
        """Drop the static structure after mutating the social view."""
        self._factors_csr = None
        self._F = None
        self._pu = None
        self._pu_keys = None
        self._pu_is_adj = None
        self._pu_common = None
        self._pu_diag = None
        self._drop_value_cache()

    def _drop_value_cache(self) -> None:
        self._a = None
        self._t1 = None
        self._t2 = None
        self._cached_matrix = None
        self._cached_version = -1
        self._t2_updates = 0

    # -- static structure ------------------------------------------------------

    def _structure(self) -> None:
        """Build the float adjacency and the static union pattern ``Pu``
        with its per-entry masks from the relationship-factor CSR."""
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
        # Common-friend counts: every structural entry of F @ F sums 1*1
        # terms, so its data is >= 1 and the union F@F + F never loses
        # entries to zero-pruning.
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
        """Scatter ``mat``'s entries onto the union pattern's data layout.

        Returns a flat float64 array parallel to ``Pu``'s entries, zero
        wherever ``mat`` has no entry.  ``pattern(mat) ⊆ Pu`` is asserted
        (it holds by construction for everything this class aligns).
        """
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

    def closeness(self, i: int, j: int) -> float:
        """Scalar ``Ωc(i, j)`` read through the sparse machinery."""
        if i == j:
            raise ValueError("closeness of a node to itself is undefined")
        return float(self.pair_values(np.array([i]), np.array([j]))[0])

    # -- cached value path -----------------------------------------------------

    def matrix_csr(self) -> sparse.csr_matrix:
        """The Ωc coefficient CSR over the union support, cached
        incrementally against the interaction ledger's version.

        Path-fallback pairs (non-adjacent, zero common friends, but
        connected) are *not* in the support; :meth:`pair_values` walks
        them exactly on demand.
        """
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
            if self._m_rebuilds is not None:
                self._m_rebuilds.inc()
        elif dirty.size:
            sub = factors[dirty].tocsr()
            row_of = dirty[
                np.repeat(np.arange(dirty.size), np.diff(sub.indptr))
            ]
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
            # T1 rows only depend on the matching A rows: exact recompute.
            t1_delta = ((new @ f) - self._t1[dirty]).tocsr()
            self._t1 = (self._t1 + embed_rows(t1_delta, dirty, n)).tocsr()
            # T2 takes the low-rank correction F[:, D] @ ΔA[D].
            self._t2 = (self._t2 + f[:, dirty] @ delta).tocsr()
            self._t2_updates += 1
            if self._m_patches is not None:
                self._m_patches.inc()
        if self._m_drift is not None:
            self._m_drift.set(float(self._t2_updates))
        self._cached_matrix = self._assemble()
        self._cached_version = version
        return self._cached_matrix

    def _assemble(self) -> sparse.csr_matrix:
        """Combine the cached terms on the union pattern — the sparse
        analogue of the dense ``_assemble``."""
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
        """``Ωc`` over pair arrays — the detector's gather primitive.

        Pairs off the union support are walked through the shortest-path
        fallback, matching the dense matrix entry for entry.
        """
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

    def closeness_matrix(self) -> np.ndarray:
        """Densified all-pairs matrix — small-n interop and tests only."""
        n = self.n_nodes
        if n > _DENSIFY_LIMIT:
            raise ValueError(
                f"refusing to densify a {n}x{n} coefficient matrix; use "
                "matrix_csr() / pair_values() at this scale"
            )
        out = self.matrix_csr().toarray()
        adj = self._F.toarray() > 0
        common = (self._F @ self._F).toarray()
        need = (~adj) & (common == 0)
        np.fill_diagonal(need, False)
        for i, j in np.argwhere(need):
            out[i, j] = self._path_min(int(i), int(j))
        np.fill_diagonal(out, 0.0)
        out.flags.writeable = False
        return out

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The incrementally-maintained CSR value caches.

        Same contract as the dense computer: the low-rank T2 update is not
        bitwise equal to a fresh rebuild, so the caches must travel with a
        checkpoint for a resumed run to replay exactly.
        """

        def _copy(mat: sparse.csr_matrix | None) -> sparse.csr_matrix | None:
            return None if mat is None else mat.copy()

        return {
            "a": _copy(self._a),
            "t1": _copy(self._t1),
            "t2": _copy(self._t2),
            "version": self._cached_version,
            "t2_updates": self._t2_updates,
        }

    def restore_state(self, state: dict) -> None:
        n = self.n_nodes

        def _mat(value, name: str) -> sparse.csr_matrix | None:
            if value is None:
                return None
            if not sparse.issparse(value):
                raise ValueError(
                    f"sparse closeness cache {name!r} must be a sparse matrix"
                )
            mat = value.tocsr()
            if mat.shape != (n, n):
                raise ValueError(
                    f"closeness cache {name!r} has shape {mat.shape}, but this "
                    f"computer covers {n} nodes (expected {(n, n)}) — is the "
                    f"checkpoint from a different network size?"
                )
            return mat.copy()

        self._a = _mat(state["a"], "a")
        self._t1 = _mat(state["t1"], "t1")
        self._t2 = _mat(state["t2"], "t2")
        self._cached_matrix = None  # reassembled on demand from a/t1/t2
        self._cached_version = int(state["version"])
        self._t2_updates = int(state.get("t2_updates", 0))


class SparseSimilarityComputer(PairBands):
    """Row-wise drop-in for :class:`~repro.core.similarity.SimilarityComputer`.

    The interest dimension ``k`` is small, so no sparse matrices are
    needed: the all-pairs ``n x n`` product is simply never formed.
    :meth:`pair_values` computes Eq. (7)/(11) for requested pairs from the
    ``n x k`` declared/request-weight rows, and bands gather the same way.
    Every value is a k-length dot product, a pure function of the profile
    store — so unlike Ωc there is no drift-prone incremental state and
    checkpoints carry nothing but a size check.
    """

    def __init__(
        self,
        profiles,
        config: SocialTrustConfig | None = None,
    ) -> None:
        self._profiles = profiles
        self._config = config or SocialTrustConfig()
        self._weights: np.ndarray | None = None
        self._weights_version = -1
        self._sizes: np.ndarray | None = None
        self._sizes_decl_version = -1
        self._sizes_req_version = -1

    @property
    def n_nodes(self) -> int:
        return self._profiles.n_nodes

    @property
    def profiles(self):
        return self._profiles

    @property
    def config(self) -> SocialTrustConfig:
        return self._config

    def _weight_rows(self) -> np.ndarray:
        p = self._profiles
        if self._weights is None or self._weights_version != p.version:
            self._weights = p.request_weight_matrix()
            self._weights_version = p.version
        return self._weights

    def _set_sizes(self) -> np.ndarray:
        """Per-node interest-set sizes: |declared| in plain mode,
        |declared ∪ behavioural| in hardened mode."""
        p = self._profiles
        decl_v = p.declared_version
        req_v = p.version if self._config.hardened else -1
        if (
            self._sizes is None
            or self._sizes_decl_version != decl_v
            or self._sizes_req_version != req_v
        ):
            if self._config.hardened:
                self._sizes = p.effective_set_sizes()
            else:
                self._sizes = p.declared_matrix().sum(axis=1).astype(np.float64)
            self._sizes_decl_version = decl_v
            self._sizes_req_version = req_v
        return self._sizes

    def similarity(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("similarity of a node to itself is undefined")
        return float(self.pair_values(np.array([i]), np.array([j]))[0])

    def pair_values(self, a, b) -> np.ndarray:
        """``Ωs`` over pair arrays (Eq. (7) plain / Eq. (11) hardened)."""
        i = np.asarray(a, dtype=np.int64)
        j = np.asarray(b, dtype=np.int64)
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        sizes = self._set_sizes()
        if self._config.hardened:
            w = self._weight_rows()
            numer = np.einsum("ij,ij->i", w[i], w[j])
        else:
            d = self._profiles.declared_matrix()
            numer = (d[i] & d[j]).sum(axis=1).astype(np.float64)
        denom = np.minimum(sizes[i], sizes[j])
        out = np.divide(
            numer, denom, out=np.zeros(i.shape, dtype=np.float64), where=denom > 0
        )
        out[i == j] = 0.0
        return out

    def similarity_matrix(self) -> np.ndarray:
        """Densified all-pairs matrix — small-n interop and tests only."""
        n = self.n_nodes
        if n > _DENSIFY_LIMIT:
            raise ValueError(
                f"refusing to densify a {n}x{n} coefficient matrix; use "
                "pair_values() at this scale"
            )
        if self._config.hardened:
            w = self._weight_rows()
            numer = w @ w.T
        else:
            d = self._profiles.declared_matrix().astype(np.float64)
            numer = d @ d.T
        sizes = self._set_sizes()
        denom = np.minimum.outer(sizes, sizes)
        out = np.divide(numer, denom, out=np.zeros((n, n)), where=denom > 0)
        np.fill_diagonal(out, 0.0)
        out.flags.writeable = False
        return out

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Every Ωs value is recomputed on demand from the profile store,
        so nothing but a size check needs to travel with a checkpoint."""
        return {"n_nodes": self.n_nodes}

    def restore_state(self, state: dict) -> None:
        n = int(state["n_nodes"])
        if n != self.n_nodes:
            raise ValueError(
                f"similarity checkpoint covers {n} nodes, but this computer "
                f"covers {self.n_nodes} — is the checkpoint from a different "
                "network size?"
            )
        self._weights = None
        self._weights_version = -1
        self._sizes = None
        self._sizes_decl_version = -1
        self._sizes_req_version = -1


def coefficient_computers(
    social_view: SocialView,
    interactions,
    profiles,
    config: SocialTrustConfig,
    *,
    observability=None,
) -> tuple[
    ClosenessComputer | SparseClosenessComputer,
    SimilarityComputer | SparseSimilarityComputer,
]:
    """The Ωc and Ωs computers ``config.coefficient_backend`` selects.

    The sparse closeness cache publishes its health into
    ``observability.metrics`` when a bundle is given.
    """
    if config.coefficient_backend is CoefficientBackend.SPARSE:
        closeness = SparseClosenessComputer(social_view, interactions, config)
        if observability is not None:
            closeness.bind_metrics(observability.metrics)
        return closeness, SparseSimilarityComputer(profiles, config)
    return (
        ClosenessComputer(social_view, interactions, config),
        SimilarityComputer(profiles, config),
    )
