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

Value layout.  The cached Eq. (3) terms ``A`` (adjacent closeness),
``T1 = A @ F`` and ``T2 = F @ A`` are stored as flat float64 arrays
parallel to the entries of one static union pattern
``Pu = pattern(F @ F) ∪ pattern(F)`` (with ``F`` the float adjacency
CSR), zero where a term has no entry.  Ωc itself is a fourth aligned
array: Eq. (2) at the adjacency slots (a static index array), Eq. (3) at
the off-diagonal slots off the adjacency (each has a common friend,
since it comes from ``F @ F``), zero on the diagonal.
:meth:`SparseClosenessComputer.pair_values` gathers each pair's value
by its position in ``Pu``; the Ωc CSR
(:meth:`~SparseClosenessComputer.matrix_csr`) is built only when asked
for.

The two-hop slot table.  ``T1[i, j]`` sums ``A[i, d]`` and ``T2[i, j]``
sums ``A[d, j]`` over the paths ``i ~ d ~ j``.  The structure build lists
every such path once, with the ``Pu`` slot of ``(i, j)``, grouped by the
``F`` entry ``(i, d)`` in ``F``'s (sorted) order -- row-major, so row
``i``'s paths are one contiguous range -- plus ``F``'s entries grouped by
centre ``d``, which give any set of centres' paths centre-major.  Both
orders list a slot's paths in ascending ``d``, the order SciPy's product
sums them in, and ``np.bincount`` adds in input order from 0.0: a sum
over the table is bitwise the matching SciPy product.  The table holds
``Σ_d deg(d)²`` paths, the flop count of the ``F @ F`` the build runs
anyway; each path's slot count also gives ``Pu``'s common-friend counts.

Incremental updates mirror the dense cache contract, keyed on the
interaction ledger's version.  A cold cache, more than ``n / 2`` dirty
rows, or ``SocialTrustConfig.cache_rebuild_interval`` consecutive
corrections since the last rebuild (the dense path's drift bound) rebuild
``A`` and sum ``T1`` and ``T2`` over the whole table.  Otherwise a patch
writes in place: the dirty rows' adjacency slots of ``A`` become
``a + (new - a)``; every ``Pu`` slot of those rows in ``T1`` becomes
``t1 + (fresh - t1)``, with ``fresh`` one bincount over the rows' paths
weighted by the new ``A[i, d]``; and ``T2`` adds the low-rank correction
``F[:, D] @ ΔA[D]``, one bincount over the dirty centres' paths weighted
by ``ΔA[d, j]``.  That is the same arithmetic, entry for entry, as adding
the row deltas as CSR matrices, so the values are bitwise those of the
CSR-cache layout this replaced.  Ωc is then recomputed only at the slots
the patch wrote.  A patch makes no SciPy product and no search of
``Pu``: it costs O(the dirty rows' ``Pu`` slots + the dirty rows' and
centres' paths), plus one ``Pu``-length scratch vector for the
correction.

Against the dense computer the values are bitwise equal after any full
rebuild the dense one makes with its sparse-A kernel (worlds over 128
nodes with a sparse ``A``: both sum each ``T1``/``T2`` entry over
ascending common friends from 0.0), and after a dense-kernel rebuild at
sizes where BLAS sums in that order too (n=200).  Elsewhere, and once
either side has patched, they agree within floating-point tolerance; the
QA differential runner compares the two in tolerance mode.
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
]

#: Densifying helpers refuse above this many nodes: a float64 ``n x n``
#: matrix at the next power of two would already cost multiple GiB.
_DENSIFY_LIMIT = 8192


def _row_major_keys(mat: sparse.csr_matrix, n: int) -> np.ndarray:
    """Row-major ``row * n + col`` keys of a CSR's entries, in storage order."""
    rows = np.repeat(
        np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr)
    )
    return rows * np.int64(n) + mat.indices.astype(np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], starts[k] + counts[k])`` over ``k``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


def _locate(haystack: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` in the sorted ``haystack``; every key must be
    present (the cache patterns are contained in ``Pu`` by construction)."""
    pos = np.searchsorted(haystack, keys)
    if keys.size and (
        pos.max() >= haystack.size or np.any(haystack[pos] != keys)
    ):
        raise AssertionError("sparse cache pattern escaped the static union support")
    return pos


class SparseClosenessComputer(ClosenessBase):
    """CSR drop-in for :class:`~repro.core.closeness.ClosenessComputer`.

    Same constructor signature and coefficient semantics; the all-pairs
    dense matrix is replaced by :meth:`pair_values` (the detector only ever
    asks for active, flagged and band pairs) and :meth:`matrix_csr`.
    :meth:`closeness_matrix` densifies for small-n interop and testing.
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
        self._pu_indptr: np.ndarray | None = None
        self._pu_indices: np.ndarray | None = None
        self._pu_keys: np.ndarray | None = None
        self._pu_common: np.ndarray | None = None
        self._adj_pos: np.ndarray | None = None  # Pu slot of each F entry
        self._pu_is_common: np.ndarray | None = None  # Eq. (3) slots
        # The two-hop slot table: the Pu slot of (i, j) for every path
        # i ~ d ~ j, grouped by the F entry (i, d) in F's order, and F's
        # entries grouped by centre d (see _structure).
        self._hop_start: np.ndarray | None = None  # first path of each F entry
        self._hop_slot: np.ndarray | None = None
        self._by_centre: np.ndarray | None = None
        self._centre_indptr: np.ndarray | None = None
        # Value caches aligned to Pu, keyed on the interaction ledger's
        # mutation version.
        self._a: np.ndarray | None = None
        self._t1: np.ndarray | None = None
        self._t2: np.ndarray | None = None
        self._values: np.ndarray | None = None
        self._csr: sparse.csr_matrix | None = None
        self._cached_version = -1

    def invalidate_cache(self) -> None:
        """Drop the static structure after mutating the social view."""
        super().invalidate_cache()
        self._F = None
        self._pu_indptr = None
        self._pu_indices = None
        self._pu_keys = None
        self._pu_common = None
        self._adj_pos = None
        self._pu_is_common = None
        self._hop_start = None
        self._hop_slot = None
        self._by_centre = None
        self._centre_indptr = None
        self._drop_value_cache()

    def _drop_value_cache(self) -> None:
        self._a = None
        self._t1 = None
        self._t2 = None
        self._values = None
        self._csr = None
        self._cached_version = -1
        self._t2_updates = 0

    # -- static structure ------------------------------------------------------

    def _structure(self) -> None:
        """Build the float adjacency, the static union pattern ``Pu`` with
        its adjacency slots and common-friend counts, and the two-hop slot
        table."""
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
        # Every structural entry of F @ F sums 1*1 terms, so its data is
        # >= 1 and the union F@F + F never loses entries to zero-pruning.
        pu = ((f @ f) + f).tocsr()
        pu.sort_indices()
        self._pu_indptr = pu.indptr
        self._pu_indices = pu.indices
        self._pu_keys = _row_major_keys(pu, n)
        self._adj_pos = _locate(self._pu_keys, _row_major_keys(f, n))
        # The two-hop table.  F entry (i, d) carries the paths i ~ d ~ j
        # over row d's entries, so row i's paths are one contiguous range
        # and list each of its slots' paths in ascending d.
        indptr = factors.indptr.astype(np.int64)
        indices = factors.indices.astype(np.int64)
        degree = np.diff(indptr)
        hops = degree[indices]
        self._hop_start = np.concatenate([[0], np.cumsum(hops)])
        row_paths = np.diff(self._hop_start[indptr])
        keys = np.repeat(np.arange(n, dtype=np.int64) * np.int64(n), row_paths)
        keys += indices[_ranges(indptr[indices], hops)]
        self._hop_slot = _locate(self._pu_keys, keys)
        # F's entries by centre d (ascending i within one d): the paths
        # through a set of centres, centre-major.
        self._by_centre = np.argsort(indices, kind="stable")
        self._centre_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(indices, minlength=n))]
        )
        # A slot's path count is its number of common friends; every
        # non-adjacent Pu entry has one, so off the diagonal Eq. (3)
        # gives its value.
        self._pu_common = np.bincount(
            self._hop_slot, minlength=self._pu_keys.size
        ).astype(np.float64)
        pu_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(pu.indptr))
        self._pu_is_common = pu_rows != pu.indices
        self._pu_is_common[self._adj_pos] = False
        self._F = f

    def _align(self, mat: sparse.spmatrix) -> np.ndarray:
        """Scatter ``mat``'s entries onto ``Pu``: a flat float64 array
        parallel to ``Pu``'s entries, zero wherever ``mat`` has none."""
        mat = mat.tocsr()
        out = np.zeros(self._pu_keys.size, dtype=np.float64)
        out[_locate(self._pu_keys, _row_major_keys(mat, self.n_nodes))] = mat.data
        return out

    def closeness(self, i: int, j: int) -> float:
        """Scalar ``Ωc(i, j)`` read through the sparse machinery."""
        if i == j:
            raise ValueError("closeness of a node to itself is undefined")
        return float(self.pair_values(np.array([i]), np.array([j]))[0])

    # -- cached value path -----------------------------------------------------

    def _evaluate(self) -> np.ndarray:
        """Ωc on ``Pu`` (parallel to its entries), cached incrementally
        against the interaction ledger's version."""
        self._structure()
        version = self._interactions.version
        if self._values is not None and self._cached_version == version:
            return self._values
        dirty = (
            self._interactions.rows_changed_since(self._cached_version)
            if self._a is not None
            else None
        )
        if (
            dirty is None
            or dirty.size > self.n_nodes // 2
            or self._t2_updates >= self._config.cache_rebuild_interval
        ):
            self._rebuild()
            self._values = None
            self._t2_updates = 0
            if self._m_rebuilds is not None:
                self._m_rebuilds.inc()
        elif dirty.size:
            a_slots, t_slots = self._patch(dirty)
            if self._values is not None:
                self._assemble(a_slots, t_slots[self._pu_is_common[t_slots]])
            self._t2_updates += 1
            if self._m_patches is not None:
                self._m_patches.inc()
        if self._values is None:  # rebuilt, or restored from a checkpoint
            self._values = np.zeros(self._pu_keys.size, dtype=np.float64)
            self._assemble(self._adj_pos, np.flatnonzero(self._pu_is_common))
        if self._m_drift is not None:
            self._m_drift.set(float(self._t2_updates))
        self._csr = None
        self._cached_version = version
        return self._values

    def _rebuild(self) -> None:
        """Exact ``A``, ``T1 = A @ F`` and ``T2 = F @ A``, recomputed in
        full over the two-hop table."""
        n = self.n_nodes
        factors = self._relationship_factors()
        indptr = factors.indptr.astype(np.int64)
        indices = factors.indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        a_data = factors.data * self._interactions.share_pairs(rows, indices)
        size = self._pu_keys.size
        self._a = np.zeros(size, dtype=np.float64)
        self._a[self._adj_pos] = a_data
        # T1[i, j] sums A[i, d] and T2[i, j] sums A[d, j] over the paths
        # i ~ d ~ j.  bincount adds in input order from 0.0, and the table
        # lists a slot's paths in ascending d -- the order SciPy's product
        # sums them in -- so the values are bitwise ``A @ F`` and ``F @ A``.
        hops = np.diff(self._hop_start)
        self._t1 = np.bincount(
            self._hop_slot, np.repeat(a_data, hops), minlength=size
        )
        self._t2 = np.bincount(
            self._hop_slot,
            a_data[_ranges(indptr[indices], hops)],
            minlength=size,
        )

    def _patch(self, dirty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rewrite the dirty rows' slots of ``A`` and ``T1`` and add the
        low-rank correction ``F[:, D] @ ΔA[D]`` to ``T2``, in place, each
        summed over the two-hop table.

        Returns the ``Pu`` slots written in ``A`` and in ``T1``/``T2``
        (the latter possibly repeated).
        """
        factors = self._relationship_factors()
        hop_start = self._hop_start
        # A: the dirty rows' adjacency entries, in F's (sorted) order.
        counts = factors.indptr[dirty + 1] - factors.indptr[dirty]
        entries = _ranges(factors.indptr[dirty], counts)
        cols = factors.indices[entries]
        new = factors.data[entries] * self._interactions.share_pairs(
            np.repeat(dirty, counts), cols
        )
        slots = self._adj_pos[entries]
        old = self._a[slots]
        delta = new - old
        self._a[slots] = old + delta
        # T1 rows only depend on the matching A rows: exact recompute over
        # every Pu slot of the dirty rows (a slot no path reaches goes to
        # zero).  Row i's paths are contiguous; shifting their slots by
        # row makes them positions in ``row_slots``.
        starts = self._pu_indptr[dirty]
        widths = self._pu_indptr[dirty + 1] - starts
        row_slots = _ranges(starts, widths)
        first = hop_start[factors.indptr[dirty]]
        paths = hop_start[factors.indptr[dirty + 1]] - first
        fresh = np.bincount(
            self._hop_slot[_ranges(first, paths)]
            - np.repeat(starts - (np.cumsum(widths) - widths), paths),
            np.repeat(new, hop_start[entries + 1] - hop_start[entries]),
            minlength=row_slots.size,
        )
        old = self._t1[row_slots]
        self._t1[row_slots] = old + (fresh - old)
        # T2 takes the low-rank correction F[:, D] @ ΔA[D]: each dirty
        # centre d, ascending, adds ΔA[d, j] at (i, j) for every F entry
        # (i, d) -- row d's deltas once per entry.
        fan_in = self._centre_indptr[dirty + 1] - self._centre_indptr[dirty]
        inbound = self._by_centre[_ranges(self._centre_indptr[dirty], fan_in)]
        block = np.repeat(counts, fan_in)
        t2_slots = self._hop_slot[_ranges(hop_start[inbound], block)]
        correction = np.bincount(
            t2_slots,
            delta[_ranges(np.repeat(np.cumsum(counts) - counts, fan_in), block)],
            minlength=self._pu_keys.size,
        )
        self._t2[t2_slots] += correction[t2_slots]
        return slots, np.concatenate([row_slots, t2_slots])

    def _assemble(self, adj: np.ndarray, common: np.ndarray) -> None:
        """Write Ωc into the aligned values at adjacent slots ``adj``
        (Eq. (2): the cached ``A``) and at common-friend slots ``common``
        (Eq. (3) from ``T1`` and ``T2``) — the sparse analogue of the
        dense ``_assemble``.  Diagonal slots keep their zero."""
        values = self._values
        values[adj] = self._a[adj]
        eq3 = self._t1[common] + self._t2[common]
        eq3 *= 0.5
        if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
            eq3 /= self._pu_common[common]
        values[common] = eq3

    def matrix_csr(self) -> sparse.csr_matrix:
        """The Ωc coefficient CSR over the union support (pattern ``Pu``,
        diagonal entries held at zero), built from the cache on demand.

        Path-fallback pairs (non-adjacent, zero common friends, but
        connected) are *not* in the support; :meth:`pair_values` walks
        them exactly on demand.
        """
        values = self._evaluate()
        if self._csr is None:
            n = self.n_nodes
            self._csr = sparse.csr_matrix(
                (values.copy(), self._pu_indices.copy(), self._pu_indptr.copy()),
                shape=(n, n),
            )
        return self._csr

    def pair_values(self, raters, ratees) -> np.ndarray:
        """``Ωc`` over pair arrays — the detector's gather primitive.

        Pairs on ``Pu`` read the cached values by position; pairs off it
        are walked through the shortest-path fallback, matching the dense
        matrix entry for entry.
        """
        i, j = self._pair_ids(raters, ratees)
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        values = self._evaluate()
        keys = i * np.int64(self.n_nodes) + j
        pu_keys = self._pu_keys
        if pu_keys.size:
            pos = np.minimum(np.searchsorted(pu_keys, keys), pu_keys.size - 1)
            on = pu_keys[pos] == keys
            out = np.where(on, values[pos], 0.0)
        else:
            on = np.zeros(keys.shape, dtype=bool)
            out = np.zeros(keys.shape, dtype=np.float64)
        for t in np.flatnonzero(~on & (i != j)):
            out[t] = self._path_min(int(i[t]), int(j[t]))
        return out

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
        """The incrementally-maintained value caches, as CSR matrices.

        Same contract as the dense computer: the low-rank T2 update is not
        bitwise equal to a fresh rebuild, so the caches must travel with a
        checkpoint for a resumed run to replay exactly.
        """
        n = self.n_nodes

        def _csr(values: np.ndarray | None) -> sparse.csr_matrix | None:
            if values is None:
                return None
            mat = sparse.csr_matrix(
                (values.copy(), self._pu_indices.copy(), self._pu_indptr.copy()),
                shape=(n, n),
            )
            mat.eliminate_zeros()
            return mat

        return {
            "a": _csr(self._a),
            "t1": _csr(self._t1),
            "t2": _csr(self._t2),
            "version": self._cached_version,
            "t2_updates": self._t2_updates,
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output; any CSR whose pattern lies in
        ``Pu`` is accepted, so checkpoints of the CSR-cache layout load
        too."""
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
            return mat

        mats = [_mat(state[name], name) for name in ("a", "t1", "t2")]
        if any(mat is not None for mat in mats):
            self._structure()
        self._a, self._t1, self._t2 = (
            None if mat is None else self._align(mat) for mat in mats
        )
        self._values = None  # reassembled on demand from a/t1/t2
        self._csr = None
        self._cached_version = int(state["version"])
        self._t2_updates = int(state.get("t2_updates", 0))


class SparseSimilarityComputer(PairBands):
    """Row-wise drop-in for :class:`~repro.core.similarity.SimilarityComputer`.

    The interest dimension ``k`` is small, so no sparse matrices are
    needed: the all-pairs ``n x n`` product is simply never formed.
    Eq. (7)/(11) for a pair is a k-length dot product of the ``n x k``
    declared/request-weight rows, a pure function of the pair and the
    profile store, and bands gather the same way.

    :meth:`pair_values` caches what it computes: sorted row-major pair
    keys and their values, valid for one version of the profile store
    (its ``declared_version``, and in hardened mode also its request
    ``version``).  A query gathers the hits with one searchsorted,
    computes only the misses, and merges them in; any move of those
    versions drops the cache, since a request or a declared set changes
    whole rows.  The cache holds the distinct pairs asked since the last
    move -- for the detector, its active and band pairs, a subset of
    the rated pairs.  Cached and fresh values are bitwise equal, so
    checkpoints still carry nothing but a size check.
    """

    def __init__(
        self,
        profiles,
        config: SocialTrustConfig | None = None,
    ) -> None:
        self._profiles = profiles
        self._config = config or SocialTrustConfig()
        self._drop_caches()

    def _drop_caches(self) -> None:
        self._versions: tuple[int, int] | None = None
        self._weights: np.ndarray | None = None
        self._sizes: np.ndarray | None = None
        self._pair_keys = np.zeros(0, dtype=np.int64)
        self._pair_values = np.zeros(0, dtype=np.float64)

    def _sync(self) -> None:
        """Drop every cache once the profile-store versions Ωs reads have
        moved: the declared sets, and in hardened mode the request
        counters."""
        p = self._profiles
        versions = (p.declared_version, p.version if self._config.hardened else -1)
        if versions != self._versions:
            self._drop_caches()
            self._versions = versions

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
        if self._weights is None:
            self._weights = self._profiles.request_weight_matrix()
        return self._weights

    def _set_sizes(self) -> np.ndarray:
        """Per-node interest-set sizes: |declared| in plain mode,
        |declared ∪ behavioural| in hardened mode."""
        if self._sizes is None:
            p = self._profiles
            if self._config.hardened:
                self._sizes = p.effective_set_sizes()
            else:
                self._sizes = p.declared_matrix().sum(axis=1).astype(np.float64)
        return self._sizes

    def similarity(self, i: int, j: int) -> float:
        if i == j:
            raise ValueError("similarity of a node to itself is undefined")
        return float(self.pair_values(np.array([i]), np.array([j]))[0])

    def pair_values(self, a, b) -> np.ndarray:
        """``Ωs`` over pair arrays (Eq. (7) plain / Eq. (11) hardened),
        read through the pair cache."""
        i, j = self._pair_ids(a, b)
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        n = self.n_nodes
        keys = i * np.int64(n) + j
        self._sync()
        cached = self._pair_keys
        if cached.size:
            pos = np.minimum(np.searchsorted(cached, keys), cached.size - 1)
            hit = cached[pos] == keys
            out = np.where(hit, self._pair_values[pos], 0.0)
        else:
            hit = np.zeros(keys.shape, dtype=bool)
            out = np.zeros(keys.shape, dtype=np.float64)
        if not hit.all():
            miss = ~hit
            fresh_keys, inverse = np.unique(keys[miss], return_inverse=True)
            fresh = self._compute(*np.divmod(fresh_keys, np.int64(n)))
            out[miss] = fresh[inverse]
            at = np.searchsorted(cached, fresh_keys)
            self._pair_keys = np.insert(cached, at, fresh_keys)
            self._pair_values = np.insert(self._pair_values, at, fresh)
        return out

    def _compute(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Eq. (7)/(11) for 1-D pair arrays, from the profile rows."""
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
        self._sync()
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
        """Every Ωs value is a pure function of its pair and the profile
        store, recomputed on demand after a restore, so nothing but a size
        check needs to travel with a checkpoint."""
        return {"n_nodes": self.n_nodes}

    def restore_state(self, state: dict) -> None:
        n = int(state["n_nodes"])
        if n != self.n_nodes:
            raise ValueError(
                f"similarity checkpoint covers {n} nodes, but this computer "
                f"covers {self.n_nodes} — is the checkpoint from a different "
                "network size?"
            )
        self._drop_caches()


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

    The closeness cache publishes its health into
    ``observability.metrics`` when a bundle is given.
    """
    if config.coefficient_backend is CoefficientBackend.SPARSE:
        closeness = SparseClosenessComputer(social_view, interactions, config)
        similarity = SparseSimilarityComputer(profiles, config)
    else:
        closeness = ClosenessComputer(social_view, interactions, config)
        similarity = SimilarityComputer(profiles, config)
    if observability is not None:
        closeness.bind_metrics(observability.metrics)
    return closeness, similarity
