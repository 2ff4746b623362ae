"""Social closeness ``Ωc`` — Eqs. (2), (3), (4) and the hardened Eq. (10).

The closeness between a rater ``i`` and ratee ``j`` is:

* **adjacent** (distance 1):
  ``relationship_factor(i,j) * f(i,j) / sum_k f(i,k)`` — relationship count
  ``m(i,j)`` in plain mode (Eq. (2)), the ``sum_l lambda^(l-1) w_dl``
  weighted sum in hardened mode (Eq. (10));
* **non-adjacent with common friends**:
  ``sum over common friends k of (Ωc(i,k) + Ωc(k,j)) / 2`` (Eq. (3));
* **non-adjacent without common friends**:
  the minimum adjacent closeness along one shortest social path, 0 when no
  path exists.

Because the adjacent closeness normalises by the rater's *total* outgoing
interaction frequency, a colluder cannot raise its closeness to a partner
without draining closeness from everyone else it interacts with — the
lightweight anti-gaming property Section 4.1 argues for.

Three evaluation paths are provided and tested to agree:

* :meth:`ClosenessComputer.closeness` — scalar, follows the piecewise
  definition literally (readable reference implementation);
* :meth:`ClosenessComputer.closeness_matrix` — all-pairs, vectorised.
  With ``A`` the adjacent-closeness matrix and ``M`` the boolean adjacency
  matrix, Eq. (3) for every pair at once is ``(A@M + M@A) / 2`` restricted
  to non-adjacent pairs with at least one common friend (``A`` is zero off
  the adjacency support, so the products only pick up common-friend terms).
  The rare no-common-friend pairs fall back to the scalar path walk.
* :meth:`ClosenessComputer.pair_values` — the same element-wise assembly
  of the same cached terms, applied only at the asked pairs: bitwise the
  matrix's entries, at a cost proportional to the pairs.  This is what
  the detector reads; the full matrix is assembled only when
  :meth:`~ClosenessComputer.closeness_matrix` is called (QA, goldens).

The relationship factor is a static per-edge quantity, so the social view
builds it once for every pair: ``view.relationship_factors()`` returns a
symmetric CSR whose explicit entries are the adjacency.
:class:`ClosenessBase` caches that CSR and holds what both Ωc computers
share — the scalar :meth:`~ClosenessBase.adjacent` and the path fallback
read it, and this dense computer densifies it; the sparse computer
(:mod:`repro.core.sparse`) uses it as is.  Call
:meth:`ClosenessComputer.invalidate_cache` after mutating relationships.

The Eq. (3) terms are cached, keyed on the interaction ledger's
mutation version (and so is the assembled matrix, once asked for).
When only a few rows' outgoing shares changed since the last evaluation
(rating bursts, churn decay), the update is incremental: with ``A`` the
adjacent-closeness matrix and ``F`` the float adjacency, the Eq. (3)
terms are ``T1 = A@F`` (rows of dirty raters are recomputed exactly) and
``T2 = F@A`` (updated with the low-rank correction ``F[:, D] @ ΔA[D]``).
When more than half the rows are dirty — the normal case between
reputation intervals — the cache falls back to a full exact rebuild,
which is faster than the correction.  The rebuild has two kernels,
chosen by a measured rule on the node count and ``A``'s nonzero count
(``_sparse_kernel_fits``):

* **dense** (n <= 128, or ``A`` more than 1/20 full): ``A`` as the dense
  ``factors * shares * adjacency`` and two BLAS GEMMs — the seed path,
  bit for bit;
* **sparse-A** (n > 128 and ``A`` at most 1/20 full, as ``A`` is on a
  world whose nodes interact with few of their friends): ``A`` gathered
  at the adjacent pairs with nonzero counts into a CSR, then
  ``T1 = A @ F`` and ``T2 = (Aᵀ @ F)ᵀ`` (``F`` is symmetric) as CSR x
  dense products.

``F`` holds 0/1, so every product term is exact, and the sparse-A kernel
sums each entry's terms in ascending common friend: exactly the order of
:class:`~repro.core.sparse.SparseClosenessComputer`'s two-hop table, so
the two computers agree bitwise wherever the dense one takes this kernel.
How BLAS orders the same sums depends on the size: at n=200 (the
``paper`` world) it sums in ascending order too and the two kernels agree
bitwise; at other sizes it may not (n=250 and n=1000 worlds differ in
the last bits: on ``serve`` by up to 5e-15 in ``T1``/``T2`` and 2e-17 in
Ωc).  The sparse-A gather reads ``share_pairs``, which divides each
count by its row total as the dense ledger's ``share_matrix`` does; the
sparse ledger's ``share_matrix`` scales by the reciprocal total instead,
so over that ledger the two kernels' ``A`` can differ in the last bit.

The low-rank correction is exact in exact arithmetic but not bitwise, so
its float drift would grow without bound across long churn-heavy runs;
an update counter forces an exact rebuild after every
``SocialTrustConfig.cache_rebuild_interval`` consecutive corrections,
which pins the worst-case drift to what ``cache_rebuild_interval``
applications can accumulate (the ``cache_audit`` regression test asserts
that bound over thousands of updates).  The band summaries
(:class:`~repro.core.gaussian.PairBands`) gather through
:meth:`ClosenessComputer.pair_values`, i.e. from the same refreshed terms
by the same formula as :meth:`ClosenessComputer.closeness_matrix`, so they
can never diverge from it after ``decay_nodes`` the way the per-pair
scalar walk silently could.  The path fallback reads live interaction
shares, so both assemble right after refreshing the terms, never across
a ledger change.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.config import CommonFriendAggregate, SocialTrustConfig
from repro.core.gaussian import PairBands
from repro.social.graph import SocialView
from repro.social.interactions import InteractionLedger

__all__ = ["ClosenessBase", "ClosenessComputer"]

#: The full rebuild's kernel rule.  Two dense GEMMs cost n^3 whatever the
#: fill; CSR x dense costs about nnz(A) * n, plus the gather of ``A`` and
#: a fixed ~0.1 ms of CSR set-up.  Measured per rebuild (gather included)
#: with one BLAS thread on a 2-core VM, in ms, as "GEMMs | sparse-A at
#: A's fill":
#:
#:   n=60    0.065     | 0.16 at 2 %, 0.18 at 7 %, 0.26 at 26 %
#:   n=100   0.17      | 0.19 at 1 %, 0.25 at 4 %, 0.29 at 8 %
#:   n=150   0.40-0.56 | 0.29 at 0.7 %, 0.25 at 3 %, 0.37 at 5 %, 0.83 at 11 %
#:   n=200   1.0-1.2   | 0.41 at 0.5 %, 0.62 at 2 %, 0.81 at 4 %, 1.28 at 8 %
#:   n=300   3.7-3.9   | 0.85 at 0.3 %, 1.75 at 3 %, 2.82 at 5 %, 4.9 at 11 %
#:   n=1000  90-100    | 17 at 0.3 %, 45 at 2 %, 71 at 4 %, 88 at 6 %, 120 at 10 %
#:
#: So the sparse kernel loses below ~128 nodes at any fill and wins above
#: at fills up to about 5 %.  On the ``paper`` world (n=200, A 1.7-5.6 %
#: full over its first cycles) it took 0.45-0.87 ms against the GEMMs'
#: 0.85-1.20 ms.
_SPARSE_MIN_NODES = 128
_SPARSE_MAX_FILL = 1 / 20


def _sparse_kernel_fits(n_nodes: int, nnz: int) -> bool:
    """Whether a full Ωc rebuild over ``n_nodes`` nodes, whose adjacent
    closeness matrix ``A`` has ``nnz`` possible nonzeros, takes the
    sparse-A kernel (see the constants above)."""
    return n_nodes > _SPARSE_MIN_NODES and nnz <= _SPARSE_MAX_FILL * n_nodes * n_nodes


class ClosenessBase(PairBands):
    """What both Ωc computers share: the view/ledger/config triple, the
    relationship-factor CSR the view builds once, and the scalar Eq. (2) /
    Eq. (10) helpers that read it."""

    def __init__(
        self,
        view: SocialView,
        interactions,
        config: SocialTrustConfig | None = None,
    ) -> None:
        if view.n_nodes != interactions.n_nodes:
            raise ValueError(
                f"social view has {view.n_nodes} nodes but interaction ledger "
                f"has {interactions.n_nodes}"
            )
        self._view = view
        self._interactions = interactions
        self._config = config or SocialTrustConfig()
        self._factors_csr: sparse.csr_matrix | None = None
        # Shortest path of each fallback pair walked so far (static, like
        # the factors, until invalidate_cache).
        self._paths: dict[tuple[int, int], list[int]] = {}
        # Consecutive low-rank T2 corrections since the last exact rebuild.
        # The correction is exact in exact arithmetic but accumulates float
        # drift; after ``config.cache_rebuild_interval`` applications the
        # next evaluation rebuilds T2 (and T1/A) from scratch so the drift
        # stays bounded over arbitrarily long churn-heavy runs.
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
        Both Ωc computers publish under these names.
        """
        self._m_drift = registry.gauge("sparse.cache.drift")
        self._m_rebuilds = registry.counter("sparse.cache.rebuilds")
        self._m_patches = registry.counter("sparse.cache.patches")
        self._m_drift.set(float(self._t2_updates))

    def invalidate_cache(self) -> None:
        """Drop the relationship factors and cached fallback paths after
        mutating the social view."""
        self._factors_csr = None
        self._paths.clear()

    @property
    def n_nodes(self) -> int:
        return self._view.n_nodes

    @property
    def view(self) -> SocialView:
        """The social view the coefficients are computed against."""
        return self._view

    @property
    def interactions(self):
        """The interaction ledger feeding Eq. (2)'s frequency shares."""
        return self._interactions

    @property
    def config(self) -> SocialTrustConfig:
        return self._config

    def _relationship_factors(self) -> sparse.csr_matrix:
        """The view's relationship-factor CSR (pattern = adjacency), cached:
        the relationship structure is static within an experiment."""
        if self._factors_csr is None:
            self._factors_csr = self._view.relationship_factors(
                hardened=self._config.hardened,
                lambda_scaling=self._config.lambda_scaling,
            )
        return self._factors_csr

    def adjacent(self, i: int, j: int) -> float:
        """Eq. (2) (plain) / Eq. (10) first branch (hardened); 0 for a
        non-adjacent pair."""
        factors = self._relationship_factors()
        start, end = factors.indptr[i], factors.indptr[i + 1]
        k = start + np.searchsorted(factors.indices[start:end], j)
        if k == end or factors.indices[k] != j:
            return 0.0
        return float(factors.data[k]) * self._interactions.share(i, j)

    def _path_min(self, i: int, j: int) -> float:
        """The no-common-friend fallback: the minimum adjacent closeness
        along one shortest social path, 0 when no path exists.  The path is
        walked once per pair; each edge's value is read fresh, since
        interaction shares move between evaluations."""
        path = self._paths.get((i, j))
        if path is None:
            path = self._paths[(i, j)] = self._view.path(i, j)
        if len(path) < 2:
            return 0.0
        return min(
            self.adjacent(path[step], path[step + 1])
            for step in range(len(path) - 1)
        )


class ClosenessComputer(ClosenessBase):
    """Computes ``Ωc`` values against a social view + interaction ledger."""

    def __init__(
        self,
        view: SocialView,
        interactions: InteractionLedger,
        config: SocialTrustConfig | None = None,
    ) -> None:
        super().__init__(view, interactions, config)
        self._rel_factors: np.ndarray | None = None
        self._adjacency: np.ndarray | None = None
        self._adj_keys: np.ndarray | None = None
        self._adj_float: np.ndarray | None = None
        self._common_counts: np.ndarray | None = None
        self._fallback_pairs: np.ndarray | None = None
        # Boolean n x n mask of the fallback pairs; None when there are none.
        self._fallback_mask: np.ndarray | None = None
        # Eq. (3) terms keyed on the interaction ledger's mutation version,
        # and the matrix assembled from them (None until asked for).
        self._cached_matrix: np.ndarray | None = None
        self._cached_adj_close: np.ndarray | None = None
        self._cached_t1: np.ndarray | None = None
        self._cached_t2: np.ndarray | None = None
        self._cached_version = -1

    def invalidate_cache(self) -> None:
        """Drop cached relationship factors after mutating the social view."""
        super().invalidate_cache()
        self._rel_factors = None
        self._adjacency = None
        self._adj_keys = None
        self._adj_float = None
        self._common_counts = None
        self._fallback_pairs = None
        self._fallback_mask = None
        self._drop_value_cache()

    def _drop_value_cache(self) -> None:
        self._cached_matrix = None
        self._cached_adj_close = None
        self._cached_t1 = None
        self._cached_t2 = None
        self._cached_version = -1
        self._t2_updates = 0

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """The incrementally-maintained Eq. (3) terms.

        The structure caches (relationship factors, adjacency) rebuild
        deterministically from the static social view and are not
        serialized, nor is the assembled matrix, which is an element-wise
        function of the terms and the live ledger.  The terms MUST travel
        with a checkpoint: the low-rank T2 update is exact but not bitwise
        equal to a fresh rebuild, so resuming with a cold cache would
        diverge from the uninterrupted run at the last-bit level.
        """

        def _copy(a: np.ndarray | None) -> np.ndarray | None:
            return None if a is None else a.copy()

        return {
            "adj_close": _copy(self._cached_adj_close),
            "t1": _copy(self._cached_t1),
            "t2": _copy(self._cached_t2),
            "version": self._cached_version,
            "t2_updates": self._t2_updates,
        }

    def restore_state(self, state: dict) -> None:
        n = self.n_nodes

        def _arr(value, name: str) -> np.ndarray | None:
            if value is None:
                return None
            arr = np.asarray(value, dtype=np.float64).copy()
            if arr.shape != (n, n):
                raise ValueError(
                    f"closeness cache {name!r} has shape {arr.shape}, but this "
                    f"computer covers {n} nodes (expected {(n, n)}) — is the "
                    f"checkpoint from a different network size?"
                )
            return arr

        # Older checkpoints also carry the assembled "matrix": it is rebuilt
        # from the terms on demand, so it is not read.
        self._cached_matrix = None
        self._cached_adj_close = _arr(state["adj_close"], "adj_close")
        self._cached_t1 = _arr(state["t1"], "t1")
        self._cached_t2 = _arr(state["t2"], "t2")
        self._cached_version = int(state["version"])
        # Absent in pre-drift-fix checkpoints; 0 re-arms the rebuild clock.
        self._t2_updates = int(state.get("t2_updates", 0))

    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        """(relationship-factor matrix, boolean adjacency matrix), cached:
        the dense form of the view's relationship-factor CSR and its
        pattern."""
        if self._rel_factors is None or self._adjacency is None:
            factors = self._relationship_factors()
            self._rel_factors = factors.toarray()
            self._adjacency = factors.astype(bool).toarray()
        return self._rel_factors, self._adjacency

    # -- scalar reference path ------------------------------------------------

    def closeness(self, i: int, j: int) -> float:
        """Full piecewise ``Ωc(i,j)`` — Eq. (4) / Eq. (10)."""
        if i == j:
            raise ValueError("closeness of a node to itself is undefined")
        view = self._view
        if view.are_adjacent(i, j):
            return self.adjacent(i, j)
        common = view.friends(i) & view.friends(j)
        if common:
            total = 0.0
            for k in common:
                total += (self.adjacent(i, k) + self.adjacent(k, j)) / 2.0
            if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
                total /= len(common)
            return total
        return self._path_min(i, j)

    # -- vectorised all-pairs path --------------------------------------------

    def _structure_extras(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(float adjacency, common-friend counts, fallback pairs) — all
        static given the adjacency structure, so cached alongside it."""
        if self._adj_float is None:
            _, adjacency = self._structure()
            adj_f = adjacency.astype(np.float64)
            common_counts = adj_f @ adj_f
            need_fallback = (~adjacency) & (common_counts == 0)
            np.fill_diagonal(need_fallback, False)
            if need_fallback.any():
                # Pairs in different connected components have no path, so
                # their fallback value is the 0 the matrix already holds —
                # skip the per-pair BFS for them (pure speedup, the values
                # are bit-identical).  On community-structured graphs this
                # is the difference between O(n + m) and O(n^2) BFS walks.
                # Imported here: csgraph pulls in scipy.sparse.linalg
                # (~11 MiB resident), and most worlds never get here.
                from scipy.sparse import csgraph

                _, labels = csgraph.connected_components(
                    self._relationship_factors(), directed=False
                )
                need_fallback &= labels[:, None] == labels[None, :]
            self._adj_float = adj_f
            self._common_counts = common_counts
            self._fallback_pairs = np.argwhere(need_fallback)
            self._fallback_mask = need_fallback if self._fallback_pairs.size else None
        return self._adj_float, self._common_counts, self._fallback_pairs

    def _assemble(self) -> np.ndarray:
        """Build the final matrix from the cached Eq. (3) terms."""
        _, adjacency = self._structure()
        adj_f, common_counts, fallback_pairs = self._structure_extras()
        adj_close = self._cached_adj_close
        # Eq. (3): combine, over common friends, the mean of the two legs.
        common_sum = 0.5 * (self._cached_t1 + self._cached_t2)
        if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
            common_sum = np.divide(
                common_sum,
                common_counts,
                out=np.zeros_like(common_sum),
                where=common_counts > 0,
            )
        out = np.where(adjacency, adj_close, np.where(common_counts > 0, common_sum, 0.0))
        np.fill_diagonal(out, 0.0)
        # Fallback: non-adjacent pairs with zero common friends but a path.
        # Interaction shares are directed, so each direction is walked
        # separately; these pairs are rare in practice.
        for i, j in fallback_pairs:
            out[i, j] = self._path_min(int(i), int(j))
        return out

    def _adjacent_interaction_keys(self) -> np.ndarray:
        """Row-major keys ``i * n + j`` of ``A``'s possible nonzeros: the
        adjacent pairs with a nonzero interaction count, ascending."""
        if self._adj_keys is None:
            _, adjacency = self._structure()
            self._adj_keys = np.flatnonzero(adjacency)
        counts = self._interactions.counts_matrix().ravel()
        return self._adj_keys[counts[self._adj_keys] != 0]

    def _rebuild(self) -> None:
        """Exact ``A``, ``T1`` and ``T2`` by the kernel the rule picks;
        worlds too small for the sparse-A kernel skip its gather."""
        n = self.n_nodes
        if n > _SPARSE_MIN_NODES:
            keys = self._adjacent_interaction_keys()
            if _sparse_kernel_fits(n, keys.size):
                self._rebuild_sparse(keys)
                return
        self._rebuild_dense()

    def _rebuild_dense(self) -> None:
        """Exact ``A``, ``T1 = A @ F`` and ``T2 = F @ A`` as dense products."""
        factors, adjacency = self._structure()
        adj_f, _, _ = self._structure_extras()
        shares = self._interactions.share_matrix()
        adj_close = factors * shares * adjacency
        self._cached_adj_close = adj_close
        self._cached_t1 = adj_close @ adj_f
        self._cached_t2 = adj_f @ adj_close

    def _rebuild_sparse(self, keys: np.ndarray) -> None:
        """Exact ``A``, ``T1`` and ``T2`` with ``A`` as a CSR over ``keys``.

        ``A``'s entries are the sparse computer's ``factor * share``; on
        the dense ledger that is also the dense kernel's bits (the same
        division by the row total, and its extra factor is the exact 1.0
        of the adjacency).
        """
        n = self.n_nodes
        factors, _ = self._structure()
        adj_f, _, _ = self._structure_extras()
        rows, cols = np.divmod(keys, n)
        data = factors.ravel()[keys] * self._interactions.share_pairs(rows, cols)
        adj_close = np.zeros((n, n), dtype=np.float64)
        adj_close.ravel()[keys] = data
        indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n, dtype=np.int64))
        a = sparse.csr_matrix((data, cols, indptr), shape=(n, n))
        self._cached_adj_close = adj_close
        self._cached_t1 = a @ adj_f
        # F is symmetric, so F @ A = (A^T @ F)^T, and ``a.T`` is A's CSC
        # with no copy.  _assemble reads T2 row-major: a contiguous copy
        # costs less than what a transposed view adds there.
        self._cached_t2 = np.ascontiguousarray((a.T @ adj_f).T)

    def _refresh(self) -> None:
        """Bring ``A``, ``T1`` and ``T2`` to the interaction ledger's
        version: nothing when it has not moved; a row-wise update of the
        terms for a few dirty rows; a full exact rebuild for a cold cache
        or a mostly-dirty ledger (see the module docstring).  Moving the
        terms drops the assembled matrix."""
        factors, adjacency = self._structure()
        version = self._interactions.version
        if self._cached_adj_close is not None and self._cached_version == version:
            return
        adj_f, _, _ = self._structure_extras()
        dirty = (
            self._interactions.rows_changed_since(self._cached_version)
            if self._cached_adj_close is not None
            else None
        )
        if (
            dirty is None
            or dirty.size > self.n_nodes // 2
            or self._t2_updates >= self._config.cache_rebuild_interval
        ):
            self._rebuild()
            self._t2_updates = 0
            if self._m_rebuilds is not None:
                self._m_rebuilds.inc()
        elif dirty.size:
            shares = self._interactions.share_matrix()
            new_rows = factors[dirty] * shares[dirty] * adjacency[dirty]
            delta = new_rows - self._cached_adj_close[dirty]
            self._cached_adj_close[dirty] = new_rows
            # T1 rows only depend on the matching A rows: exact recompute.
            self._cached_t1[dirty] = new_rows @ adj_f
            # T2 takes the low-rank correction F[:, D] @ ΔA[D].
            self._cached_t2 += adj_f[:, dirty] @ delta
            self._t2_updates += 1
            if self._m_patches is not None:
                self._m_patches.inc()
        if self._m_drift is not None:
            self._m_drift.set(float(self._t2_updates))
        self._cached_matrix = None
        self._cached_version = version

    def closeness_matrix(self) -> np.ndarray:
        """All-pairs ``Ωc`` matrix (diagonal zero), cached incrementally.

        Agrees entry-wise with :meth:`closeness` and bitwise with
        :meth:`pair_values`.  The Eq. (3) terms are refreshed against the
        interaction ledger's version (:meth:`_refresh`) and the matrix is
        assembled from them once per version: an n^2 pass that only the
        callers wanting every pair (QA, goldens) pay; the detector reads
        :meth:`pair_values`.  The returned array is read-only (it is the
        live cache).
        """
        self._refresh()
        if self._cached_matrix is None:
            out = self._assemble()
            out.flags.writeable = False
            self._cached_matrix = out
        return self._cached_matrix

    def pair_values(self, raters, ratees) -> np.ndarray:
        """``Ωc`` over pair arrays — same gather API as the sparse backend.

        Refreshes the Eq. (3) terms, then applies :meth:`_assemble`'s
        element-wise formula at the asked pairs only, so each value is
        bitwise ``closeness_matrix()[i, j]`` at a cost proportional to the
        pairs.  The path fallback reads live interaction shares, so the
        values are taken right after the refresh, at the same ledger
        version as the terms.
        """
        i, j = self._pair_ids(raters, ratees)
        self._refresh()
        _, adjacency = self._structure()
        _, common_counts, _ = self._structure_extras()
        common = common_counts[i, j]
        common_sum = 0.5 * (self._cached_t1[i, j] + self._cached_t2[i, j])
        if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
            common_sum = np.divide(
                common_sum, common, out=np.zeros_like(common_sum), where=common > 0
            )
        out = np.where(
            adjacency[i, j],
            self._cached_adj_close[i, j],
            np.where(common > 0, common_sum, 0.0),
        )
        out[i == j] = 0.0
        if self._fallback_mask is not None:
            for t in np.flatnonzero(self._fallback_mask[i, j]).tolist():
                out[t] = self._path_min(int(i[t]), int(j[t]))
        return out
