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

One computer, :class:`ClosenessComputer`, with three read paths that
agree: the scalar :meth:`~ClosenessComputer.closeness` follows the
piecewise definition literally (the readable reference);
:meth:`~ClosenessComputer.pair_values` is what the detector reads; and
:meth:`~ClosenessComputer.closeness_matrix` is ``pair_values`` over every
pair, assembled only when asked for (QA, goldens).

Cached terms.  With ``A`` the adjacent-closeness matrix (zero off the
adjacency) and ``F`` the 0/1 adjacency, Eq. (3) for every pair at once is
``(T1 + T2) / 2`` with ``T1 = A @ F`` and ``T2 = F @ A``, taken at the
non-adjacent pairs with a common friend (and divided by their count under
``MEAN``).  Each pair has a slot in one static union pattern ``Pu``, with
the slot's adjacency flag and common-friend count; ``A``, ``T1`` and
``T2`` are cached as flat float64 arrays aligned to ``Pu``, except under
the full layout's pair kernel, which sums ``T1`` and ``T2`` at the asked
pairs.  ``pair_values`` reads or sums a pair's terms, applies that
formula, and walks the path fallback for the rare
connected pairs with no value on ``Pu``.  The relationship factors come
from the view's ``relationship_factors()`` CSR (its pattern is the
adjacency), built once; call :meth:`~ClosenessComputer.invalidate_cache`
after mutating relationships.

The layout of ``Pu`` follows the world (``_full_layout_fits``):

* **full**: ``Pu`` is the whole row-major ``n x n`` matrix, so a pair's
  slot is ``i * n + j`` with no search.  A refresh takes one of two
  kernels, chosen by a measured rule on the node count and ``A``'s nonzero
  count (``_sparse_kernel_fits``).  The GEMM kernel (the seed path, bit
  for bit) caches the dense ``A``, ``T1`` and ``T2`` from two BLAS GEMMs;
  a patch recomputes the dirty rows of ``A`` and ``T1`` exactly and adds
  the low-rank correction ``F[:, D] @ ΔA[D]`` to ``T2``.  The pair kernel
  caches ``A`` alone, gathered at the adjacent pairs with nonzero counts:
  its sorted keys, a CSR (values and row pointers) and a column-ordered
  copy, ``O(nnz A)``.  ``pair_values`` reads ``A`` at adjacent pairs and
  sums ``T1[i, j] = Σ_d A[i, d] F[d, j]`` over row ``i``'s entries and
  ``T2[i, j] = Σ_d F[i, d] A[d, j]`` over column ``j``'s at the asked
  pairs only, in bounded chunks.  ``A`` is a pure function of the
  ledger, so this kernel rebuilds on every ledger change and never
  patches: it holds no ``n x n`` term and has no drift.
* **two-hop**: ``Pu = pattern(F @ F) ∪ pattern(F)``, searched by sorted
  row-major key.  The structure build lists every path ``i ~ d ~ j`` once,
  with the ``Pu`` slot of ``(i, j)``, grouped by the ``F`` entry ``(i, d)``
  in ``F``'s (sorted) order — row ``i``'s paths are one contiguous range —
  plus ``F``'s entries grouped by centre ``d``.  Both orders list a slot's
  paths in ascending ``d``, the order SciPy's products sum them in, and
  ``np.bincount`` adds in input order from 0.0, so a rebuild summed over
  the table is bitwise the matching SciPy product.  A patch writes in
  place: the dirty rows' ``A`` slots become ``a + (new - a)``, every ``Pu``
  slot of those rows in ``T1`` becomes ``t1 + (fresh - t1)``, and ``T2``
  adds the low-rank correction as one bincount over the dirty centres'
  paths.  It makes no SciPy product and no search of ``Pu``.

``F`` holds 0/1, so every product term is exact, and the pair kernel sums
each pair's terms by ``np.bincount`` in ascending common friend from 0.0,
the two-hop table's order (and SciPy's CSR x dense order): a full-layout
world that takes it has the two-hop layout's bits.  How BLAS orders the
same sums depends on the size: at n=200 (the ``paper`` world) it sums in
ascending order too and all three kernels agree bitwise; at other sizes
the GEMMs may differ in the last bits (on ``serve`` by up to 5e-15 in
``T1``/``T2`` and 2e-17 in Ωc).  The full layout's GEMM kernel reads the
ledger's ``share_matrix`` and the other two its ``share_pairs``; both
divide each count by its row total, except over the sparse ledger, whose
``share_matrix`` scales by the reciprocal total.

The terms are keyed on the interaction ledger's mutation version.  The
GEMM and two-hop kernels rebuild in full on a cold cache, more than
``n / 2`` dirty rows (the normal case between reputation intervals, where
a rebuild is faster than the correction), or
``SocialTrustConfig.cache_rebuild_interval`` consecutive corrections, and
patch otherwise.  The low-rank correction is exact in exact arithmetic but
not bitwise, so that counter pins its float drift to what
``cache_rebuild_interval`` applications can accumulate (the
``cache_audit`` regression test asserts the bound).  The band summaries
(:class:`~repro.core.gaussian.PairBands`) gather through ``pair_values``,
so they can never diverge from the matrix after ``decay_nodes``.  The path
fallback reads live interaction shares, so values are taken right after
refreshing the terms, never across a ledger change.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.config import CommonFriendAggregate, SocialTrustConfig
from repro.core.gaussian import PairBands
from repro.social.graph import SocialView

__all__ = ["ClosenessComputer"]

#: The layout rule: the full layout while the two-hop table would hold at
#: least this many paths per matrix entry (``sum_d deg(d)^2 >= n^2``).
#: Measured with one BLAS thread on a 2-core VM on G(n, p) worlds, 5
#: interactions per node and 20k asked pairs (friends and friends of
#: friends), in ms, as "full | two-hop": a cold read (structure, rebuild,
#: pairs), an interval's rebuild and a 5 %-dirty patch, each with the read:
#:
#:   n     paths/n^2   cold          rebuild      patch
#:   1000  0.11        117 | 41      25 | 8.7     19 | 6.8
#:   1000  0.30         93 | 86      22 | 15      17 | 9.0
#:   1000  1.0         102 | 244     33 | 31      17 | 15
#:   1000  2.9         126 | 568     26 | 68      18 | 26
#:   3000  0.10       1871 | 262    408 | 36     234 | 21
#:   3000  1.0        1882 | 2364   449 | 233    218 | 89
#:
#: So the two-hop layout wins rebuilds and patches below about one path
#: per entry, by up to 11x, and holds no n^2 array; above it the full
#: layout's products win, and its cold structure build costs less from
#: about 0.3 up.  The three golden worlds sit at 3.2-4.2, ``paper`` at 24.5,
#: ``serve`` at 112 (all full, their kernels and bits unchanged) and
#: ``sparse_1e4`` at 0.006 (two-hop).
_FULL_LAYOUT_MIN_PATHS = 1.0

#: The full layout's kernel rule.  The GEMM kernel costs n^3 per rebuild
#: whatever the fill, and a cheap read; the pair kernel costs nnz(A) to
#: rebuild, about 2 * nnz(A) / n gathered entries per asked pair, and a
#: fixed ~0.7 ms of SciPy set-up.  Measured per interval (a rebuild of
#: every row, then a read of 20 random asked pairs per node, about what
#: ``serve`` asks) with one BLAS thread on a 2-core VM on the paper's
#: social network, in ms, as "GEMMs | pairs at A's fill":
#:
#:   n=100   0.30      | 0.96 at 1 %, 1.12 at 5 %, 1.36 at 12 %
#:   n=150   0.75      | 1.27 at 1.3 %, 1.61 at 5 %, 3.31 at 12 %
#:   n=160   0.85      | 1.17 at 1.2 %, 1.33 at 3 %, 1.49 at 5 %
#:   n=176   1.40      | 1.19 at 1.1 %, 1.41 at 2.8 %, 1.68 at 5 %
#:   n=200   1.9-2.0   | 1.32 at 1 %, 1.80 at 3 %, 2.07 at 5 %, 3.69 at 8 %
#:   n=300   3.0-3.9   | 1.41 at 1 %, 1.97 at 3 %, 2.51 at 5 %, 4.80 at 8 %
#:   n=600   20-24     | 3.4 at 0.5 %, 8.3 at 4 %, 13.4 at 8 %, 18.7 at 12 %
#:   n=1000  81-106    | 9.9 at 0.5 %, 15 at 2 %, 33 at 4-6 %, 39 at 8 %, 56 at 12 %
#:
#: So the pair kernel loses below ~168 nodes at any fill (the GEMMs' cost
#: steps up between 160 and 176 nodes) and wins above at fills up to a
#: break-even that grows with n: about 5 % at n=200, 6 % at 300, 14 % at
#: 600 and, extrapolating the pair kernel's ~4 ms per percent, 20 % at
#: 1000.  The bound is 1/20 up to 275 nodes, where it decides the
#: ``paper`` world (n=200, A 1.7-5.6 % full over its first cycles, then
#: the GEMMs), then ``(n - 100) / 3500`` (5.7 % at 300, 14 % at 600),
#: capped at the 20 % measured at n=1000 (``serve``, 0.6-4 % full, keeps
#: the pair kernel as its interaction counts fill).
_SPARSE_MIN_NODES = 168
_SPARSE_MAX_FILL = 1 / 20
_SPARSE_FILL_OFFSET = 100
_SPARSE_FILL_SLOPE = 1 / 3500
_SPARSE_FILL_CAP = 1 / 5

#: The pair kernel sums Eq. (3) over chunks of asked pairs, each gathering
#: at most about this many of ``A``'s entries (~50 bytes of temporaries
#: apiece), and :meth:`ClosenessComputer.closeness_matrix` asks for at most
#: about ``_PAIR_CHUNK`` pairs at a time.
_GATHER_CHUNK = 1 << 17
_PAIR_CHUNK = 1 << 16


def _full_layout_fits(n_nodes: int, paths: int) -> bool:
    """Whether a world over ``n_nodes`` nodes whose two-hop table holds
    ``paths`` paths (``sum_d deg(d)^2``) takes the full layout."""
    return paths >= _FULL_LAYOUT_MIN_PATHS * n_nodes * n_nodes


def _sparse_kernel_fits(n_nodes: int, nnz: int) -> bool:
    """Whether a full-layout rebuild over ``n_nodes`` nodes, whose adjacent
    closeness matrix ``A`` has ``nnz`` possible nonzeros, takes the pair
    kernel (see the constants above)."""
    growth = min((n_nodes - _SPARSE_FILL_OFFSET) * _SPARSE_FILL_SLOPE, _SPARSE_FILL_CAP)
    fill = max(_SPARSE_MAX_FILL, growth)
    return n_nodes > _SPARSE_MIN_NODES and nnz <= fill * n_nodes * n_nodes


def _row_major_keys(mat: sparse.csr_matrix, n: int) -> np.ndarray:
    """Row-major ``row * n + col`` keys of a CSR's entries, in storage order."""
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int64), np.diff(mat.indptr))
    return rows * np.int64(n) + mat.indices.astype(np.int64)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[k], starts[k] + counts[k])`` over ``k``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(
        int(counts.sum()), dtype=np.int64
    )


def _locate(haystack: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions of ``keys`` in the sorted ``haystack``; every key must be
    present (the two-hop table lies in ``Pu`` by construction)."""
    pos = np.searchsorted(haystack, keys)
    if keys.size and (pos.max() >= haystack.size or np.any(haystack[pos] != keys)):
        raise AssertionError("two-hop path escaped the static union pattern")
    return pos


class ClosenessComputer(PairBands):
    """Computes ``Ωc`` values against a social view + interaction ledger
    (the dense :class:`~repro.social.interactions.InteractionLedger` or the
    CSR-backed ``SparseInteractionLedger``)."""

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
        # Optional instruments (see bind_metrics); None keeps the hot
        # path free of registry lookups when observability is absent.
        self._m_drift = None
        self._m_rebuilds = None
        self._m_patches = None
        self.invalidate_cache()

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
        """Drop the static structure (relationship factors, ``Pu``, cached
        fallback paths) and the cached terms after mutating the social
        view."""
        self._factors_csr: sparse.csr_matrix | None = None
        # Shortest path of each fallback pair walked so far, and the
        # connected component of each node (static, like the factors).
        self._paths: dict[tuple[int, int], list[int]] = {}
        self._labels: np.ndarray | None = None
        # Per-slot structure of Pu: adjacency flag and common-friend count
        # (two-hop paths), and Pu's sorted keys (None in the full layout,
        # where the slot is the key).  The two-hop layout ends in a null
        # slot, keyed n^2, whose terms stay zero: pairs off Pu read it.
        self._slot_adj: np.ndarray | None = None
        self._slot_common: np.ndarray | None = None
        self._pu_keys: np.ndarray | None = None
        # Full layout: the dense adjacency, the adjacency's sorted keys
        # and their relationship factors; the GEMM kernel's dense factors
        # and float adjacency, built when it first runs.
        self._adjacency: np.ndarray | None = None
        self._adj_keys: np.ndarray | None = None
        self._adj_factors: np.ndarray | None = None
        self._rel_factors: np.ndarray | None = None
        self._adj_float: np.ndarray | None = None
        # Two-hop layout: Pu's rows, the Pu slot of each F entry, and the
        # two-hop table -- the Pu slot of (i, j) for every path i ~ d ~ j,
        # grouped by the F entry (i, d) in F's order, and F's entries
        # grouped by centre d.
        self._pu_indptr: np.ndarray | None = None
        self._adj_pos: np.ndarray | None = None
        self._hop_start: np.ndarray | None = None
        self._hop_slot: np.ndarray | None = None
        self._by_centre: np.ndarray | None = None
        self._centre_indptr: np.ndarray | None = None
        self._drop_value_cache()

    def _drop_value_cache(self) -> None:
        # The kernel that built the cached terms ("gemm", "pairs" or
        # "two-hop"; None while cold), the terms, keyed on the interaction
        # ledger's mutation version, and the matrix assembled from them
        # (None until asked for).
        self._kernel: str | None = None
        self._drop_terms()
        self._cached_matrix: np.ndarray | None = None
        self._cached_version = -1
        # Consecutive low-rank T2 corrections since the last exact rebuild.
        self._t2_updates = 0

    def _drop_terms(self) -> None:
        # GEMM and two-hop kernels: A, T1 and T2 aligned to Pu.
        self._a: np.ndarray | None = None
        self._t1: np.ndarray | None = None
        self._t2: np.ndarray | None = None
        # Pair kernel: A alone, as its sorted row-major keys, a CSR and
        # a column-ordered copy (the CSR of A's transpose).
        self._a_keys: np.ndarray | None = None
        self._a_rows: sparse.csr_matrix | None = None
        self._a_cols: sparse.csr_matrix | None = None

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

    # -- scalar reference path ------------------------------------------------

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

    def closeness(self, i: int, j: int) -> float:
        """Full piecewise ``Ωc(i,j)`` — Eq. (4) / Eq. (10)."""
        if i == j:
            raise ValueError("closeness of a node to itself is undefined")
        self._pair_ids(i, j)
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

    # -- static structure -------------------------------------------------------

    def _structure(self) -> None:
        """Build ``Pu`` in the layout the world takes (see the module
        docstring), once per social view."""
        if self._slot_adj is not None:
            return
        factors = self._relationship_factors()
        degree = np.diff(factors.indptr).astype(np.int64)
        if _full_layout_fits(self.n_nodes, int(degree @ degree)):
            self._structure_full(factors)
        else:
            self._structure_two_hop(factors, degree)

    def _structure_full(self, factors: sparse.csr_matrix) -> None:
        n = self.n_nodes
        canonical = factors.tocsr(copy=True)
        canonical.sum_duplicates()
        nonzero = canonical.data != 0
        keys = _row_major_keys(canonical, n)[nonzero]
        self._adj_keys = keys
        self._adj_factors = canonical.data[nonzero]
        adjacency = np.zeros(n * n, dtype=bool)
        adjacency[keys] = True
        self._slot_adj = adjacency
        self._adjacency = adjacency.reshape(n, n)
        # Common-friend counts are exact integers below n: one GEMM F @ F
        # (a full-layout world's F is too full for a sparse product to
        # pay), kept in the smallest integer type that holds n.
        adj_f = self._adjacency.astype(np.float64)
        self._slot_common = (adj_f @ adj_f).astype(np.min_scalar_type(n)).ravel()

    def _gemm_structure(self) -> None:
        """The GEMM kernel's dense relationship factors and float
        adjacency, built the first time it runs."""
        if self._adj_float is None:
            n = self.n_nodes
            factors = np.zeros(n * n, dtype=np.float64)
            factors[self._adj_keys] = self._adj_factors
            self._rel_factors = factors.reshape(n, n)
            self._adj_float = self._adjacency.astype(np.float64)

    def _structure_two_hop(self, factors: sparse.csr_matrix, degree: np.ndarray) -> None:
        n = self.n_nodes
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
        self._pu_keys = np.append(_row_major_keys(pu, n), np.int64(n) * n)
        self._adj_pos = _locate(self._pu_keys, _row_major_keys(f, n))
        # F entry (i, d) carries the paths i ~ d ~ j over row d's entries,
        # so row i's paths are one contiguous range and list each of its
        # slots' paths in ascending d.
        indptr = factors.indptr.astype(np.int64)
        indices = factors.indices.astype(np.int64)
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
        # A slot's path count is its number of common friends.
        self._slot_common = np.bincount(self._hop_slot, minlength=self._pu_keys.size)
        self._slot_adj = np.zeros(self._pu_keys.size, dtype=bool)
        self._slot_adj[self._adj_pos] = True

    def _slots(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Each pair's ``Pu`` slot: its key in the full layout; its sorted
        position in the two-hop layout, or the null slot off ``Pu``."""
        keys = i * np.int64(self.n_nodes) + j
        pu_keys = self._pu_keys
        if pu_keys is None:
            return keys
        pos = np.searchsorted(pu_keys, keys)
        return np.where(pu_keys[pos] == keys, pos, pu_keys.size - 1)

    def _connected(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each pair lies in one connected component: a pair in
        two has no path, so its fallback value is 0 without a walk.  The
        full layout filters its fallback pairs by this; the two-hop layout
        walks them, since a walk from ``i`` stops at its component, and
        the labelling's import costs more on a world that sparse."""
        if self._labels is None:
            # Imported here: csgraph pulls in scipy.sparse.linalg (~11 MiB
            # resident, ~0.1 s), and most worlds never get here.
            from scipy.sparse import csgraph

            _, self._labels = csgraph.connected_components(
                self._relationship_factors(), directed=False
            )
        return self._labels[i] == self._labels[j]

    # -- cached terms -------------------------------------------------------------

    def _refresh(self) -> None:
        """Bring the cached terms to the interaction ledger's version:
        nothing when it has not moved; a patch of the dirty rows; a full
        exact rebuild for a cold cache, the pair kernel (whose rebuild is
        ``A`` alone), a mostly-dirty ledger or a full drift budget (see
        the module docstring).  Moving the terms drops the assembled
        matrix."""
        self._structure()
        version = self._interactions.version
        if self._kernel is not None and self._cached_version == version:
            return
        dirty = (
            self._interactions.rows_changed_since(self._cached_version)
            if self._kernel in ("gemm", "two-hop")
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
            if self._pu_keys is None:
                self._patch_full(dirty)
            else:
                self._patch_two_hop(dirty)
            self._t2_updates += 1
            if self._m_patches is not None:
                self._m_patches.inc()
        if self._m_drift is not None:
            self._m_drift.set(float(self._t2_updates))
        self._cached_matrix = None
        self._cached_version = version

    def _rebuild(self) -> None:
        """Exact terms by the kernel the layout and the rule pick; worlds
        too small for the pair kernel skip its gather."""
        self._drop_terms()
        if self._pu_keys is not None:
            self._kernel = "two-hop"
            self._rebuild_two_hop()
            return
        at = self._pair_kernel_keys()
        if at is not None:
            self._kernel = "pairs"
            self._rebuild_pairs(at)
            return
        self._kernel = "gemm"
        self._rebuild_dense()

    def _pair_kernel_keys(self) -> np.ndarray | None:
        """Positions in the adjacency's keys of ``A``'s possible nonzeros
        (the adjacent pairs with a nonzero interaction count, ascending)
        when the full layout's rule picks the pair kernel for the ledger as
        it stands, else None."""
        n = self.n_nodes
        if n <= _SPARSE_MIN_NODES:
            return None
        counts = self._interactions.counts_matrix().ravel()
        at = np.flatnonzero(counts[self._adj_keys] != 0)
        return at if _sparse_kernel_fits(n, at.size) else None

    def _rebuild_dense(self) -> None:
        """Full layout: ``A``, ``T1 = A @ F`` and ``T2 = F @ A`` as dense
        GEMMs."""
        self._gemm_structure()
        adj_close = (
            self._rel_factors * self._interactions.share_matrix() * self._adjacency
        )
        self._a = adj_close.ravel()
        self._t1 = (adj_close @ self._adj_float).ravel()
        self._t2 = (self._adj_float @ adj_close).ravel()

    def _rebuild_pairs(self, at: np.ndarray) -> None:
        """Full layout, pair kernel: ``A`` at the adjacency keys in
        positions ``at``, as a CSR and its column-ordered copy, its
        factors read from the factors CSR's values; ``T1`` and ``T2`` are
        summed when read.

        ``A``'s entries are ``factor * share``; on the dense ledger that
        is also the GEMM kernel's bits (the same division by the row
        total, and its extra factor is the exact 1.0 of the adjacency).
        """
        n = self.n_nodes
        keys = self._adj_keys[at]
        rows, cols = np.divmod(keys, n)
        data = self._adj_factors[at] * self._interactions.share_pairs(rows, cols)
        indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n, dtype=np.int64))
        self._a_keys = keys
        self._a_rows = sparse.csr_matrix((data, cols, indptr), shape=(n, n))
        # SciPy's conversion lists each column's entries in ascending row.
        self._a_cols = self._a_rows.T.tocsr()

    def _rebuild_two_hop(self) -> None:
        """Two-hop layout: ``A`` at the adjacency slots, ``T1`` and ``T2``
        summed over the whole two-hop table."""
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
        # i ~ d ~ j, in ascending d: bitwise ``A @ F`` and ``F @ A``.
        hops = np.diff(self._hop_start)
        self._t1 = np.bincount(self._hop_slot, np.repeat(a_data, hops), minlength=size)
        self._t2 = np.bincount(
            self._hop_slot, a_data[_ranges(indptr[indices], hops)], minlength=size
        )

    def _patch_full(self, dirty: np.ndarray) -> None:
        """Full layout, GEMM kernel: the dirty rows of ``A`` and ``T1``
        recomputed exactly, and ``T2`` corrected by ``F[:, D] @ ΔA[D]``."""
        n = self.n_nodes
        self._gemm_structure()
        a, t1, t2 = (x.reshape(n, n) for x in (self._a, self._t1, self._t2))
        shares = self._interactions.share_matrix()
        new_rows = self._rel_factors[dirty] * shares[dirty] * self._adjacency[dirty]
        delta = new_rows - a[dirty]
        a[dirty] = new_rows
        t1[dirty] = new_rows @ self._adj_float
        t2 += self._adj_float[:, dirty] @ delta

    def _patch_two_hop(self, dirty: np.ndarray) -> None:
        """Two-hop layout: rewrite the dirty rows' slots of ``A`` and
        ``T1`` and add the low-rank correction ``F[:, D] @ ΔA[D]`` to
        ``T2``, in place, each summed over the two-hop table."""
        factors = self._relationship_factors()
        hop_start = self._hop_start
        # A: the dirty rows' adjacency entries, in F's (sorted) order.
        counts = factors.indptr[dirty + 1] - factors.indptr[dirty]
        entries = _ranges(factors.indptr[dirty], counts)
        new = factors.data[entries] * self._interactions.share_pairs(
            np.repeat(dirty, counts), factors.indices[entries]
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

    # -- reads ----------------------------------------------------------------------

    def pair_values(self, raters, ratees) -> np.ndarray:
        """``Ωc`` over pair arrays — the detector's gather primitive.

        Refreshes the terms, then applies the piecewise formula at the
        asked pairs' ``Pu`` slots only: ``A`` at adjacent pairs, Eq. (3)
        from ``T1`` and ``T2`` at pairs with common friends, 0 on the
        diagonal, and the path fallback for the connected pairs left,
        read right after the refresh at the terms' ledger version.
        """
        i, j = self._pair_ids(raters, ratees)
        self._refresh()
        slot = self._slots(i, j)
        adj = self._slot_adj[slot]
        common = self._slot_common[slot]
        out = np.zeros(slot.size, dtype=np.float64)
        at = np.flatnonzero(adj)
        out[at] = self._adjacent_at(slot[at])
        at = np.flatnonzero(~adj & (common > 0) & (i != j))
        t1, t2 = self._eq3_terms_at(slot[at], i[at], j[at])
        eq3 = 0.5 * (t1 + t2)
        if self._config.common_friend_aggregate is CommonFriendAggregate.MEAN:
            eq3 /= common[at]
        out[at] = eq3
        # No Eq. (2)/(3) value: non-adjacent without a common friend.
        walk = np.flatnonzero(~adj & (common == 0) & (i != j))
        if walk.size and self._pu_keys is None:
            walk = walk[self._connected(i[walk], j[walk])]
        for t in walk.tolist():
            out[t] = self._path_min(int(i[t]), int(j[t]))
        return out

    def _adjacent_at(self, slot: np.ndarray) -> np.ndarray:
        """``A`` at adjacent pairs' slots: the cached array's entries, or
        the pair kernel's sorted keys searched (0 off ``A``'s nonzeros)."""
        if self._kernel != "pairs":
            return self._a[slot]
        keys = self._a_keys
        out = np.zeros(slot.size, dtype=np.float64)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, slot), keys.size - 1)
            hit = keys[pos] == slot
            out[hit] = self._a_rows.data[pos[hit]]
        return out

    def _eq3_terms_at(self, slot: np.ndarray, i: np.ndarray, j: np.ndarray):
        """``T1`` and ``T2`` at the pairs ``(i, j)`` (whose slots are
        ``slot``): the cached arrays' entries, or the pair kernel's sums
        over ``A``'s row ``i`` and column ``j``, in chunks of pairs that
        gather at most about ``_GATHER_CHUNK`` entries each."""
        if self._kernel != "pairs":
            return self._t1[slot], self._t2[slot]
        rows, cols = self._a_rows, self._a_cols
        cost = np.cumsum(np.diff(rows.indptr)[i] + np.diff(cols.indptr)[j])
        t1 = np.empty(i.size, dtype=np.float64)
        t2 = np.empty(i.size, dtype=np.float64)
        start = 0
        while start < i.size:
            spent = cost[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(cost, spent + _GATHER_CHUNK, "right")))
            part = slice(start, stop)
            t1[part] = self._friend_sums(rows, i[part], j[part])
            t2[part] = self._friend_sums(cols, j[part], i[part])
            start = stop
        return t1, t2

    def _friend_sums(
        self, mat: sparse.csr_matrix, lead: np.ndarray, other: np.ndarray
    ) -> np.ndarray:
        """For each pair ``k``, the sum of row ``lead[k]`` of ``mat`` (``A``
        or its transpose) over the columns ``d`` that are friends of
        ``other[k]``, added in ascending ``d`` from 0.0: ``T1[i, j]`` from
        row ``i`` of ``A`` with ``other = j``, ``T2[i, j]`` from row ``j``
        of ``Aᵀ`` with ``other = i`` (``F`` is symmetric, so ``F[d, j]``
        reads as ``F[j, d]``).  Every term is ``a * F``, as in SciPy's
        CSR x dense product, which sums in the same order from the same
        start, so a sum is bitwise that product's entry."""
        rows = mat[lead]
        counts = np.diff(rows.indptr)
        friend = self._slot_adj[
            np.repeat(other * np.int64(self.n_nodes), counts) + rows.indices
        ]
        pair = np.repeat(np.arange(lead.size), counts)
        return np.bincount(pair, rows.data * friend, minlength=lead.size)

    def closeness_matrix(self) -> np.ndarray:
        """All-pairs ``Ωc`` matrix (diagonal zero): :meth:`pair_values`
        over every pair, assembled once per ledger version.

        An n^2 pass only the callers wanting every pair pay (QA, goldens),
        made a block of rows at a time so its temporaries stay bounded;
        the returned array is read-only (it is the live cache).  Refuses
        above ``_DENSIFY_LIMIT`` nodes.
        """
        self._check_densify()
        n = self.n_nodes
        self._refresh()
        if self._cached_matrix is None:
            out = np.empty((n, n), dtype=np.float64)
            block = max(1, _PAIR_CHUNK // n)
            for start in range(0, n, block):
                rows = out[start:start + block]
                i, j = np.divmod(np.arange(start * n, start * n + rows.size), n)
                rows.flat = self.pair_values(i, j)
            out.flags.writeable = False
            self._cached_matrix = out
        return self._cached_matrix

    # -- checkpointing ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """The cached terms, when a restore could not rebuild them, and
        the kernel that built them.

        The low-rank ``T2`` correction is exact but not bitwise a fresh
        rebuild, so after a patch (``t2_updates > 0``), or once the ledger
        has moved past the terms' version, the GEMM and two-hop kernels'
        ``A``/``T1``/``T2`` travel with the checkpoint, aligned to ``Pu``.
        Otherwise they are a rebuild of the saved ledger, and
        :meth:`restore_state` rebuilds them.  The pair kernel's ``A`` is
        always a rebuild of the ledger, so it writes no terms.  The
        structure and the assembled matrix are never written.
        """
        rebuildable = (
            self._t2_updates == 0 and self._cached_version == self._interactions.version
        )

        def _copy(a: np.ndarray | None) -> np.ndarray | None:
            return None if a is None or rebuildable else a.copy()

        return {
            "adj_close": _copy(self._a),
            "t1": _copy(self._t1),
            "t2": _copy(self._t2),
            "version": self._cached_version,
            "t2_updates": self._t2_updates,
            "kernel": self._kernel,
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output.  Without terms, rebuild them from
        the interaction ledger when it is at the checkpoint's version (the
        stores restore first, as ``Simulation.resume`` does), and leave the
        cache cold otherwise.  Older checkpoints load too: dense ``(n, n)``
        terms, CSR terms (keys ``a``/``t1``/``t2``), and an assembled
        ``matrix``, which is not read.  Their terms are not read either in
        a full-layout world whose rule picks the pair kernel: a checkpoint
        without ``kernel`` comes from the sparse-A kernel the pair kernel
        replaced, whose patched ``T2`` drifts, and the pair kernel rebuilds
        ``A`` from the ledger."""
        version = int(state["version"])
        a = state["adj_close"] if "adj_close" in state else state.get("a")
        terms = [a, state.get("t1"), state.get("t2")]
        self._drop_value_cache()
        if version < 0 and all(term is None for term in terms):
            return
        self._structure()
        if (
            "kernel" not in state
            and self._pu_keys is None
            and self._pair_kernel_keys() is not None
        ):
            terms = [None, None, None]
        if all(term is None for term in terms):
            if version == self._interactions.version:
                self._rebuild()
                self._cached_version = version
            return
        self._a, self._t1, self._t2 = (
            self._align(term, name) for term, name in zip(terms, ("adj_close", "t1", "t2"))
        )
        self._kernel = "gemm" if self._pu_keys is None else "two-hop"
        self._cached_version = version
        # Absent in pre-drift-fix checkpoints; 0 re-arms the rebuild clock.
        self._t2_updates = int(state.get("t2_updates", 0))

    def _align(self, value, name: str) -> np.ndarray:
        """One checkpointed term as a flat array aligned to ``Pu``: this
        format's flat array, or an older checkpoint's dense ``(n, n)``
        array or CSR matrix."""
        n = self.n_nodes
        size = self._slot_adj.size
        if sparse.issparse(value):
            mat = value.tocsr()
            shape = mat.shape
        else:
            arr = np.asarray(value, dtype=np.float64)
            shape = arr.shape
        if shape != (n, n) and shape != (size,):
            raise ValueError(
                f"closeness cache {name!r} has shape {shape}, but this "
                f"computer covers {n} nodes (expected {(n, n)} or {(size,)}) — "
                f"is the checkpoint from a different network size?"
            )
        if sparse.issparse(value):
            keys, data = _row_major_keys(mat, n), mat.data
        elif arr.ndim == 1 or self._pu_keys is None:
            return arr.ravel().copy()
        else:
            keys = np.flatnonzero(arr)
            data = arr.ravel()[keys]
        out = np.zeros(size, dtype=np.float64)
        slot = self._slots(*np.divmod(keys, n))
        if self._pu_keys is not None and np.any(slot == size - 1):
            raise ValueError(
                f"closeness cache {name!r} has entries off this world's "
                f"two-hop pattern — is the checkpoint from another social network?"
            )
        out[slot] = data
        return out
