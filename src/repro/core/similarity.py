"""Interest similarity ``Ωs`` — Eq. (7) (plain) and Eq. (11) (hardened).

Plain mode is the overlap coefficient over *declared* interest sets:

    Ωs(i,j) = |V_i ∩ V_j| / min(|V_i|, |V_j|)

Hardened mode (Section 4.4) weights each shared interest by both nodes'
behavioural request shares:

    Ωs(i,j) = sum_l w_s(i,l) * w_s(j,l) / min(|V_i|, |V_j|)

so a colluder that pads its profile with interests it never actually
requests gains (almost) nothing, and one that *removes* declared interests
is still exposed by its request stream.  To capture the latter, the
hardened interest set of a node is the union of its declared profile and
the interests it has actually requested.

One computer, :class:`SimilarityComputer`, divides only at the pairs asked
for.  The numerator (``D @ Dᵀ`` over the declared-membership rows in
plain mode, ``W @ Wᵀ`` over the request-weight rows in hardened mode)
comes from one of two kernels, picked by the node count when the computer
is built (``_PRODUCT_MAX_NODES``):

* **product**: the all-pairs product, cached against the profile store's
  versions; in hardened mode the rows (and mirrored columns) of nodes
  whose requests moved are recomputed when few rows are dirty.  The
  goldens pin these bits.
* **row dots**: each asked pair's k-length dot product, kept in a pair
  cache of sorted row-major keys and values that any move of the versions
  Ωs reads drops.  The n x n product is never formed.

Plain mode's overlap counts are whole numbers, so both kernels give the
same bits there; in hardened mode a pair-wise dot product may differ from
the product's entry in the last bit.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.config import SocialTrustConfig
from repro.core.gaussian import PairBands
from repro.social.interests import InterestProfiles

__all__ = ["overlap_similarity", "SimilarityComputer"]

#: The numerator kernel rule: the cached product up to this many nodes,
#: row dot products above.  Measured per hardened interval (request
#: traffic on 4n random rows, then 17 asked pairs per node and a quarter
#: of them again) with one BLAS thread on a 2-core VM at k=20 interests,
#: in ms, as "product | row dots":
#:
#:   n=500   2.0 | 1.9      n=2000  28 | 11
#:   n=1000  6.4 | 3.7      n=3000  62 | 18
#:   n=1500  14  | 5.6      n=4000  134 | 25
#:
#: Row dots win from about 1000 nodes, and their lead grows with n.  The
#: product stays up to 1024 nodes, where it costs less than twice as much:
#: the goldens and ``serve`` (n=1000) pin its bits.
_PRODUCT_MAX_NODES = 1024


def overlap_similarity(a: Iterable[int], b: Iterable[int]) -> float:
    """Eq. (7): overlap coefficient of two interest sets; 0 if either empty."""
    sa = frozenset(a)
    sb = frozenset(b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / min(len(sa), len(sb))


class SimilarityComputer(PairBands):
    """Computes ``Ωs`` values against the interest-profile store."""

    def __init__(
        self,
        profiles: InterestProfiles,
        config: SocialTrustConfig | None = None,
    ) -> None:
        self._profiles = profiles
        self._config = config or SocialTrustConfig()
        # The numerator kernel pair_values reads (the rule above).
        self._row_dots_kernel = profiles.n_nodes > _PRODUCT_MAX_NODES
        # The product kernel's numerator, the profile versions it was
        # computed at, and whether rows were patched since the last full
        # product.
        self._numer: np.ndarray | None = None
        self._numer_versions = (-1, -1)
        self._rows_patched = False
        self._drop_caches()

    def _drop_caches(self) -> None:
        """Drop what any move of the versions Ωs reads invalidates."""
        self._versions: tuple[int, int] | None = None
        self._sizes: np.ndarray | None = None
        self._matrix: np.ndarray | None = None
        self._pair_keys = np.zeros(0, dtype=np.int64)
        self._pair_values = np.zeros(0, dtype=np.float64)

    def _read_versions(self) -> tuple[int, int]:
        """The profile-store versions Ωs reads: the declared sets, and in
        hardened mode the request counters."""
        p = self._profiles
        return p.declared_version, p.version if self._config.hardened else -1

    def _sync(self) -> None:
        versions = self._read_versions()
        if versions != self._versions:
            self._drop_caches()
            self._versions = versions

    @property
    def n_nodes(self) -> int:
        return self._profiles.n_nodes

    @property
    def profiles(self) -> InterestProfiles:
        """The interest-profile store the coefficients are computed against."""
        return self._profiles

    @property
    def config(self) -> SocialTrustConfig:
        return self._config

    # -- scalar reference path ------------------------------------------------

    def _effective_set(self, node: int) -> frozenset[int]:
        """Declared ∪ behavioural interests (hardened-mode interest set)."""
        return self._profiles.declared(node) | self._profiles.behavioural_interests(node)

    def similarity(self, i: int, j: int) -> float:
        """``Ωs(i,j)`` under the configured mode."""
        if i == j:
            raise ValueError("similarity of a node to itself is undefined")
        # The profile store reads -1 as its last node, so refuse first.
        self._pair_ids(i, j)
        profiles = self._profiles
        if not self._config.hardened:
            return overlap_similarity(profiles.declared(i), profiles.declared(j))
        vi = self._effective_set(i)
        vj = self._effective_set(j)
        if not vi or not vj:
            return 0.0
        shared = vi & vj
        if not shared:
            return 0.0
        wi = profiles.request_weights(i)
        wj = profiles.request_weights(j)
        total = 0.0
        for interest in shared:
            total += wi[interest] * wj[interest]
        return total / min(len(vi), len(vj))

    # -- numerator kernels -------------------------------------------------------

    def _rows(self) -> np.ndarray:
        """The rows whose dot products are the numerator: request weights
        (hardened) or declared membership as float64 (plain)."""
        if self._config.hardened:
            return self._profiles.request_weight_matrix()
        return self._profiles.declared_matrix().astype(np.float64)

    def _product(self) -> np.ndarray:
        """The all-pairs numerator, brought to the profile versions: a full
        product when cold, when the declared sets moved or when most rows
        are dirty; otherwise the dirty rows (and mirrored columns)
        recomputed, each entry still a full dot product."""
        versions = self._read_versions()
        if self._numer is not None and self._numer_versions == versions:
            return self._numer
        dirty = (
            self._profiles.rows_changed_since(self._numer_versions[1])
            if self._config.hardened
            and self._numer is not None
            and self._numer_versions[0] == versions[0]
            else None
        )
        rows = self._rows()
        if dirty is None or dirty.size > self.n_nodes // 2:
            self._numer = rows @ rows.T
            self._rows_patched = False
        elif dirty.size:
            block = rows[dirty] @ rows.T
            self._numer[dirty, :] = block
            self._numer[:, dirty] = block.T
            self._rows_patched = True
        self._numer_versions = versions
        return self._numer

    def _row_dots(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The numerator at each pair, as a k-length dot product."""
        if self._config.hardened:
            w = self._profiles.request_weight_matrix()
            return np.einsum("ij,ij->i", w[i], w[j])
        d = self._profiles.declared_matrix()
        return (d[i] & d[j]).sum(axis=1).astype(np.float64)

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

    def _divide(self, i: np.ndarray, j: np.ndarray, numer: np.ndarray) -> np.ndarray:
        """Eq. (7)/(11) from the numerator at pairs ``(i, j)`` (which may
        broadcast): over the smaller set size, 0 where a set is empty and
        on the diagonal."""
        sizes = self._set_sizes()
        denom = np.minimum(sizes[i], sizes[j])
        out = np.divide(numer, denom, out=np.zeros(denom.shape), where=denom > 0)
        out[i == j] = 0.0
        return out

    # -- reads ----------------------------------------------------------------------

    def pair_values(self, a, b) -> np.ndarray:
        """``Ωs`` over pair arrays (Eq. (7) plain / Eq. (11) hardened),
        divided at the asked pairs only."""
        i, j = self._pair_ids(a, b)
        self._sync()
        if not self._row_dots_kernel:
            return self._divide(i, j, self._product()[i, j])
        if i.size == 0:
            return np.zeros(0, dtype=np.float64)
        n = self.n_nodes
        keys = i * np.int64(n) + j
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
            fi, fj = np.divmod(fresh_keys, np.int64(n))
            fresh = self._divide(fi, fj, self._row_dots(fi, fj))
            out[miss] = fresh[inverse]
            at = np.searchsorted(cached, fresh_keys)
            self._pair_keys = np.insert(cached, at, fresh_keys)
            self._pair_values = np.insert(self._pair_values, at, fresh)
        return out

    def similarity_matrix(self) -> np.ndarray:
        """All-pairs ``Ωs`` matrix (diagonal zero) from the product kernel,
        cached against the profile versions; agrees with
        :meth:`similarity`, and bitwise with :meth:`pair_values` when that
        reads the product too.  Refuses above ``_DENSIFY_LIMIT`` nodes; the
        returned array is read-only (it is the live cache)."""
        self._check_densify()
        n = self.n_nodes
        self._sync()
        if self._matrix is None:
            ids = np.arange(n)
            out = self._divide(ids[:, None], ids[None, :], self._product())
            out.flags.writeable = False
            self._matrix = out
        return self._matrix

    # -- checkpointing ----------------------------------------------------------------

    def state_dict(self) -> dict:
        """The hardened product kernel's numerator, when a restore could
        not rebuild it: after a row update, or once the profiles moved past
        its versions.  Everything else (plain mode's exact overlap counts,
        the assembled matrix, the pair cache) is recomputed on demand."""
        rebuildable = not self._config.hardened or (
            not self._rows_patched and self._numer_versions == self._read_versions()
        )
        numer = None if self._numer is None or rebuildable else self._numer.copy()
        return {
            "n_nodes": self.n_nodes,
            "numer": numer,
            "decl_version": self._numer_versions[0],
            "req_version": self._numer_versions[1],
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output.  Without a numerator, rebuild
        the hardened product from the profile store when it is at the
        checkpoint's versions (the stores restore first, as
        ``Simulation.resume`` does), and leave the cache cold otherwise.
        Older checkpoints load too: an assembled ``matrix`` is
        shape-checked and not read, and a state that carries only a size
        check restores cold."""
        n = self.n_nodes
        saved_n = int(state.get("n_nodes", n))
        if saved_n != n:
            raise ValueError(
                f"similarity checkpoint covers {saved_n} nodes, but this "
                f"computer covers {n} — is the checkpoint from a different "
                "network size?"
            )
        for name in ("matrix", "numer"):
            shape = np.shape(state.get(name))
            if state.get(name) is not None and shape != (n, n):
                raise ValueError(
                    f"similarity cache {name!r} has shape {shape}, but this "
                    f"computer covers {n} nodes (expected {(n, n)}) — is the "
                    f"checkpoint from a different network size?"
                )
        self._drop_caches()
        versions = (int(state.get("decl_version", -1)), int(state.get("req_version", -1)))
        self._numer, self._numer_versions = None, (-1, -1)
        self._rows_patched = False
        if not self._config.hardened:
            return
        if state.get("numer") is not None:
            self._numer = np.asarray(state["numer"], dtype=np.float64).copy()
            self._numer_versions = versions
            self._rows_patched = True
        elif not self._row_dots_kernel and versions == self._read_versions():
            self._product()
