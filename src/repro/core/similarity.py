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
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.config import SocialTrustConfig
from repro.core.gaussian import PairBands
from repro.social.interests import InterestProfiles

__all__ = ["overlap_similarity", "SimilarityComputer"]


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
        # Value cache keyed on the profile store's declared/request epochs.
        self._cached_matrix: np.ndarray | None = None
        self._cached_numer: np.ndarray | None = None
        self._cached_req_version = -1
        self._cached_decl_version = -1

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """The value cache and its version keys (serialized alongside the
        Ωc caches so a resumed run replays cache hits and incremental
        updates exactly as the uninterrupted run would)."""

        def _copy(a: np.ndarray | None) -> np.ndarray | None:
            return None if a is None else a.copy()

        return {
            "matrix": _copy(self._cached_matrix),
            "numer": _copy(self._cached_numer),
            "req_version": self._cached_req_version,
            "decl_version": self._cached_decl_version,
        }

    def restore_state(self, state: dict) -> None:
        n = self.n_nodes

        def _arr(value, name: str) -> np.ndarray | None:
            if value is None:
                return None
            arr = np.asarray(value, dtype=np.float64).copy()
            if arr.shape != (n, n):
                raise ValueError(
                    f"similarity cache {name!r} has shape {arr.shape}, but "
                    f"this computer covers {n} nodes (expected {(n, n)}) — is "
                    f"the checkpoint from a different network size?"
                )
            return arr

        matrix = _arr(state["matrix"], "matrix")
        if matrix is not None:
            matrix.flags.writeable = False  # the live cache is read-only
        self._cached_matrix = matrix
        self._cached_numer = _arr(state["numer"], "numer")
        self._cached_req_version = int(state["req_version"])
        self._cached_decl_version = int(state["decl_version"])

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

    def similarity_matrix(self) -> np.ndarray:
        """All-pairs ``Ωs`` matrix (diagonal zero); agrees with :meth:`similarity`.

        Plain mode: with ``D`` the boolean declared-membership matrix,
        intersections are ``D @ D.T`` and the denominator the outer minimum
        of set sizes.  Hardened mode: the numerator is ``W @ W.T`` over
        request-weight rows (weights are zero outside a node's behavioural
        interests, so the product automatically restricts to shared
        interests) over the outer minimum of effective-set sizes.

        The result is cached against the profile store's mutation epochs.
        Plain mode only depends on the declared sets, so it survives any
        amount of request traffic.  Hardened mode recomputes the
        ``W @ W.T`` rows (and mirrored columns) of nodes whose request
        counters changed when few rows are dirty, and falls back to a full
        rebuild — bit-identical to the seed path — when most are.  The
        returned array is read-only (it is the live cache).
        """
        profiles = self._profiles
        n = profiles.n_nodes
        decl_version = profiles.declared_version
        req_version = profiles.version
        if self._cached_matrix is not None and self._cached_decl_version == decl_version:
            if not self._config.hardened:
                return self._cached_matrix
            if self._cached_req_version == req_version:
                return self._cached_matrix
        if not self._config.hardened:
            d = profiles.declared_matrix().astype(np.float64)
            inter = d @ d.T
            sizes = d.sum(axis=1)
            denom = np.minimum.outer(sizes, sizes)
            out = np.divide(inter, denom, out=np.zeros((n, n)), where=denom > 0)
            self._cached_numer = None
        else:
            w = profiles.request_weight_matrix()
            dirty = (
                profiles.rows_changed_since(self._cached_req_version)
                if self._cached_numer is not None
                and self._cached_decl_version == decl_version
                else None
            )
            if dirty is None or dirty.size > n // 2:
                self._cached_numer = w @ w.T
            elif dirty.size:
                # Each numerator entry is a full dot product, so row-wise
                # recomputation stays exact; symmetry mirrors the columns.
                rows = w[dirty] @ w.T
                self._cached_numer[dirty, :] = rows
                self._cached_numer[:, dirty] = rows.T
            numer = self._cached_numer
            sizes = profiles.effective_set_sizes()
            denom = np.minimum.outer(sizes, sizes)
            out = np.divide(numer, denom, out=np.zeros((n, n)), where=denom > 0)
        np.fill_diagonal(out, 0.0)
        out.flags.writeable = False
        self._cached_matrix = out
        self._cached_decl_version = decl_version
        self._cached_req_version = req_version
        return out

    def pair_values(self, a, b) -> np.ndarray:
        """``Ωs`` over pair arrays — same gather API as the sparse backend
        (reads from the cached matrix)."""
        i, j = self._pair_ids(a, b)
        matrix = self.similarity_matrix()
        return np.asarray(matrix[i, j], dtype=np.float64)
