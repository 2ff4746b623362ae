"""EigenTrust (Kamvar, Schlosser & Garcia-Molina, WWW 2003).

Global trust is the stationary vector of the normalised local-trust matrix,
blended with a pre-trusted distribution:

    t_{k+1} = (1 - a) * C^T t_k + a * p

where ``C`` row-normalises the clipped accumulated local ratings
``s_ij = max(sum of ratings i gave j, 0)``, ``p`` is uniform over the
pre-trusted peers, and ``a`` is the pre-trust weight (see the class
docstring for why the default is 0.15 rather than the SocialTrust paper's
stated 0.5).  Rows with no positive local trust fall back to ``p`` — the standard
EigenTrust treatment of inexperienced peers, which is also what lets
pre-trusted peers anchor the computation.

The accumulated local ratings are kept as sorted row-major pair keys
``i * n + j`` and their values, and each interval is added only at its
rated pairs.  An update power-iterates by one of two kernels, picked per
update by a measured rule on ``n`` and the number of keyed pairs
(``_keyed_kernel_fits``):

* **dense**: the keys scattered into an ``n x n`` matrix, clipped and
  row-normalised, and ``C^T t`` as a BLAS matrix-vector product -- the
  seed path, bit for bit, for small or well-filled matrices;
* **keyed**: the clipped values row-normalised over the keys with
  ``np.bincount``, and ``C^T t`` as the transpose of a CSR built from the
  already row-sorted keys (a CSC product), plus the rank-one term
  ``p * sum(t[empty rows])`` for the rows that fall back to ``p``.  It
  costs the keyed pairs per step, not ``n^2``, and agrees with the dense
  kernel to rounding (the sums run in another order).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from repro.reputation.base import IntervalRatings, ReputationSystem

__all__ = ["EigenTrust"]

#: The kernel rule.  Measured per update (the dense scatter, clip,
#: normalisation and 20 GEMVs against the keyed normalisation, CSR build
#: and 20 CSC products) with one BLAS thread on a 2-core VM, on random
#: local-trust matrices, in ms, as "dense | keyed" at the matrix's fill:
#:
#:   n=200   0.30 | 0.27 at 2 %, 0.30 | 0.29 at 10 %, 0.31 | 0.35 at 15 %, 0.33 | 0.50 at 30 %
#:   n=250   0.42 | 0.26 at 2 %, 0.42 | 0.34 at 10 %, 0.46 | 0.43 at 15 %, 0.47 | 0.53 at 20 %
#:   n=300   0.61 | 0.28 at 2 %, 0.63 | 0.42 at 10 %, 0.62 | 0.56 at 15 %, 0.63 | 0.68 at 20 %
#:   n=400   1.16 | 0.33 at 2 %, 1.28 | 0.58 at 10 %, 1.29 | 1.04 at 20 %, 1.31 | 1.46 at 30 %
#:   n=600   3.62 | 0.41 at 2 %, 3.69 | 1.26 at 10 %, 4.98 | 3.19 at 30 %, 3.99 | 4.40 at 40 %
#:   n=1000  10.8 | 0.83 at 2 %, 11.1 | 3.05 at 10 %, 12.5 | 9.05 at 30 %, 12.6 | 12.1 at 40 %
#:   n=2000  82   | 3.1  at 2 %, 77   | 13.5 at 10 %, 72   | 43   at 30 %, 71   | 54   at 40 %
#:
#: So the keyed kernel gains little at n=200 and wins from about 250
#: nodes below a fill that grows with n: ~17 % at n=250-300, ~25 % at
#: 400, ~35 % at 600 and ~40 % at 1000.  The bound ``n / 2000`` follows
#: those break-evens from below, capped at 30 %.  ``paper`` (n=200) and
#: the golden worlds (n=30) stay on the dense kernel and its bits;
#: ``serve`` (n=1000, 2-11 % full) takes the keyed one.
_KEYED_MIN_NODES = 200
_KEYED_FILL_PER_NODE = 1 / 2000
_KEYED_MAX_FILL = 0.3


def _keyed_kernel_fits(n_nodes: int, nnz: int) -> bool:
    """Whether an update over ``n_nodes`` nodes whose local trust holds
    ``nnz`` keyed pairs takes the keyed kernel (see the constants above)."""
    fill = min(_KEYED_FILL_PER_NODE * n_nodes, _KEYED_MAX_FILL)
    return n_nodes > _KEYED_MIN_NODES and nnz <= fill * n_nodes * n_nodes


class EigenTrust(ReputationSystem):
    """Power-iteration EigenTrust with pre-trusted peers.

    Parameters
    ----------
    n_nodes:
        Network size.
    pretrusted:
        Ids of pre-trusted peers (distribution ``p`` is uniform over them).
        May be empty, in which case ``p`` is uniform over all nodes.
    pretrust_weight:
        The blend factor ``a`` in the update rule.  The SocialTrust paper
        states 0.5, but its own reputation plots are inconsistent with a
        0.5 *blend* (nine pre-trusted peers would each be guaranteed
        ``0.5/9 ≈ 5.5%`` of the total mass, an order of magnitude above
        every curve shown); the default therefore follows the EigenTrust
        paper's PageRank-style 0.15, and the experiment harness documents
        the divergence.  Pass 0.5 to follow the stated value literally.
    epsilon:
        L1 convergence tolerance of the power iteration.
    max_iterations:
        Safety bound on power-iteration steps.
    memory_decay:
        Fading-memory factor applied to the accumulated local trust before
        each interval is added (TrustGuard-style: recent behaviour weighs
        more than ancient history).  1.0 (default) keeps the paper's
        infinite memory; 0.9 halves the weight of an interval after ~7
        more intervals.
    """

    def __init__(
        self,
        n_nodes: int,
        pretrusted: Sequence[int] = (),
        *,
        pretrust_weight: float = 0.15,
        epsilon: float = 1e-10,
        max_iterations: int = 1000,
        memory_decay: float = 1.0,
    ) -> None:
        super().__init__(n_nodes)
        if not 0.0 < memory_decay <= 1.0:
            raise ValueError(
                f"memory_decay must be in (0, 1], got {memory_decay}"
            )
        self._decay = float(memory_decay)
        if not 0.0 <= pretrust_weight < 1.0:
            raise ValueError(
                f"pretrust_weight must be in [0, 1), got {pretrust_weight}"
            )
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        ids = sorted(set(int(x) for x in pretrusted))
        for x in ids:
            if not 0 <= x < n_nodes:
                raise ValueError(f"pretrusted id {x} out of range [0, {n_nodes})")
        self._pretrusted = tuple(ids)
        self._a = float(pretrust_weight)
        self._eps = float(epsilon)
        self._max_iter = int(max_iterations)
        self._p = np.zeros(n_nodes, dtype=np.float64)
        if ids:
            self._p[ids] = 1.0 / len(ids)
        else:
            self._p[:] = 1.0 / n_nodes
        self._clear_local()
        self._t = self._p.copy()
        self._last_iterations = 0

    def _clear_local(self) -> None:
        # The accumulated local ratings: sorted row-major keys and values.
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)

    @property
    def name(self) -> str:
        return "EigenTrust"

    @property
    def pretrusted(self) -> tuple[int, ...]:
        return self._pretrusted

    @property
    def last_iterations(self) -> int:
        """Power-iteration steps taken by the most recent :meth:`update`."""
        return self._last_iterations

    @property
    def local_trust(self) -> np.ndarray:
        """Read-only dense ``n x n`` array of the accumulated (signed) local
        ratings ``s_ij``, built on each read."""
        out = self._dense_local()
        out.flags.writeable = False
        return out

    def _dense_local(self) -> np.ndarray:
        n = self._n
        flat = np.zeros(n * n, dtype=np.float64)
        flat[self._keys] = self._values
        return flat.reshape(n, n)

    def normalized_local(self) -> np.ndarray:
        """The row-stochastic matrix ``C``; pretrust rows for empty raters."""
        clipped = np.clip(self._dense_local(), 0.0, None)
        np.fill_diagonal(clipped, 0.0)
        row_sums = clipped.sum(axis=1, keepdims=True)
        c = np.divide(
            clipped, row_sums, out=np.zeros_like(clipped), where=row_sums > 0
        )
        empty = row_sums[:, 0] == 0
        if np.any(empty):
            c[empty] = self._p
        return c

    def _accumulate(self, interval: IntervalRatings) -> None:
        """Fade the local ratings by the memory decay and add the interval
        at its pairs, inserting the pairs not keyed yet in one linear
        merge (no sort)."""
        if self._decay < 1.0:
            self._values *= self._decay
        keys = interval.pair_keys()
        if not keys.size:
            return
        at = np.searchsorted(self._keys, keys)
        known = at < self._keys.size
        known[known] = self._keys[at[known]] == keys[known]
        if not known.all():
            fresh = np.flatnonzero(~known)
            size = self._keys.size + fresh.size
            # Each new key lands after the old keys below it and the new
            # keys before it.
            slots = at[fresh] + np.arange(fresh.size)
            old = np.ones(size, dtype=bool)
            old[slots] = False
            merged = np.empty(size, dtype=np.int64)
            merged[slots] = keys[fresh]
            merged[old] = self._keys
            values = np.zeros(size, dtype=np.float64)
            values[old] = self._values
            self._keys, self._values = merged, values
            at = np.searchsorted(merged, keys)
        # The interval's keys are unique, so this adds each value once.
        self._values[at] += interval.value

    def _dense_step(self) -> Callable[[np.ndarray], np.ndarray]:
        """``t -> C^T t`` over the dense ``C`` (the seed kernel)."""
        ct = np.ascontiguousarray(self.normalized_local().T)
        return ct.__matmul__

    def _keyed_step(self) -> Callable[[np.ndarray], np.ndarray]:
        """``t -> C^T t`` over the keyed pairs: ``C``'s keyed rows as a
        CSR whose transpose multiplies ``t``, and the rows with no positive
        local trust as ``p`` times their mass."""
        n = self._n
        rows, cols = np.divmod(self._keys, n)
        clipped = np.maximum(self._values, 0.0)
        clipped[rows == cols] = 0.0
        row_sums = np.bincount(rows, clipped, minlength=n)
        totals = row_sums[rows]
        data = np.divide(clipped, totals, out=np.zeros_like(clipped), where=totals > 0)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        ct = sparse.csr_matrix((data, cols, indptr), shape=(n, n)).T
        empty = np.flatnonzero(row_sums == 0)
        if not empty.size:
            return ct.__matmul__
        p = self._p
        return lambda t: ct @ t + p * t[empty].sum()

    def update(self, interval: IntervalRatings) -> np.ndarray:
        self._check_interval(interval)
        self._accumulate(interval)
        if _keyed_kernel_fits(self._n, self._keys.size):
            step = self._keyed_step()
        else:
            step = self._dense_step()
        t = self._t
        a, p = self._a, self._p
        for iteration in range(1, self._max_iter + 1):
            t_next = (1.0 - a) * step(t) + a * p
            delta = np.abs(t_next - t).sum()
            t = t_next
            if delta < self._eps:
                break
        self._last_iterations = iteration
        self._t = t
        return self.reputations

    @property
    def reputations(self) -> np.ndarray:
        total = self._t.sum()
        if total <= 0:
            return np.zeros(self._n)
        return self._t / total

    def reset(self) -> None:
        self._clear_local()
        self._t = self._p.copy()
        self._last_iterations = 0

    def state_dict(self) -> dict:
        return {
            "local_keys": self._keys.copy(),
            "local_values": self._values.copy(),
            "t": self._t.copy(),
            "last_iterations": self._last_iterations,
        }

    def restore_state(self, state: dict) -> None:
        """Load :meth:`state_dict` output; an older checkpoint's dense
        ``local`` matrix loads as its nonzero cells."""
        if "local_keys" in state:
            self._keys = np.array(state["local_keys"], dtype=np.int64)
            self._values = np.array(state["local_values"], dtype=np.float64)
        else:
            local = np.asarray(state["local"], dtype=np.float64).ravel()
            self._keys = np.flatnonzero(local)
            self._values = local[self._keys]
        self._t = np.asarray(state["t"], dtype=np.float64).copy()
        self._last_iterations = int(state["last_iterations"])
