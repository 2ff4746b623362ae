"""Suspicious-behaviour detection — Section 4.3's trigger logic.

Per reputation-update interval the detector:

1. derives the frequency thresholds ``T+_t`` / ``T-_t`` (``theta * F`` over
   the interval's observed median positive/negative rating frequency
   unless the configuration pins absolute values);
2. flags rater→ratee pairs whose positive (negative) rating count exceeds
   the threshold;
3. classifies each flagged pair against the trace-mined behaviours:

   * **B1** — high-frequency positive ratings at *low* social closeness
     (strangers praising each other);
   * **B2** — high-frequency positive ratings at *high* closeness toward a
     *low-reputed* ratee (friends pumping a bad node);
   * **B3** — high-frequency positive ratings at *low* interest similarity
     (no plausible transaction relationship);
   * **B4** — high-frequency *negative* ratings at *high* interest
     similarity (competitor badmouthing);

4. damps the matched pairs' rating influence with the Gaussian filter of
   Eq. (9), centred on each rater's own coefficient band (falling back to
   the system-wide band for raters with too few rated peers — the AUTO
   centring policy).

One pair-indexed kernel does all four steps.  Every per-pair input is
sorted row-major pair keys ``i * n + j``: the nonzero entries of the
interval's rating-count matrices, the cumulative rated pairs (the
flagged raters' rows are selected from them), and the recidivism history
(keys plus counts, gathered at the judged pairs).  Behaviours,
leave-one-out bands and damping are evaluated only over the
frequency-flagged pairs (plus, for the bands, the flagged raters' rated
neighbourhoods), so the analysis scales with the interval's pairs, not
with ``n^2``.  :meth:`CollusionDetector.analyze` gathers the counts at
the interval's :meth:`~repro.reputation.base.IntervalRatings.pair_keys`
and takes the history as keys; :meth:`CollusionDetector.analyze_sparse`
converts CSR inputs to keys.
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.core.closeness import ClosenessComputer
from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.similarity import SimilarityComputer
from repro.obs import Observability
from repro.reputation.base import IntervalRatings

__all__ = [
    "SuspicionReason",
    "Finding",
    "DerivedThresholds",
    "DetectionResult",
    "CollusionDetector",
]


class SuspicionReason(enum.Flag):
    """Which trace-mined behaviour pattern(s) a flagged pair matched."""

    B1 = enum.auto()
    B2 = enum.auto()
    B3 = enum.auto()
    B4 = enum.auto()


#: Every B1–B4 combination and its behaviour names, indexed by bit code.
_REASONS = tuple(SuspicionReason(code) for code in range(16))
_BEHAVIORS = tuple(
    tuple(flag.name for flag in SuspicionReason if flag in reasons)
    for reasons in _REASONS
)
#: The audit decision by bit code: any behaviour damps.
_DECISIONS = ("accepted",) + ("damped",) * 15


@dataclass(frozen=True)
class Finding:
    """One adjusted rater→ratee pair with its evidence."""

    rater: int
    ratee: int
    reasons: SuspicionReason
    closeness: float
    similarity: float
    weight: float


@dataclass(frozen=True)
class DerivedThresholds:
    """The thresholds actually used for one interval (after derivation)."""

    pos_frequency: float
    neg_frequency: float
    low_reputation: float
    closeness_low: float
    closeness_high: float
    similarity_low: float
    similarity_high: float

    def as_dict(self) -> dict[str, float]:
        """The thresholds under the paper's names (``T+``, ``TR``, ``Tcl``, ...)."""
        names = ("T+", "T-", "TR", "Tcl", "Tch", "Tsl", "Tsh")
        return dict(zip(names, map(float, astuple(self))))


def _findings(pairs, codes, closeness, similarity, weights) -> tuple[Finding, ...]:
    """Findings from per-pair arrays (``codes`` are B1–B4 bit codes)."""
    return tuple(
        map(
            Finding,
            pairs[:, 0].tolist(),
            pairs[:, 1].tolist(),
            [_REASONS[code] for code in codes.tolist()],
            closeness.tolist(),
            similarity.tolist(),
            weights.tolist(),
        )
    )


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of one interval's analysis.

    Only the adjusted pairs are stored; every other pair has implicit
    weight 1.0.  :attr:`weights` is the dense ``n x n`` view for
    paper-scale callers, built on first access.
    """

    #: Adjusted rater→ratee pairs, shape ``(m, 2)``, row-major order.
    pairs: np.ndarray
    #: Damping weights of exactly those pairs, shape ``(m,)``.
    pair_weights: np.ndarray
    #: One finding per adjusted pair, in the same order.
    findings: tuple[Finding, ...]
    thresholds: DerivedThresholds
    n_nodes: int

    @property
    def n_adjusted(self) -> int:
        return len(self.findings)

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only dense weight matrix (1.0 except at the adjusted pairs)."""
        out = np.ones((self.n_nodes, self.n_nodes), dtype=np.float64)
        out[self.pairs[:, 0], self.pairs[:, 1]] = self.pair_weights
        out.flags.writeable = False
        return out

    @cached_property
    def keys(self) -> np.ndarray:
        """Sorted row-major keys ``i * n + j`` of the adjusted pairs."""
        return self.pairs[:, 0] * np.int64(self.n_nodes) + self.pairs[:, 1]

    @cached_property
    def _weight_by_key(self) -> dict[int, float]:
        return dict(zip(self.keys.tolist(), self.pair_weights.tolist()))

    def weight(self, rater: int, ratee: int) -> float:
        """Weight of one rater→ratee pair without the dense view: a lookup
        of its row-major key among the adjusted pairs' (built on first use)."""
        return self._weight_by_key.get(rater * self.n_nodes + ratee, 1.0)

    def state_dict(self) -> dict:
        """Arrays that rebuild this result exactly (:meth:`from_state`)."""
        return {
            "pairs": self.pairs.copy(),
            "pair_weights": self.pair_weights.copy(),
            "reasons": np.array(
                [f.reasons.value for f in self.findings], dtype=np.int64
            ),
            "closeness": np.array([f.closeness for f in self.findings]),
            "similarity": np.array([f.similarity for f in self.findings]),
            "thresholds": list(astuple(self.thresholds)),
        }

    @classmethod
    def from_state(cls, state: dict, n_nodes: int) -> "DetectionResult":
        pairs = np.asarray(state["pairs"], dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(state["pair_weights"], dtype=np.float64)
        findings = _findings(
            pairs,
            np.asarray(state["reasons"], dtype=np.int64),
            np.asarray(state["closeness"], dtype=np.float64),
            np.asarray(state["similarity"], dtype=np.float64),
            weights,
        )
        thresholds = DerivedThresholds(*(float(t) for t in state["thresholds"]))
        return cls(pairs, weights, findings, thresholds, int(n_nodes))


def detected_pair_weight(
    result: DetectionResult | None, n_nodes: int, rater: int, ratee: int
) -> float:
    """Damping weight the detector gave ``rater→ratee`` in ``result``.

    1.0 for a pair that was not adjusted, or when no interval has been
    analysed yet (``result`` is None).
    """
    if not (0 <= rater < n_nodes and 0 <= ratee < n_nodes):
        raise ValueError(f"pair ({rater}, {ratee}) out of range [0, {n_nodes})")
    return 1.0 if result is None else result.weight(rater, ratee)


class _PairCounts(NamedTuple):
    """Nonzero entries of an ``n x n`` matrix keyed ``i * n + j``, sorted."""

    keys: np.ndarray
    values: np.ndarray

    @classmethod
    def nonzero(cls, keys: np.ndarray, values: np.ndarray) -> "_PairCounts":
        """The nonzero entries among sorted ``keys`` and their ``values``."""
        keep = values != 0
        return cls(keys[keep], values[keep])

    @classmethod
    def from_sparse(cls, matrix: sparse.spmatrix) -> "_PairCounts":
        csr = matrix.tocsr()
        csr.sum_duplicates()
        n = csr.shape[0]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        keep = csr.data != 0
        keys = rows[keep] * np.int64(n) + csr.indices[keep]
        return cls(keys, csr.data[keep].astype(np.float64, copy=False))

    def gather(self, keys: np.ndarray) -> np.ndarray:
        """Values at ``keys`` (0.0 where a key has no entry)."""
        if self.keys.size == 0:
            return np.zeros(keys.size, dtype=np.float64)
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[at] == keys, self.values[at], 0.0)


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted, duplicate-free key arrays.

    ``np.union1d`` for that special case: a stable sort of the
    concatenation merges the two runs in one linear pass, where
    ``union1d`` deduplicates the whole concatenation (by hashing in numpy 2.4:
    ~17 ms against ~0.8 ms for this merge on 60k + 23k keys).
    """
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _pair_bands(
    raters: np.ndarray,
    judged: np.ndarray,
    band_rows: np.ndarray,
    band_values: np.ndarray,
    global_values: np.ndarray,
    config: SocialTrustConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (center, spread) under the configured centring policy.

    Pair ``t`` is rater ``raters[t]`` judged at coefficient ``judged[t]``.
    ``band_rows`` / ``band_values`` list the coefficients of every node
    each rater has rated; the judged pair is always among its rater's
    entries.  ``global_values`` are the coefficients observed over
    transaction pairs system-wide.

    The band judging a pair covers the *other* nodes its rater has rated
    — Eq. (6)'s exponent is "the deviation of Ωc(i,j) from the normal
    social closeness of n_i to other nodes it has rated".  The
    leave-one-out matters: including the judged pair would let an
    extreme coefficient inflate its own band spread and mask itself.
    Per-rater sums come from ``bincount``; one ``lexsort`` by (rater,
    value) yields each rater's extrema and runner-up extrema, so removing
    the judged value exposes the runner-up (a duplicated extremum has a
    runner-up equal to itself).
    """
    if global_values.size:
        g_center = float(global_values.mean())
        g_spread = float(global_values.max() - global_values.min())
    else:
        g_center, g_spread = 0.0, 0.0
    centers = np.full(raters.size, g_center)
    spreads = np.full(raters.size, g_spread)
    if config.center is GaussianCenter.GLOBAL or band_rows.size == 0:
        return centers, spreads
    n_rows = int(max(band_rows.max(), raters.max())) + 1
    sizes = np.bincount(band_rows, minlength=n_rows)
    sums = np.bincount(band_rows, weights=band_values, minlength=n_rows)
    ordered = band_values[np.lexsort((band_values, band_rows))]
    ends = np.cumsum(sizes)
    loo_sizes = sizes[raters] - 1
    if config.center is GaussianCenter.RATER:
        use = np.flatnonzero(loo_sizes > 0)
    else:  # AUTO
        use = np.flatnonzero(loo_sizes >= config.min_band_size)
    end = ends[raters[use]]
    start = end - sizes[raters[use]]
    x = judged[use]
    vmin, vmin2 = ordered[start], ordered[start + 1]
    vmax, vmax2 = ordered[end - 1], ordered[end - 2]
    centers[use] = (sums[raters[use]] - x) / loo_sizes[use]
    spreads[use] = np.where(x == vmax, vmax2, vmax) - np.where(x == vmin, vmin2, vmin)
    return centers, spreads


class CollusionDetector:
    """Flags suspicious rating pairs and computes their damping weights."""

    def __init__(
        self,
        closeness: ClosenessComputer,
        similarity: SimilarityComputer,
        config: SocialTrustConfig | None = None,
        *,
        observability: Observability | None = None,
    ) -> None:
        if closeness.n_nodes != similarity.n_nodes:
            raise ValueError(
                "closeness and similarity computers disagree on network size"
            )
        self._closeness = closeness
        self._similarity = similarity
        self._config = config or SocialTrustConfig()
        self._obs = observability
        self._interval_index = 0

    @property
    def n_nodes(self) -> int:
        return self._closeness.n_nodes

    @property
    def observability(self) -> Observability | None:
        return self._obs

    def reset(self) -> None:
        """Rewind the audit interval counter (audit/metric stores are
        owned by the :class:`~repro.obs.Observability` bundle and are
        cleared there, not here)."""
        self._interval_index = 0

    @property
    def last_interval_index(self) -> int | None:
        """Index of the most recently analyzed interval (``None`` before
        the first analysis) — what follow-up audit events emitted by the
        manager layer should stamp themselves with."""
        if self._interval_index == 0:
            return None
        return self._interval_index - 1

    def state_dict(self) -> dict:
        return {"interval_index": self._interval_index}

    def restore_state(self, state: dict) -> None:
        self._interval_index = int(state["interval_index"])

    def _frequency_threshold(self, counts: np.ndarray, pinned: float | None) -> float:
        """Derive ``T+_t`` / ``T-_t`` as ``theta * F`` over nonzero counts.

        ``F`` is the *median* per-pair rating frequency, not the mean: a
        mass rating campaign inflates the mean and thereby raises the very
        bar meant to catch it, while the median stays anchored to the
        organic majority of pairs.  (The paper takes F from trace
        empirics — 2.2 ratings/month — which is likewise an
        attack-free baseline.)
        """
        if pinned is not None:
            return float(pinned)
        observed = counts[counts > 0]
        if not observed.size:
            return np.inf
        return float(self._config.theta * float(np.median(observed)))

    @staticmethod
    def _band_thresholds(
        values: np.ndarray, low: float | None, high: float | None
    ) -> tuple[float, float]:
        """Derive (T_low, T_high) as the 25th/75th percentile of the
        *positive* observed coefficients.

        Zeros are excluded from the derivation deliberately: a pair rating
        at high frequency with literally zero social closeness or interest
        overlap is the textbook B1/B3 pattern, so the low threshold must
        sit strictly above zero for the strict ``<`` comparison to fire.
        """
        if low is not None and high is not None:
            return low, high
        positive = values[values > 0]
        if positive.size:
            d_low, d_high = np.percentile(positive, [25.0, 75.0])
        else:
            d_low, d_high = 0.0, np.inf
        return (
            float(low) if low is not None else float(d_low),
            float(high) if high is not None else float(d_high),
        )

    def analyze(
        self,
        interval: IntervalRatings,
        reputations: np.ndarray,
        rated: np.ndarray,
        flags: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> DetectionResult:
        """Analyse one interval against its pair-keyed history.

        The counts are read from the interval's columns at its
        :meth:`~repro.reputation.base.IntervalRatings.pair_keys`; no
        ``n x n`` array is scanned.  Keys are row-major, ``i * n + j``.

        Parameters
        ----------
        interval:
            The interval's rating aggregates.
        reputations:
            Global reputation vector *before* this interval is ingested
            (behaviour B2 tests the ratee's current standing).
        rated:
            Sorted keys of the pairs rated in any past interval.  The
            current interval is unioned in before band computation ("the
            nodes that n_i has rated").
        flags:
            ``(keys, counts)``: the sorted keys of the pairs flagged in
            *earlier* intervals and how many intervals each was flagged
            in; drives the recidivism escalation.  ``None`` means no
            history.
        """
        rated = np.asarray(rated, dtype=np.int64)
        if rated.ndim != 1:
            raise ValueError(
                f"rated must be a 1-D array of pair keys, got shape {rated.shape}"
            )
        keys = interval.pair_keys()
        return self._analyze_pairs(
            _PairCounts.nonzero(keys, interval.pos),
            _PairCounts.nonzero(keys, interval.neg),
            reputations,
            rated,
            None if flags is None else _PairCounts(*map(np.asarray, flags)),
        )

    def analyze_sparse(
        self,
        pos_counts: sparse.spmatrix,
        neg_counts: sparse.spmatrix,
        reputations: np.ndarray,
        rated: sparse.spmatrix,
        flag_counts: sparse.spmatrix | None = None,
    ) -> DetectionResult:
        """:meth:`analyze` over CSR inputs: converts each to sorted pair
        keys, without materialising any ``n x n`` array.

        ``pos_counts`` / ``neg_counts`` are the interval's rating-count
        matrices, ``rated`` the cumulative rated mask, ``flag_counts`` the
        recidivism history.
        """
        return self._analyze_pairs(
            _PairCounts.from_sparse(pos_counts),
            _PairCounts.from_sparse(neg_counts),
            reputations,
            _PairCounts.from_sparse(rated).keys,
            None if flag_counts is None else _PairCounts.from_sparse(flag_counts),
        )

    def _analyze_pairs(
        self,
        pos: _PairCounts,
        neg: _PairCounts,
        reputations: np.ndarray,
        rated: np.ndarray,
        history: _PairCounts | None,
    ) -> DetectionResult:
        """The detector kernel over pair-keyed inputs (module docstring).

        ``rated`` holds the sorted keys of the cumulative rated pairs,
        ``history`` the recidivism counts.
        """
        n = self.n_nodes
        cfg = self._config
        obs = self._obs
        interval_index = self._interval_index
        self._interval_index += 1
        if obs is not None:
            obs.metrics.counter("detector.intervals").inc()
        pos_thr = self._frequency_threshold(pos.values, cfg.pos_frequency_threshold)
        neg_thr = self._frequency_threshold(neg.values, cfg.neg_frequency_threshold)
        keys_pos = pos.keys[pos.values > pos_thr]
        keys_neg = neg.keys[neg.values > neg_thr]
        t_r = self._low_reputation()
        flagged = bool(keys_pos.size or keys_neg.size)
        if flagged:
            # Active transaction pairs (nonzero counts, off-diagonal),
            # row-major — the population the derived band thresholds and
            # the global band see.
            active = _merge_sorted(pos.keys, neg.keys)
            act_i, act_j = np.divmod(active, n)
            off_diag = act_i != act_j
            active, act_i, act_j = active[off_diag], act_i[off_diag], act_j[off_diag]
            observed_c = self._closeness.pair_values(act_i, act_j)
            observed_s = self._similarity.pair_values(act_i, act_j)
        else:
            # Nothing to examine: pinned band thresholds still hold, the
            # derived ones fall back to the never-fires sentinels (0, inf).
            observed_c = observed_s = np.empty(0)
        t_cl, t_ch = self._band_thresholds(
            observed_c, cfg.closeness_low, cfg.closeness_high
        )
        t_sl, t_sh = self._band_thresholds(
            observed_s, cfg.similarity_low, cfg.similarity_high
        )
        thresholds = DerivedThresholds(pos_thr, neg_thr, t_r, t_cl, t_ch, t_sl, t_sh)
        if not flagged:
            no_pairs = np.empty((0, 2), dtype=np.int64)
            return DetectionResult(no_pairs, np.empty(0), (), thresholds, n)

        # The flagged pairs, row-major.  Frequency thresholds are positive,
        # so every flagged pair is an active pair.
        keys = _merge_sorted(keys_pos, keys_neg)
        fi, fj = np.divmod(keys, n)
        off_diag = fi != fj
        keys, fi, fj = keys[off_diag], fi[off_diag], fj[off_diag]
        at = np.searchsorted(active, keys)
        omega_c, omega_s = observed_c[at], observed_s[at]
        pos_cnt, neg_cnt = pos.gather(keys), neg.gather(keys)
        flag_pos, flag_neg = pos_cnt > pos_thr, neg_cnt > neg_thr

        none = np.zeros(keys.size, dtype=bool)
        low_rep = np.asarray(reputations, dtype=np.float64)[fj] < t_r
        b1 = flag_pos & (omega_c < t_cl) if cfg.use_closeness else none
        b2 = flag_pos & (omega_c > t_ch) & low_rep if cfg.use_closeness else none
        b3 = flag_pos & (omega_s < t_sl) if cfg.use_similarity else none
        b4 = flag_neg & (omega_s > t_sh) if cfg.use_similarity else none
        codes = b1 + 2 * b2 + 4 * b3 + 8 * b4
        adjust = codes > 0

        weights = np.ones(keys.size, dtype=np.float64)
        if adjust.any():
            sel = np.flatnonzero(adjust)
            exponent = self._band_exponent(
                fi[sel], omega_c[sel], omega_s[sel],
                active, act_i, observed_c, observed_s, rated,
            )
            # Clamp the exponent below the float64 underflow knee: a
            # degenerate band (spread at the floor) with a large deviation
            # would otherwise drive exp() to exactly 0.0 and annihilate the
            # rating instead of damping it.
            damping = cfg.alpha * np.exp(-np.minimum(exponent, 700.0))
            if cfg.cap_flagged_frequency:
                # A flagged pair contributes at most a normal-frequency
                # pair's rating mass: scale by T_t / observed frequency on
                # the side (positive/negative) that tripped the threshold.
                pos_cap = np.minimum(1.0, pos_thr / np.maximum(pos_cnt[sel], 1.0))
                neg_cap = np.minimum(1.0, neg_thr / np.maximum(neg_cnt[sel], 1.0))
                damping = damping * np.where(flag_pos[sel], pos_cap, 1.0)
                damping = damping * np.where(flag_neg[sel], neg_cap, 1.0)
            if history is not None and cfg.recidivism_decay < 1.0:
                damping = damping * np.power(
                    cfg.recidivism_decay,
                    history.gather(keys[sel]),
                )
            weights[sel] = damping
        if obs is not None:
            self._emit_audit(
                interval_index, thresholds, fi, fj, flag_pos, flag_neg, low_rep,
                pos_cnt, neg_cnt, omega_c, omega_s, codes, weights,
            )
        pairs = np.stack([fi[adjust], fj[adjust]], axis=1)
        return DetectionResult(
            pairs,
            weights[adjust],
            _findings(
                pairs, codes[adjust], omega_c[adjust], omega_s[adjust],
                weights[adjust],
            ),
            thresholds,
            n,
        )

    def _band_exponent(
        self,
        fi: np.ndarray,
        omega_c: np.ndarray,
        omega_s: np.ndarray,
        active: np.ndarray,
        act_i: np.ndarray,
        observed_c: np.ndarray,
        observed_s: np.ndarray,
        rated: np.ndarray,
    ) -> np.ndarray:
        """Eq. (9)'s Gaussian exponent for pairs of raters ``fi``.

        Each rater's band covers the nodes it has rated: its cumulative
        rated pairs (the keys in ``rated`` in its row) plus this
        interval's ``active`` partners, which always contain the judged
        ratee.  Active entries reuse their observed coefficients; only
        the other rated pairs are looked up.
        """
        n = self.n_nodes
        cfg = self._config
        is_rater = np.zeros(n, dtype=bool)
        is_rater[fi] = True
        in_band = is_rater[act_i]
        past = rated[is_rater[rated // n]]
        past_i, past_j = np.divmod(
            np.setdiff1d(past, active, assume_unique=True), n
        )
        off_diag = past_i != past_j
        past_i, past_j = past_i[off_diag], past_j[off_diag]
        band_rows = np.concatenate([act_i[in_band], past_i])
        exponent = np.zeros(fi.size, dtype=np.float64)
        for use_dim, computer, omega, observed in (
            (cfg.use_closeness, self._closeness, omega_c, observed_c),
            (cfg.use_similarity, self._similarity, omega_s, observed_s),
        ):
            if not use_dim:
                continue
            band_values = np.concatenate(
                [observed[in_band], computer.pair_values(past_i, past_j)]
            )
            centers, spreads = _pair_bands(
                fi, omega, band_rows, band_values, observed, cfg
            )
            c = np.maximum(spreads, cfg.spread_floor)
            exponent += (omega - centers) ** 2 / (2.0 * c * c)
        return exponent

    def _emit_audit(
        self,
        interval_index: int,
        thresholds: DerivedThresholds,
        fi: np.ndarray,
        fj: np.ndarray,
        flag_pos: np.ndarray,
        flag_neg: np.ndarray,
        low_rep: np.ndarray,
        pos_cnt: np.ndarray,
        neg_cnt: np.ndarray,
        omega_c: np.ndarray,
        omega_s: np.ndarray,
        codes: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """One audit event per frequency-flagged pair: damped or accepted.

        ``fired`` and ``behaviors`` are looked up by the pair's hit
        pattern and behaviour code, and once the log is full the rest of
        the interval's events are counted as dropped without being built.
        """
        from repro.obs import AuditEvent

        assert self._obs is not None
        audit = self._obs.audit
        metrics = self._obs.metrics
        cfg = self._config
        t = thresholds
        checks = [("T+", flag_pos), ("T-", flag_neg), ("TR", low_rep)]
        if cfg.use_closeness:
            checks += [
                ("Tcl", omega_c < t.closeness_low),
                ("Tch", omega_c > t.closeness_high),
            ]
        if cfg.use_similarity:
            checks += [
                ("Tsl", omega_s < t.similarity_low),
                ("Tsh", omega_s > t.similarity_high),
            ]
        # Bit b of a pair's pattern is set when check b hit.
        pattern = np.zeros(fi.size, dtype=np.int64)
        for bit, (_, hit) in enumerate(checks):
            pattern[hit] += 1 << bit
        fired = [
            tuple(name for bit, (name, _) in enumerate(checks) if bits >> bit & 1)
            for bits in range(1 << len(checks))
        ]
        codes_list = codes.tolist()
        audit.record_many(
            map(
                AuditEvent,
                repeat(interval_index),
                fi.tolist(),
                fj.tolist(),
                map(_DECISIONS.__getitem__, codes_list),
                map(_BEHAVIORS.__getitem__, codes_list),
                map(fired.__getitem__, pattern.tolist()),
                omega_c.tolist(),
                omega_s.tolist(),
                weights.tolist(),
                pos_cnt.tolist(),
                neg_cnt.tolist(),
                repeat(t.as_dict()),
            ),
            int(fi.size),
        )
        metrics.counter("detector.pairs_examined").inc(int(fi.size))
        metrics.counter("detector.pairs_damped").inc(int(np.count_nonzero(codes)))

    def _low_reputation(self) -> float:
        """The B2 low-reputation bar ``T_R``.

        Defaults to twice the uniform share — the paper's ``T_R = 0.01``
        at 200 nodes, generalised to other network sizes.
        """
        if self._config.low_reputation_threshold is not None:
            return self._config.low_reputation_threshold
        return 2.0 / self.n_nodes
