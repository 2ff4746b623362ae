"""SocialTrust configuration.

All thresholds and switches of Section 4 live here so that every design
choice the paper mentions is an explicit, ablatable knob:

* frequency thresholds ``T+_t`` / ``T-_t`` — absolute values, or derived as
  ``theta * F`` from the observed mean rating frequency (Section 4.1);
* the low-reputation threshold ``T_R`` of behaviour B2;
* the closeness / similarity band thresholds ``T_ch``, ``T_cl``, ``T_sh``,
  ``T_sl`` — absolute values, or derived per update as percentiles of the
  observed coefficient distribution (the paper sets them "from empirical
  experience"; percentiles make that reproducible);
* Gaussian centring — at the rater's own mean coefficient or at the
  system-wide mean ("we also can replace Ω̄ci with the average Ωc of a pair
  of transaction peers in the system");
* plain vs hardened coefficient formulas (Eqs. (4)/(7) vs (10)/(11));
* per-dimension toggles for the closeness-only / similarity-only ablations.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass

from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
)

__all__ = [
    "CommonFriendAggregate",
    "GaussianCenter",
    "SocialTrustConfig",
]


class CommonFriendAggregate(enum.Enum):
    """How Eq. (3) combines the per-common-friend closeness terms.

    The paper's Eq. (3) is written as a *sum* over common friends, but its
    prose says the closeness through a common friend "is calculated by
    averaging" — and the sum makes closeness grow with the number of
    common friends, which lets one inflated leg (e.g. a colluder's pumped
    closeness to its partner) leak into the rater's closeness to every
    node that shares a friend with that partner, widening the rater's
    normal band and masking the very outlier the filter should catch.
    MEAN is therefore the default; SUM retains the literal formula.
    """

    MEAN = "mean"
    SUM = "sum"


class GaussianCenter(enum.Enum):
    """Where the Gaussian reputation filter is centred."""

    #: Centre at the rater's own mean coefficient over nodes it has rated.
    RATER = "rater"
    #: Centre at the system-wide mean coefficient over transaction pairs.
    GLOBAL = "global"
    #: Rater band when the rater has rated enough distinct nodes
    #: (``min_band_size``), otherwise the global band.  This closes the
    #: loophole where a colluder who only ever rates one partner has zero
    #: deviation from its own mean.
    AUTO = "auto"


@dataclass(frozen=True)
class SocialTrustConfig:
    """Parameter bundle for SocialTrust.

    Defaults follow the paper's evaluation setup where stated (``alpha=1``)
    and its trace-derived empirics elsewhere.
    """

    #: Gaussian peak height ``a`` in Eq. (5); the paper sets 1.
    alpha: float = 1.0
    #: Scaling factor ``theta > 1`` applied to the observed mean rating
    #: frequency ``F`` to obtain frequency thresholds when the explicit
    #: thresholds below are ``None``.
    theta: float = 2.0
    #: Absolute positive-rating-frequency threshold ``T+_t`` per interval;
    #: ``None`` derives ``theta * mean positive frequency`` per update.
    pos_frequency_threshold: float | None = None
    #: Absolute negative-rating-frequency threshold ``T-_t`` per interval.
    neg_frequency_threshold: float | None = None
    #: Low-reputation threshold ``T_R`` used by behaviour B2; ``None``
    #: derives twice the uniform share ``2 / n_nodes`` at update time
    #: (the paper's 0.01 at 200 nodes).
    low_reputation_threshold: float | None = None
    #: Closeness band thresholds ``T_cl`` / ``T_ch``.  ``None`` derives the
    #: 25th / 75th percentile of the positive observed closenesses.
    closeness_low: float | None = None
    closeness_high: float | None = None
    #: Similarity band thresholds ``T_sl`` / ``T_sh``; same convention.
    similarity_low: float | None = None
    similarity_high: float | None = None
    #: Eq. (3) aggregation over common friends (see
    #: :class:`CommonFriendAggregate`).
    common_friend_aggregate: CommonFriendAggregate = CommonFriendAggregate.MEAN
    #: Gaussian centring policy.
    center: GaussianCenter = GaussianCenter.AUTO
    #: Minimum number of distinct rated nodes before AUTO trusts the
    #: rater's own band.
    min_band_size: int = 3
    #: Use the hardened coefficient formulas (Eqs. (10) and (11)).
    hardened: bool = True
    #: Relationship scaling weight ``lambda`` of Eq. (10); in [0.5, 1].
    lambda_scaling: float = 0.75
    #: Ablation toggles for the two Gaussian dimensions of Eq. (9).
    use_closeness: bool = True
    use_similarity: bool = True
    #: Additionally scale a flagged pair's rating influence by
    #: ``T_t / observed frequency`` so a suspicious pair contributes at
    #: most a normal-frequency pair's worth of rating mass per interval.
    #: This closes the gap Eq. (9) leaves for colluders whose coefficients
    #: *look* normal (e.g. a pair keeping social distance 2-3: their
    #: pumped frequency dilutes their own closeness everywhere, so the
    #: Gaussian deviation is small) — without it, Fig. 20's containment at
    #: moderate distances is not reproducible.  Documented as a
    #: reproduction decision in DESIGN.md §5.
    cap_flagged_frequency: bool = True
    #: Geometric escalation against repeat offenders: a pair flagged in
    #: ``k`` earlier intervals has its weight multiplied by ``decay**k``.
    #: A one-off anomaly (possible false positive) keeps the mild
    #: single-interval treatment; a sustained rating campaign — the only
    #: way collusion pays — is driven to zero.  1.0 disables escalation.
    recidivism_decay: float = 0.5
    #: Damping weight a distributed manager applies to a *suspected* pair
    #: whose social information stayed unreachable after retries (manager
    #: down with no live successor, or every ``info_request`` lost).  The
    #: conservative middle ground: neither trusting the suspect rating at
    #: full weight (1.0) nor erasing it on unverified suspicion (0.0).
    #: Only the fault-injected execution path ever uses it.
    neutral_damping: float = 0.5
    #: Lower bound on the Gaussian spread ``c`` to avoid division by zero
    #: when a band has max == min.
    spread_floor: float = 1e-3
    #: Accepted for older specs, stream and checkpoint headers ("dense" or
    #: "sparse"); it selects nothing, since the Ωc and Ωs computers pick
    #: their kernels from the world, and :meth:`to_dict` does not write it.
    coefficient_backend: InitVar[str | None] = None
    #: Force an exact from-scratch rebuild of the incrementally-maintained
    #: Ωc ``T2`` term after this many consecutive low-rank corrections.
    #: The correction is mathematically exact but accumulates float drift
    #: (it is "exact but not bitwise"), so churn-heavy runs that stay on
    #: the incremental path for thousands of updates would otherwise let
    #: the drift grow without bound.  It bounds the drift of the full
    #: layout's GEMM kernel and of the two-hop layout only: the full
    #: layout's pair kernel (large worlds with a sparse ``A``) rebuilds
    #: ``A`` on every ledger change, never patches, and has no drift.
    cache_rebuild_interval: int = 64

    def __post_init__(self, coefficient_backend: str | None) -> None:
        if coefficient_backend not in (None, "dense", "sparse"):
            raise ValueError(
                "coefficient_backend must be 'dense' or 'sparse', got "
                f"{coefficient_backend!r}"
            )
        # String spellings keep the config JSON-round-trippable (golden /
        # checkpoint headers store configs as plain dicts).
        for name, enum_type in (
            ("common_friend_aggregate", CommonFriendAggregate),
            ("center", GaussianCenter),
        ):
            value = getattr(self, name)
            if not isinstance(value, enum_type):
                object.__setattr__(self, name, enum_type(value))
        check_positive("alpha", self.alpha)
        if self.theta <= 1.0:
            raise ValueError(f"theta must be > 1, got {self.theta}")
        for name in ("pos_frequency_threshold", "neg_frequency_threshold"):
            value = getattr(self, name)
            if value is not None:
                check_positive(name, value)
        if self.low_reputation_threshold is not None:
            check_probability("low_reputation_threshold", self.low_reputation_threshold)
        for name in (
            "closeness_low",
            "closeness_high",
            "similarity_low",
            "similarity_high",
        ):
            value = getattr(self, name)
            if value is not None:
                check_probability(name, min(value, 1.0)) if value <= 1.0 else None
                if value < 0:
                    raise ValueError(f"{name} must be >= 0, got {value}")
        if (
            self.closeness_low is not None
            and self.closeness_high is not None
            and self.closeness_low > self.closeness_high
        ):
            raise ValueError("closeness_low must not exceed closeness_high")
        if (
            self.similarity_low is not None
            and self.similarity_high is not None
            and self.similarity_low > self.similarity_high
        ):
            raise ValueError("similarity_low must not exceed similarity_high")
        if not 0.5 <= self.lambda_scaling <= 1.0:
            raise ValueError(
                f"lambda_scaling must be in [0.5, 1], got {self.lambda_scaling}"
            )
        if self.min_band_size < 1:
            raise ValueError(f"min_band_size must be >= 1, got {self.min_band_size}")
        check_probability("neutral_damping", self.neutral_damping)
        check_fraction("spread_floor", self.spread_floor)
        check_fraction("recidivism_decay", self.recidivism_decay)
        if self.cache_rebuild_interval < 1:
            raise ValueError(
                "cache_rebuild_interval must be >= 1, got "
                f"{self.cache_rebuild_interval}"
            )
        if not (self.use_closeness or self.use_similarity):
            raise ValueError(
                "at least one of use_closeness / use_similarity must be enabled"
            )

    def to_dict(self) -> dict:
        """JSON-friendly dict (enums as their string values); the inverse
        of ``SocialTrustConfig(**d)``, used by golden/checkpoint headers."""
        from dataclasses import fields as dc_fields

        out = {}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, enum.Enum) else value
        return out
