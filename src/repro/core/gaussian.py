"""The Gaussian reputation filter — Eqs. (5), (6), (8) and (9).

A rating from ``i`` to ``j`` whose social coefficient deviates from the
rater's normal band is damped by the bell curve

    w = alpha * exp( -(x - b)^2 / (2 c^2) )

with ``b`` the band centre (the rater's mean coefficient over nodes it has
rated, or the system-wide mean) and ``c`` the band width
(``|max - min|`` of the same set).  Eq. (9) multiplies the closeness and
similarity bells by summing their exponents.

:class:`PairBands` derives the band summaries of every Ωc/Ωs computer
from its ``pair_values`` gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "PairBands",
    "RaterBand",
    "weight_exponent",
    "gaussian_weight",
    "combined_weight",
]


@dataclass(frozen=True)
class RaterBand:
    """Centre/width summary of a rater's observed coefficients.

    ``center`` plays ``b`` and ``spread`` plays ``c`` in Eq. (5); ``size``
    records how many distinct observations back the band (the AUTO centring
    policy falls back to the global band below
    :attr:`~repro.core.config.SocialTrustConfig.min_band_size`).
    """

    center: float
    spread: float
    size: int

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RaterBand":
        """Band over a non-empty collection of coefficient observations."""
        vals = [float(v) for v in values]
        if not vals:
            raise ValueError("cannot build a band from zero observations")
        lo = min(vals)
        hi = max(vals)
        return cls(
            center=sum(vals) / len(vals),
            spread=abs(hi - lo),
            size=len(vals),
        )


#: The all-pairs matrices refuse above this many nodes: a float64
#: ``n x n`` matrix at the next power of two would already cost several GiB.
_DENSIFY_LIMIT = 8192


class PairBands:
    """Band summaries over a coefficient computer's ``pair_values`` gather.

    One implementation for Ωc and Ωs on every kernel: a band reads the
    same cached values the detector kernel reads, so it can never diverge
    from them.
    """

    def pair_values(self, raters, ratees) -> np.ndarray:
        raise NotImplementedError

    def _check_densify(self) -> None:
        """Refuse an all-pairs matrix above ``_DENSIFY_LIMIT`` nodes."""
        n = self.n_nodes
        if n > _DENSIFY_LIMIT:
            raise ValueError(
                f"refusing to densify a {n}x{n} coefficient matrix; use "
                "pair_values() at this scale"
            )

    def _pair_ids(self, raters, ratees) -> tuple[np.ndarray, np.ndarray]:
        """The pair arrays as int64, refusing ids off ``[0, n)``: a sparse
        pair key ``i * n + j`` would name another pair, and a dense gather
        would wrap ``-1`` to ``n - 1``."""
        i = np.asarray(raters, dtype=np.int64)
        j = np.asarray(ratees, dtype=np.int64)
        if i.size:
            n = self.n_nodes
            # Read as unsigned, a negative id is above every valid one, so
            # one max per array checks both ends of the range.
            if max(i.view(np.uint64).max(), j.view(np.uint64).max()) >= np.uint64(n):
                raise IndexError(f"node ids must lie in [0, {n})")
        return i, j

    def rater_band(
        self, rater: int, rated: frozenset[int] | set[int]
    ) -> RaterBand | None:
        """Band over the rater's coefficient to every node it has rated,
        gathered in ascending ratee order."""
        ratees = np.array(sorted(j for j in rated if j != rater), dtype=np.int64)
        return self._band(np.full(ratees.size, rater, dtype=np.int64), ratees)

    def global_band(self, pairs: list[tuple[int, int]]) -> RaterBand | None:
        """Band over the coefficients of arbitrary (rater, ratee) pairs."""
        keep = np.array(
            [(i, j) for i, j in pairs if i != j], dtype=np.int64
        ).reshape(-1, 2)
        return self._band(keep[:, 0], keep[:, 1])

    def _band(self, raters: np.ndarray, ratees: np.ndarray) -> RaterBand | None:
        if raters.size == 0:
            return None
        return RaterBand.from_values(self.pair_values(raters, ratees).tolist())


def weight_exponent(
    x: float,
    band: RaterBand,
    *,
    spread_floor: float = 1e-3,
) -> float:
    """The bell exponent ``(x - b)^2 / (2 c^2)`` of one dimension.

    This is the quantity the detector audit log lets you reconstruct per
    pair: a damping weight is ``alpha * exp(-sum of per-dimension
    exponents)``, so the exponent says *how far outside* the rater's
    normal band a coefficient sat.
    """
    c = max(float(band.spread), float(spread_floor))
    d = float(x) - float(band.center)
    return (d * d) / (2.0 * c * c)


def gaussian_weight(
    x: float,
    band: RaterBand,
    *,
    alpha: float = 1.0,
    spread_floor: float = 1e-3,
) -> float:
    """One-dimensional damping weight — Eq. (6)/(8).

    ``spread_floor`` bounds the bell width from below: a degenerate band
    (every observation identical) would otherwise send any deviation to
    weight zero and exact agreement to weight ``alpha``, making the filter
    a brittle equality test.
    """
    # Clamp below the float64 underflow knee so a damped weight stays
    # strictly positive (damping, not annihilation).
    exponent = weight_exponent(x, band, spread_floor=spread_floor)
    return float(alpha) * math.exp(-min(exponent, 700.0))


def combined_weight(
    closeness: float | None,
    closeness_band: RaterBand | None,
    similarity: float | None,
    similarity_band: RaterBand | None,
    *,
    alpha: float = 1.0,
    spread_floor: float = 1e-3,
) -> float:
    """Two-dimensional damping weight — Eq. (9).

    Either dimension may be disabled by passing ``None`` for its value/band
    pair, in which case the formula degenerates to the one-dimensional
    Eq. (6) or (8).  Disabling both is an error (there would be nothing to
    filter on).
    """
    exponent = 0.0
    used = False
    for x, band in ((closeness, closeness_band), (similarity, similarity_band)):
        if x is None or band is None:
            continue
        used = True
        exponent += weight_exponent(x, band, spread_floor=spread_floor)
    if not used:
        raise ValueError("at least one coefficient dimension must be provided")
    return float(alpha) * math.exp(-min(exponent, 700.0))
