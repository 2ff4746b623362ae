"""Leave-one-out band edge cases in :func:`repro.core.detector._pair_bands`.

The pair band stage removes the judged pair from its rater's band via
per-rater segment reductions: ``bincount`` sums and a ``lexsort`` for the
extrema and runner-up extrema.  The constructions that historically go
wrong are pinned here directly against a brute-force per-pair reference:
a rater with a single rated peer (an empty leave-one-out set), duplicate
row maxima (the runner-up must equal the maximum), and the RATER / AUTO /
GLOBAL centring policies at the ``min_band_size`` edge.
"""

import numpy as np
import pytest

from repro.core.config import GaussianCenter, SocialTrustConfig
from repro.core.detector import _pair_bands


def pair_bands(coeffs, rated_mask, global_values, config):
    """Bands of every rated pair, as ``{(i, j): (center, spread)}``.

    Every rated pair is judged, and each rater's band covers all of its
    rated pairs — the kernel's layout, where the judged ratee is always
    in its rater's band.
    """
    rows, cols = np.nonzero(rated_mask)
    centers, spreads = _pair_bands(
        rows, coeffs[rows, cols], rows, coeffs[rows, cols], global_values, config
    )
    return {
        (int(i), int(j)): (c, s)
        for i, j, c, s in zip(rows, cols, centers, spreads)
    }


def brute_force(coeffs, rated_mask, global_values, config):
    """Per-pair python reference for the pair band stage."""
    if global_values.size:
        g_center = float(global_values.mean())
        g_spread = float(global_values.max() - global_values.min())
    else:
        g_center, g_spread = 0.0, 0.0
    out = {}
    for i, j in zip(*np.nonzero(rated_mask)):
        i, j = int(i), int(j)
        out[(i, j)] = (g_center, g_spread)
        if config.center is GaussianCenter.GLOBAL:
            continue
        rated = np.flatnonzero(rated_mask[i])
        loo = [coeffs[i, k] for k in rated if k != j]
        if not loo:
            continue
        if config.center is GaussianCenter.AUTO and len(loo) < config.min_band_size:
            continue
        out[(i, j)] = (sum(loo) / len(loo), max(loo) - min(loo))
    return out


def assert_matches_reference(coeffs, rated_mask, global_values, config):
    got = pair_bands(coeffs, rated_mask, global_values, config)
    want = brute_force(coeffs, rated_mask, global_values, config)
    assert got.keys() == want.keys()
    for pair, (want_c, want_s) in want.items():
        got_c, got_s = got[pair]
        assert got_c == pytest.approx(want_c, abs=1e-12, rel=0.0), pair
        assert got_s == pytest.approx(want_s, abs=1e-12, rel=0.0), pair
        assert np.isfinite(got_c) and np.isfinite(got_s), pair


GLOBAL_VALUES = np.array([0.2, 0.4, 0.9])


class TestSingleRatedPeer:
    """One rated peer: the LOO set for that pair is empty, so its band must
    fall back (RATER/AUTO → global) and never read a neighbouring rater's
    values; two rated peers leave a single-element band."""

    def setup_method(self):
        self.n = 4
        self.coeffs = np.array(
            [
                [0.0, 0.7, 0.1, 0.3],
                [0.2, 0.0, 0.5, 0.6],
                [0.9, 0.8, 0.0, 0.4],
                [0.3, 0.1, 0.2, 0.0],
            ]
        )
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        self.rated[0, 1] = True  # rater 0 rated exactly one node
        self.rated[1, [2, 3]] = True  # rater 1 rated two

    @pytest.mark.parametrize("center", ["rater", "auto", "global"])
    def test_matches_reference_without_inf_leak(self, center):
        config = SocialTrustConfig(center=center)
        assert_matches_reference(self.coeffs, self.rated, GLOBAL_VALUES, config)

    def test_judged_pair_falls_back_to_global(self):
        config = SocialTrustConfig(center="rater")
        bands = pair_bands(self.coeffs, self.rated, GLOBAL_VALUES, config)
        # (0, 1) has an empty LOO set → global band.
        assert bands[(0, 1)][0] == pytest.approx(GLOBAL_VALUES.mean())
        assert bands[(0, 1)][1] == pytest.approx(0.7)
        # (1, 2) keeps the single-element band {coeffs[1, 3]}, spread 0.
        assert bands[(1, 2)] == (pytest.approx(0.6), 0.0)


class TestDuplicateExtrema:
    """Two rated peers sharing the row maximum (or minimum): removing one
    must leave the extremum in place — the sorted runner-up equals it."""

    def setup_method(self):
        self.n = 5
        self.coeffs = np.zeros((self.n, self.n))
        # rater 0 rated 1..4 with a duplicated max and duplicated min.
        self.coeffs[0, 1:] = [0.9, 0.9, 0.1, 0.1]
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        self.rated[0, 1:] = True

    @pytest.mark.parametrize("center", ["rater", "auto"])
    def test_matches_reference(self, center):
        config = SocialTrustConfig(center=center)
        assert_matches_reference(self.coeffs, self.rated, GLOBAL_VALUES, config)

    def test_removing_one_duplicate_keeps_spread(self):
        config = SocialTrustConfig(center="rater")
        bands = pair_bands(self.coeffs, self.rated, GLOBAL_VALUES, config)
        # Dropping either duplicate still leaves 0.9 - 0.1 on the table.
        for j in (1, 2, 3, 4):
            assert bands[(0, j)][1] == pytest.approx(0.8)


class TestCenterPolicyAtMinBandSize:
    """AUTO trusts a rater's own band only at ``loo_size >= min_band_size``;
    RATER trusts any non-empty band; GLOBAL never does."""

    def setup_method(self):
        self.n = 6
        rng = np.random.default_rng(7)
        self.coeffs = rng.random((self.n, self.n))
        np.fill_diagonal(self.coeffs, 0.0)
        self.rated = np.zeros((self.n, self.n), dtype=bool)
        # rater 0 rated exactly min_band_size nodes → its judged pairs have
        # loo_size = min_band_size - 1 (AUTO: global); rater 1 rated one
        # more, so its pairs have loo_size = min_band_size (AUTO: own band).
        self.rated[0, 1:4] = True
        self.rated[1, 2:6] = True

    @pytest.mark.parametrize("center", ["rater", "auto", "global"])
    def test_matches_reference(self, center):
        config = SocialTrustConfig(center=center, min_band_size=3)
        assert_matches_reference(self.coeffs, self.rated, GLOBAL_VALUES, config)

    def test_auto_splits_on_the_boundary(self):
        config = SocialTrustConfig(center="auto", min_band_size=3)
        bands = pair_bands(self.coeffs, self.rated, GLOBAL_VALUES, config)
        g_center = GLOBAL_VALUES.mean()
        # Rater 0: LOO size 2 < 3 → global.
        assert bands[(0, 1)][0] == pytest.approx(g_center)
        # Rater 1: LOO size 3 → the rater's own mean without the judged pair.
        own = self.coeffs[1, 3:6].mean()
        assert bands[(1, 2)][0] == pytest.approx(own)
        # RATER accepts the size-2 band AUTO rejected.
        rater_bands = pair_bands(
            self.coeffs, self.rated, GLOBAL_VALUES,
            SocialTrustConfig(center="rater", min_band_size=3),
        )
        loo = [self.coeffs[0, k] for k in (2, 3)]
        assert rater_bands[(0, 1)][0] == pytest.approx(np.mean(loo))

    def test_empty_global_values_fall_back_to_zero(self):
        config = SocialTrustConfig(center="auto", min_band_size=3)
        bands = pair_bands(self.coeffs, self.rated, np.array([]), config)
        assert bands[(0, 1)] == (0.0, 0.0)
