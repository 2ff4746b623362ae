"""Tests for SocialTrustConfig validation."""

import numpy as np
import pytest

from repro.core.config import (
    CommonFriendAggregate,
    GaussianCenter,
    SocialTrustConfig,
)


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SocialTrustConfig()
        assert cfg.alpha == 1.0
        assert cfg.theta == 2.0
        assert cfg.hardened is True
        assert cfg.center is GaussianCenter.AUTO
        assert cfg.common_friend_aggregate is CommonFriendAggregate.MEAN
        assert cfg.use_closeness and cfg.use_similarity

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SocialTrustConfig().alpha = 2.0  # type: ignore[misc]


class TestValidation:
    def test_rejects_non_positive_alpha(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(alpha=0.0)

    def test_rejects_theta_below_one(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(theta=1.0)

    def test_rejects_negative_frequency_threshold(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(pos_frequency_threshold=-1.0)

    def test_rejects_bad_reputation_threshold(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(low_reputation_threshold=1.5)

    def test_rejects_inverted_closeness_band(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(closeness_low=0.9, closeness_high=0.1)

    def test_rejects_inverted_similarity_band(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(similarity_low=0.9, similarity_high=0.1)

    def test_rejects_lambda_outside_half_one(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(lambda_scaling=0.4)
        with pytest.raises(ValueError):
            SocialTrustConfig(lambda_scaling=1.1)

    def test_rejects_zero_band_size(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(min_band_size=0)

    def test_rejects_both_dimensions_disabled(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(use_closeness=False, use_similarity=False)

    def test_single_dimension_allowed(self):
        assert SocialTrustConfig(use_closeness=False).use_similarity

    def test_rejects_bad_spread_floor(self):
        with pytest.raises(ValueError):
            SocialTrustConfig(spread_floor=0.0)

    def test_explicit_thresholds_accepted(self):
        cfg = SocialTrustConfig(
            pos_frequency_threshold=5.0,
            neg_frequency_threshold=3.0,
            closeness_low=0.1,
            closeness_high=0.8,
            similarity_low=0.2,
            similarity_high=0.7,
            low_reputation_threshold=0.01,
        )
        assert cfg.pos_frequency_threshold == 5.0


class TestRetiredBackendSwitch:
    """``coefficient_backend`` selected the dense or sparse Ωc/Ωs classes;
    one computer per coefficient now picks its kernels from the world, so
    the value is accepted, selects nothing, and is not written back."""

    @pytest.mark.parametrize("value", ["dense", "sparse"])
    def test_accepted_and_not_written(self, value):
        cfg = SocialTrustConfig(coefficient_backend=value, alpha=0.5)
        assert cfg == SocialTrustConfig(alpha=0.5)
        assert "coefficient_backend" not in cfg.to_dict()
        old = {**cfg.to_dict(), "coefficient_backend": value}
        assert SocialTrustConfig(**old) == cfg

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="coefficient_backend"):
            SocialTrustConfig(coefficient_backend="gpu")

    def test_spec_carrying_it_runs_the_same_history(self):
        from repro.api import ScenarioSpec, build_scenario

        def history(socialtrust):
            spec = ScenarioSpec(
                system="EigenTrust+SocialTrust",
                collusion="pcm",
                seed=3,
                world=dict(
                    n_nodes=24,
                    n_pretrusted=2,
                    n_colluders=5,
                    n_interests=6,
                    interests_per_node=[1, 3],
                    query_cycles=3,
                    simulation_cycles=4,
                    socialtrust=socialtrust,
                ),
            )
            return build_scenario(spec).run().history

        want = history({"cache_rebuild_interval": 8})
        for value in ("sparse", "dense"):
            got = history({"cache_rebuild_interval": 8, "coefficient_backend": value})
            assert np.array_equal(got, want)
