"""Tests for the ``repro.api`` facade.

The facade promises two things: (1) one keyword-driven call assembles the
exact world that manual ``build_world`` wiring produces — same RNG stream,
so runs are bit-identical — and (2) the convenience accessors on
:class:`ScenarioResult` agree with the raw metrics they summarise.
"""

import numpy as np
import pytest

import repro
from repro.api import (
    Scenario,
    ScenarioResult,
    build_scenario,
    list_experiments,
    run_experiment,
    run_scenario,
)
from repro.experiments import CollusionKind, SystemKind, WorldConfig, build_world

SMALL = dict(
    n_nodes=24,
    n_pretrusted=2,
    n_colluders=6,
    n_interests=5,
    interests_per_node=(1, 3),
    simulation_cycles=2,
    query_cycles=4,
)


class TestBuildScenario:
    def test_matches_manual_build_world_bit_for_bit(self):
        manual = build_world(
            WorldConfig(
                collusion=CollusionKind.PCM,
                system=SystemKind.EIGENTRUST_SOCIALTRUST,
                **SMALL,
            ),
            seed=3,
        )
        manual_history = manual.simulation.run().reputation_history()
        result = run_scenario(
            collusion="pcm", system="EigenTrust+SocialTrust", seed=3, **SMALL
        )
        assert np.array_equal(result.history, manual_history)

    def test_string_enums_resolve(self):
        scenario = build_scenario(
            system="eigentrust", collusion="PCM", **SMALL
        )
        assert scenario.config.system is SystemKind.EIGENTRUST
        assert scenario.config.collusion is CollusionKind.PCM

    def test_use_socialtrust_upgrades_and_downgrades(self):
        up = build_scenario(system="eBay", use_socialtrust=True, **SMALL)
        assert up.config.system is SystemKind.EBAY_SOCIALTRUST
        down = build_scenario(
            system="PowerTrust+SocialTrust", use_socialtrust=False, **SMALL
        )
        assert down.config.system is SystemKind.POWERTRUST

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown reputation system"):
            build_scenario(system="PageRank", **SMALL)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unknown keyword"):
            build_scenario(n_peers=10)

    def test_retired_engine_keyword_rejected(self):
        with pytest.raises(TypeError, match="unknown keyword"):
            build_scenario(engine="scalar", **SMALL)

    def test_scenario_exposes_world_parts(self):
        scenario = build_scenario(**SMALL)
        assert isinstance(scenario, Scenario)
        assert scenario.simulation is scenario.world.simulation
        assert scenario.world.config is scenario.config


class TestScenarioResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(collusion="pcm", seed=1, **SMALL)

    def test_reputations_match_metrics(self, result):
        assert isinstance(result, ScenarioResult)
        assert np.array_equal(
            result.reputations, result.metrics.final_reputations()
        )
        assert result.history.shape == (SMALL["simulation_cycles"], SMALL["n_nodes"])

    def test_group_means_agree_with_raw_vector(self, result):
        reps = result.reputations
        assert result.colluder_mean == pytest.approx(
            reps[list(result.colluder_ids)].mean()
        )
        assert result.normal_mean == pytest.approx(
            reps[list(result.normal_ids)].mean()
        )

    def test_request_share_agrees_with_metrics(self, result):
        assert result.colluder_request_share == pytest.approx(
            result.metrics.fraction_served_by(list(result.colluder_ids))
        )

    def test_summary_mentions_the_cell(self, result):
        text = result.summary()
        assert "collusion=pcm" in text
        assert "seed=1" in text
        assert "colluder mean reputation" in text


class TestRegistryPassthrough:
    def test_list_experiments_nonempty(self):
        names = list_experiments()
        assert "fig8" in names

    def test_run_experiment_forwards_kwargs(self):
        result = run_experiment("fig1", seed=0)
        assert result.describe()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestTopLevelReexports:
    def test_repro_package_exposes_facade(self):
        assert repro.build_scenario is build_scenario
        assert repro.run_scenario is run_scenario
        assert repro.list_experiments is list_experiments
        for name in repro.__all__:
            assert hasattr(repro, name)
