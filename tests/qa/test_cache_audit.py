"""Cache-vs-recompute audit: honest caches pass, corrupted caches fail."""

import numpy as np
import pytest

from repro.api import build_scenario
from repro.qa import assert_caches_consistent, audit_caches
from tests.core.kernels import force


@pytest.fixture(scope="module")
def run_system():
    scenario = build_scenario(
        seed=11,
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        n_nodes=24,
        n_pretrusted=2,
        n_colluders=5,
        n_interests=6,
        interests_per_node=(1, 3),
        query_cycles=4,
        simulation_cycles=4,
    )
    scenario.run(4)
    return scenario.world.system


class TestHonestCaches:
    def test_audit_passes_after_run(self, run_system):
        report = audit_caches(run_system)
        assert report.ok, report.summary()
        assert report.closeness_max_abs_diff <= 1e-9
        assert report.similarity_max_abs_diff <= 1e-9

    def test_assert_helper_returns_report(self, run_system):
        report = assert_caches_consistent(run_system)
        assert report.ok

    def test_summary_says_consistent(self, run_system):
        assert "CONSISTENT" in audit_caches(run_system).summary()


class TestCorruptedCaches:
    def _corrupt(self, system, delta: float):
        """Poison the live Ωc cache the way a bad incremental patch would."""
        computer = system.closeness_computer
        hacked = computer.closeness_matrix().copy()
        hacked[0, 1] += delta
        hacked.flags.writeable = False
        computer._cached_matrix = hacked

    def test_audit_detects_corruption(self, run_system):
        self._corrupt(run_system, 0.25)
        try:
            report = audit_caches(run_system)
            assert not report.ok
            assert report.n_closeness_mismatches == 1
            assert report.closeness_max_abs_diff == pytest.approx(0.25)
            assert "DIVERGED" in report.summary()
        finally:
            run_system.closeness_computer.invalidate_cache()

    def test_assert_helper_raises(self, run_system):
        self._corrupt(run_system, 0.25)
        try:
            with pytest.raises(AssertionError, match="DIVERGED"):
                assert_caches_consistent(run_system)
        finally:
            run_system.closeness_computer.invalidate_cache()

    def test_drift_below_tolerance_is_accepted(self, run_system):
        self._corrupt(run_system, 1e-13)
        try:
            assert audit_caches(run_system).ok
        finally:
            run_system.closeness_computer.invalidate_cache()


class TestChurnHeavyDrift:
    """Satellite regression: the incremental Ωc ``T2`` low-rank corrections
    plus the periodic exact rebuild (``cache_rebuild_interval``) must keep
    drift inside the audit tolerance over churn-heavy runs — the exact
    failure mode the T2 drift bug produced before the rebuild counter."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_drift_bounded_over_200_churn_steps(self, backend, monkeypatch):
        # "sparse": the two-hop Ωc layout and the Ωs row dot products,
        # forced (the spec's old backend switch selects nothing).
        if backend == "sparse":
            force(monkeypatch, "two-hop")
            force(monkeypatch, "row-dots")
        scenario = build_scenario(
            seed=29,
            system="EigenTrust+SocialTrust",
            collusion="pcm",
            n_nodes=16,
            n_pretrusted=2,
            n_colluders=3,
            n_interests=5,
            interests_per_node=(1, 3),
            query_cycles=2,
            simulation_cycles=2,
            socialtrust={
                "coefficient_backend": backend,
                "cache_rebuild_interval": 8,
            },
        )
        scenario.run(2)
        system = scenario.world.system
        ledger = system.closeness_computer.interactions
        rng = np.random.default_rng(29)
        for step in range(200):
            i, j = (int(v) for v in rng.integers(0, 16, 2))
            if i != j:
                ledger.record(i, j, float(rng.integers(1, 4)))
            if step % 3 == 0:
                ledger.decay_nodes(np.unique(rng.integers(0, 16, 3)), 0.5)
            # Re-evaluate every step so the cache stays on the dirty-row
            # incremental path instead of collapsing to one full rebuild.
            system.closeness_computer.closeness_matrix()
        report = assert_caches_consistent(system)
        assert report.closeness_max_abs_diff <= 1e-9


def test_audit_works_on_distributed_socialtrust():
    from repro.qa.fuzz import ManagerFuzzHarness

    harness = ManagerFuzzHarness(seed=5)
    harness.add_burst(3, 4, positive=True, count=5)
    harness.flush_interval()
    for report in (audit_caches(harness.central), audit_caches(harness.distributed)):
        assert report.ok, report.summary()


def test_fresh_system_has_consistent_caches():
    scenario = build_scenario(
        seed=0,
        system="EigenTrust+SocialTrust",
        n_nodes=12,
        n_pretrusted=1,
        n_colluders=2,
        n_interests=4,
        interests_per_node=(1, 3),
    )
    report = audit_caches(scenario.world.system)
    assert report.ok
    assert report.closeness_max_abs_diff == 0.0
