"""Tests for the SocialTrust wrapper."""

import json

import numpy as np
import pytest

from repro.api import ScenarioSpec, build_scenario
from repro.chaos.checkpoint import decode_state, encode_state
from repro.core import SocialTrust
from repro.reputation import EBayModel, EigenTrust
from repro.reputation.base import IntervalRatings, Rating
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

N = 12
COLLUDERS = (0, 1)


def build(base=None, config=None):
    rng = spawn_rng(7, 0)
    network = paper_social_network(N, COLLUDERS, rng)
    interactions = InteractionLedger(N)
    profiles = InterestProfiles(N, 5)
    profiles.set_declared(0, {0})
    profiles.set_declared(1, {1})
    for i in range(2, N):
        profiles.set_declared(i, {2, 3, 4})
        profiles.record_request(i, 2, 2.0)
    base = base or EigenTrust(N, [2])
    st = SocialTrust(base, network, interactions, profiles, config)
    return st, base, interactions, profiles


def genuine_interval(interactions):
    """Each node rates its next four neighbours once (sparse background)."""
    iv = IntervalRatings(N)
    for i in range(N):
        for step in range(1, 5):
            j = (i + step) % N
            iv.add(Rating(i, j, 1.0))
            interactions.record(i, j)
    return iv


def collusion_interval(interactions, count=50):
    iv = genuine_interval(interactions)
    for a, b in [(0, 1), (1, 0)]:
        for _ in range(count):
            iv.add(Rating(a, b, 1.0))
        interactions.record(a, b, count)
    return iv


class TestWiring:
    def test_name_combines(self):
        st, base, _, _ = build()
        assert st.name == "EigenTrust+SocialTrust"

    def test_name_with_ebay(self):
        st, _, _, _ = build(base=EBayModel(N))
        assert st.name == "eBay+SocialTrust"

    def test_reputations_delegate_to_inner(self):
        st, base, _, _ = build()
        assert np.array_equal(st.reputations, base.reputations)

    def test_size_mismatch_rejected(self):
        rng = spawn_rng(7, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            SocialTrust(EigenTrust(N + 1, [0]), network, interactions, profiles)

    def test_last_detection_none_before_update(self):
        st, _, _, _ = build()
        assert st.last_detection is None


class TestUpdate:
    def test_clean_interval_passes_through(self):
        st, base, interactions, _ = build()
        reference = EigenTrust(N, [2])
        iv = genuine_interval(interactions)
        st.update(iv.copy())
        reference.update(iv)
        assert np.allclose(st.reputations, reference.reputations)
        assert st.last_detection.n_adjusted == 0

    def test_collusion_interval_adjusted(self):
        st, base, interactions, _ = build()
        reference = EigenTrust(N, [2])
        iv = collusion_interval(interactions)
        st.update(iv.copy())
        reference.update(iv)
        # The wrapped system saw damped colluder ratings.
        assert st.reputations[0] < reference.reputations[0]
        assert st.reputations[1] < reference.reputations[1]
        assert st.last_detection.n_adjusted > 0

    def test_rated_mask_accumulates(self):
        st, _, interactions, _ = build()
        st.update(genuine_interval(interactions))
        # Second interval has no ratings at all; bands still have history.
        st.update(IntervalRatings(N))
        assert st.last_detection.n_adjusted == 0

    def test_reset_clears_state(self):
        st, base, interactions, _ = build()
        st.update(collusion_interval(interactions))
        st.reset()
        assert st.last_detection is None
        assert np.all(base.local_trust == 0.0)

    def test_counts_preserved_through_scaling(self):
        st, _, interactions, _ = build()
        iv = collusion_interval(interactions)
        pos_before = iv.pos_counts.copy()
        st.update(iv)
        assert np.array_equal(iv.pos_counts, pos_before)


class TestRepeatedCollusion:
    def test_colluders_stay_suppressed_over_cycles(self):
        st, base, interactions, _ = build()
        reference = EigenTrust(N, [2])
        for _ in range(5):
            iv = collusion_interval(interactions)
            st.update(iv.copy())
            reference.update(iv)
        assert st.reputations[0] < 0.5 * reference.reputations[0]


class TestCheckpointKeepsLastDetection:
    """``state_dict`` carries the last detection, for both the centralised
    and the distributed (resource-manager) wrapper."""

    @staticmethod
    def spec(n_managers):
        return ScenarioSpec(
            system="EigenTrust+SocialTrust",
            collusion="pcm",
            seed=11,
            world=dict(
                n_nodes=20,
                n_pretrusted=2,
                n_colluders=4,
                n_interests=6,
                interests_per_node=[1, 3],
                capacity=10,
                query_cycles=3,
                simulation_cycles=4,
                n_managers=n_managers,
            ),
        )

    def run(self, n_managers):
        """(system after three cycles, its JSON round-tripped state, a
        fresh system of the same scenario)."""
        spec = self.spec(n_managers)
        simulation = build_scenario(spec).simulation
        for _ in range(3):
            simulation.run_simulation_cycle()
        system = simulation.system
        encoded = json.dumps(encode_state(system.state_dict()))
        state = decode_state(json.loads(encoded))
        fresh = build_scenario(spec).simulation.system
        return system, state, fresh

    @pytest.mark.parametrize("n_managers", [0, 3])
    def test_restore_reproduces_last_detection(self, n_managers):
        system, state, fresh = self.run(n_managers)
        before = system.last_detection
        assert before.findings, "scenario must damp a colluding pair"
        fresh.restore_state(state)
        after = fresh.last_detection
        assert after.findings == before.findings
        assert after.thresholds == before.thresholds
        np.testing.assert_array_equal(after.pairs, before.pairs)
        np.testing.assert_array_equal(after.weights, before.weights)

    @pytest.mark.parametrize("n_managers", [0, 3])
    def test_checkpoint_without_last_detection_loads(self, n_managers):
        _, state, fresh = self.run(n_managers)
        del state["last_detection"]
        fresh.restore_state(state)
        assert fresh.last_detection is None
