"""Tests for the distributed resource-manager execution path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedSocialTrust, SocialTrust
from repro.core.manager import ResourceManager
from repro.faults import FaultConfig, FaultInjector
from repro.obs import Observability
from repro.p2p import ChordRing
from repro.reputation import EigenTrust
from repro.reputation.base import IntervalRatings, Rating
from repro.social import InteractionLedger, InterestProfiles
from repro.social.generators import paper_social_network
from repro.utils.rng import spawn_rng

N = 12
COLLUDERS = (0, 1)


def build_pair(n_managers=3, observability=None):
    """A centralised and a distributed SocialTrust over identical state."""
    rng = spawn_rng(11, 0)
    network = paper_social_network(N, COLLUDERS, rng)
    interactions = InteractionLedger(N)
    profiles = InterestProfiles(N, 5)
    profiles.set_declared(0, {0})
    profiles.set_declared(1, {1})
    for i in range(2, N):
        profiles.set_declared(i, {2, 3, 4})
        profiles.record_request(i, 2, 2.0)
    central = SocialTrust(EigenTrust(N, [2]), network, interactions, profiles)
    distributed = DistributedSocialTrust(
        EigenTrust(N, [2]),
        network,
        interactions,
        profiles,
        n_managers=n_managers,
        observability=observability,
    )
    return central, distributed, interactions


def collusion_interval(interactions, count=50):
    iv = IntervalRatings(N)
    for i in range(N):
        for j in range(N):
            if i != j:
                iv.add(Rating(i, j, 1.0))
                interactions.record(i, j)
    for a, b in [(0, 1), (1, 0)]:
        for _ in range(count):
            iv.add(Rating(a, b, 1.0))
        interactions.record(a, b, count)
    return iv


class TestEquivalence:
    def test_identical_reputations(self):
        central, distributed, interactions = build_pair()
        for _ in range(3):
            iv = collusion_interval(interactions)
            central.update(iv.copy())
            distributed.update(iv)
        assert np.allclose(central.reputations, distributed.reputations)

    def test_identical_findings(self):
        central, distributed, interactions = build_pair()
        iv = collusion_interval(interactions)
        central.update(iv.copy())
        distributed.update(iv)
        c = {(f.rater, f.ratee) for f in central.last_detection.findings}
        d = {(f.rater, f.ratee) for f in distributed.last_detection.findings}
        assert c == d


class TestOneSocialTrust:
    """The distributed wrapper is a SocialTrust that overrides only the
    adjustment step, so the inherited API answers as the central one."""

    def test_is_a_socialtrust(self):
        _, distributed, _ = build_pair()
        assert isinstance(distributed, SocialTrust)

    def test_flag_counts_and_last_detection_match_central(self):
        central, distributed, interactions = build_pair()
        for _ in range(3):
            iv = collusion_interval(interactions)
            central.update(iv.copy())
            distributed.update(iv)
        assert np.array_equal(distributed.flag_counts, central.flag_counts)
        assert central.flag_counts.any()
        c, d = central.last_detection, distributed.last_detection
        assert d.findings == c.findings
        assert c.findings
        assert np.array_equal(d.pairs, c.pairs)
        assert np.array_equal(d.pair_weights, c.pair_weights)
        assert d.thresholds == c.thresholds

    def test_traced_update_spans_in_order_under_one_parent(self):
        obs = Observability()
        _, distributed, interactions = build_pair(observability=obs)
        with obs.tracer.span("interval") as outer:
            distributed.update(collusion_interval(interactions))
        names = ("detector.analyze", "manager.failover_weights",
                 "reputation.inner_update")
        spans = [e for e in obs.tracer.events() if e["name"] in names]
        assert [e["name"] for e in spans] == list(names)
        assert {e["parent_id"] for e in spans} == {outer.span_id}
        starts = [e["start"] for e in spans]
        assert starts == sorted(starts)

    def test_fault_free_adjust_is_the_central_one(self):
        """No injector: the managers apply the detector's weights at the
        flagged pairs, bit for bit the central wrapper, and keep no dense
        weight matrix for a Byzantine replay that cannot happen."""
        central, distributed, interactions = build_pair()
        for _ in range(3):
            iv = collusion_interval(interactions)
            central.update(iv.copy())
            distributed.update(iv)
            assert np.array_equal(distributed.reputations, central.reputations)
        assert distributed.last_detection.n_adjusted
        assert distributed.total_messages > 0
        assert distributed.state_dict()["last_weights"] is None

    def test_state_dict_keys(self):
        _, distributed, interactions = build_pair()
        distributed.update(collusion_interval(interactions))
        assert set(distributed.state_dict()) == {
            "inner", "detector", "last_detection", "rated", "flags",
            "last_weights", "messages", "closeness", "similarity",
        }


class TestAssignment:
    @pytest.mark.parametrize(
        "mismatched",
        [("view",), ("ledger",), ("profiles",), ("view", "ledger", "profiles")],
        ids=["view", "ledger", "profiles", "all"],
    )
    def test_rejects_world_of_another_size(self, mismatched):
        """The base system's node count must match every world part, as
        for the central wrapper.  A world wholly of another size used to
        be accepted and fail only at the first update, on the weight
        matrix's shape."""
        n = 20
        sizes = {"view": n, "ledger": n, "profiles": n}
        sizes.update(dict.fromkeys(mismatched, 30))
        network = paper_social_network(sizes["view"], COLLUDERS, spawn_rng(11, 0))
        with pytest.raises(ValueError, match="covers 30 nodes but the base system has 20"):
            DistributedSocialTrust(
                EigenTrust(n, [2]),
                network,
                InteractionLedger(sizes["ledger"]),
                InterestProfiles(sizes["profiles"], 5),
                n_managers=2,
            )

    def test_round_robin_default(self):
        _, distributed, _ = build_pair(n_managers=4)
        assert len(distributed.managers) == 4
        assert distributed.manager_of(0).manager_id == 0
        assert distributed.manager_of(5).manager_id == 1

    def test_explicit_assignment(self):
        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        assignment = [0] * 6 + [1] * 6
        dist = DistributedSocialTrust(
            EigenTrust(N, [2]),
            network,
            interactions,
            profiles,
            assignment=assignment,
        )
        assert dist.manager_of(0).manager_id == 0
        assert dist.manager_of(11).manager_id == 1
        assert dist.manager_of(3) is dist.manager_of(5)

    def test_rejects_bad_assignment_shape(self):
        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            DistributedSocialTrust(
                EigenTrust(N, [2]),
                network,
                interactions,
                profiles,
                assignment=[0, 1],
            )

    def test_dht_assignment_integration(self):
        """A Chord ring supplies the node -> manager responsibility map."""
        from repro.p2p import ChordRing

        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        ring = ChordRing(range(4))
        dist = DistributedSocialTrust(
            EigenTrust(N, [2]),
            network,
            interactions,
            profiles,
            assignment=ring.assignment(N),
        )
        for node in range(N):
            assert dist.manager_of(node).manager_id == ring.manager_for(node)

    def test_rejects_zero_managers(self):
        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            DistributedSocialTrust(
                EigenTrust(N, [2]), network, interactions, profiles, n_managers=0
            )


class TestMessageAccounting:
    def test_cross_manager_traffic_counted(self):
        _, distributed, interactions = build_pair(n_managers=3)
        distributed.update(collusion_interval(interactions))
        assert distributed.total_messages > 0
        kinds = set()
        for manager in distributed.managers:
            kinds |= set(manager.messages_sent)
        assert "rating_report" in kinds

    def test_info_round_trips_for_cross_manager_findings(self):
        _, distributed, interactions = build_pair(n_managers=2)
        # Colluders 0 and 1 land on different managers (round robin).
        distributed.update(collusion_interval(interactions))
        requests = sum(
            m.messages_sent.get("info_request", 0) for m in distributed.managers
        )
        responses = sum(
            m.messages_sent.get("info_response", 0) for m in distributed.managers
        )
        assert requests == responses
        assert requests > 0

    def test_single_manager_no_info_traffic(self):
        _, distributed, interactions = build_pair(n_managers=1)
        distributed.update(collusion_interval(interactions))
        assert all(
            m.messages_sent.get("info_request", 0) == 0
            and m.messages_sent.get("rating_report", 0) == 0
            for m in distributed.managers
        )

    def test_reset_clears_messages(self):
        _, distributed, interactions = build_pair()
        distributed.update(collusion_interval(interactions))
        distributed.reset()
        assert distributed.total_messages == 0

    def test_name(self):
        _, distributed, _ = build_pair()
        assert "distributed" in distributed.name


class TestRecordMessage:
    def test_zero_count_leaves_no_counter_row(self):
        """Recording zero messages must not materialise a Counter key —
        zero-count rows would skew message-kind enumeration in reports."""
        manager = ResourceManager(manager_id=0, managed=frozenset({0}))
        manager.record_message("rating_report", 0)
        assert "rating_report" not in manager.messages_sent
        assert manager.total_messages == 0

    def test_negative_count_rejected(self):
        manager = ResourceManager(manager_id=0, managed=frozenset({0}))
        with pytest.raises(ValueError):
            manager.record_message("rating_report", -1)

    def test_positive_counts_accumulate(self):
        manager = ResourceManager(manager_id=0, managed=frozenset({0}))
        manager.record_message("info_request")
        manager.record_message("info_request", 3)
        assert manager.messages_sent["info_request"] == 4


def random_interval(rng, interactions, n_ratings=120):
    """A random rating interval (with matching interaction records)."""
    iv = IntervalRatings(N)
    raters = rng.integers(0, N, size=n_ratings)
    ratees = rng.integers(0, N, size=n_ratings)
    values = rng.random(n_ratings)
    for rater, ratee, value in zip(raters, ratees, values):
        if rater != ratee:
            iv.add(Rating(int(rater), int(ratee), float(value)))
            interactions.record(int(rater), int(ratee))
    return iv


class TestEquivalenceProperty:
    """Satellite of the fault-injection PR: the distributed execution is
    bit-identical to the centralised one for *any* seed and manager
    count — including when a zero-rate fault injector is attached."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_managers=st.integers(min_value=1, max_value=8),
    )
    def test_identical_for_any_seed_and_manager_count(self, seed, n_managers):
        rng = spawn_rng(seed, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        central_led = InteractionLedger(N)
        dist_led = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, set(map(int, rng.integers(0, 5, size=2))))
        central = SocialTrust(
            EigenTrust(N, [2]), network, central_led, profiles
        )
        distributed = DistributedSocialTrust(
            EigenTrust(N, [2]),
            network,
            dist_led,
            profiles,
            n_managers=n_managers,
        )
        interval_rng = spawn_rng(seed, 1)
        for _ in range(2):
            state = interval_rng.bit_generator.state
            central.update(random_interval(interval_rng, central_led))
            interval_rng.bit_generator.state = state
            distributed.update(random_interval(interval_rng, dist_led))
            assert np.array_equal(central.reputations, distributed.reputations)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_zero_rate_injector_is_bit_identical(self, seed):
        """Attaching an inert injector must not move a single bit."""
        rng = spawn_rng(seed, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        plain_led = InteractionLedger(N)
        faulty_led = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0, 1})
        ring = ChordRing(range(3))
        plain = DistributedSocialTrust(
            EigenTrust(N, [2]),
            network,
            plain_led,
            profiles,
            assignment=ring.assignment(N),
        )
        injector = FaultInjector(
            N, config=FaultConfig(), rng=spawn_rng(seed, 99)
        )
        faulty = DistributedSocialTrust(
            EigenTrust(N, [2]),
            network,
            faulty_led,
            profiles,
            assignment=ring.assignment(N),
            ring=ring,
            injector=injector,
        )
        interval_rng = spawn_rng(seed, 1)
        for _ in range(2):
            state = interval_rng.bit_generator.state
            plain.update(random_interval(interval_rng, plain_led))
            interval_rng.bit_generator.state = state
            faulty.update(random_interval(interval_rng, faulty_led))
        assert np.array_equal(plain.reputations, faulty.reputations)
        assert injector.metrics.summary()["losses"] == 0
        assert injector.metrics.fallbacks == 0


def build_faulty(n_managers=3, faults=None, seed=11, assignment=None):
    """A distributed system with an injector attached, plus its parts.

    ``assignment=None`` uses the Chord-ring responsibility map; tests that
    need specific nodes under specific managers pass one explicitly (it
    must only use manager ids on the ring).
    """
    rng = spawn_rng(seed, 0)
    network = paper_social_network(N, COLLUDERS, rng)
    interactions = InteractionLedger(N)
    profiles = InterestProfiles(N, 5)
    profiles.set_declared(0, {0})
    profiles.set_declared(1, {1})
    for i in range(2, N):
        profiles.set_declared(i, {2, 3, 4})
        profiles.record_request(i, 2, 2.0)
    ring = ChordRing(range(n_managers))
    injector = FaultInjector(
        N,
        config=faults or FaultConfig(),
        rng=spawn_rng(seed, 0xFA),
    )
    distributed = DistributedSocialTrust(
        EigenTrust(N, [2]),
        network,
        interactions,
        profiles,
        assignment=ring.assignment(N) if assignment is None else assignment,
        ring=ring,
        injector=injector,
    )
    return distributed, injector, interactions, ring


class TestFailover:
    def test_crash_reassigns_to_ring_successor(self):
        distributed, injector, interactions, ring = build_faulty(n_managers=4)
        victim = distributed.manager_of(0).manager_id
        assert distributed.effective_manager_of(0).manager_id == victim
        injector.fail_manager(victim)
        serving = distributed.effective_manager_of(0)
        assert serving is not None
        assert serving.manager_id != victim
        # The failover target is the first *live* ring successor.
        expected = ring.successor_of(victim)
        while expected in injector.down_managers():
            expected = ring.successor_of(expected)
        assert serving.manager_id == expected

    def test_update_under_crash_records_reassignments(self):
        distributed, injector, interactions, _ = build_faulty(n_managers=4)
        victim = distributed.manager_of(0).manager_id
        injector.fail_manager(victim)
        distributed.update(collusion_interval(interactions))
        n_victim_nodes = len(distributed.manager_of(0).managed)
        assert injector.metrics.reassignments >= n_victim_nodes

    def test_recovery_restores_home_manager(self):
        distributed, injector, _, _ = build_faulty(n_managers=4)
        victim = distributed.manager_of(0).manager_id
        injector.fail_manager(victim)
        injector.restore_manager(victim)
        assert distributed.effective_manager_of(0).manager_id == victim

    def test_unreachable_info_falls_back_to_neutral_damping(self):
        """A suspected cross-manager pair whose info round-trip fails gets
        the conservative neutral weight, not full trust or erasure."""
        lossy = FaultConfig(
            message_loss_rate=1.0, max_retries=1, timeout_budget=100.0
        )
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2,
            faults=lossy,
            # Alternating assignment puts colluders 0 and 1 under
            # different managers, forcing info round trips.
            assignment=[i % 2 for i in range(N)],
        )
        for _ in range(3):
            distributed.update(collusion_interval(interactions))
        result = distributed.last_detection
        assert result is not None and result.findings
        cross = [
            f
            for f in result.findings
            if distributed.manager_of(f.rater).manager_id
            != distributed.manager_of(f.ratee).manager_id
        ]
        assert cross, "need at least one cross-manager finding"
        assert injector.metrics.fallbacks >= len(cross)
        assert injector.metrics.total_timeouts > 0

    def test_all_managers_down_every_finding_neutral(self):
        distributed, injector, interactions, _ = build_faulty(n_managers=2)
        # Prime findings fault-free first.
        distributed.update(collusion_interval(interactions))
        for manager in distributed.managers:
            injector.fail_manager(manager.manager_id)
        assert distributed.effective_manager_of(0) is None
        before = injector.metrics.fallbacks
        distributed.update(collusion_interval(interactions))
        result = distributed.last_detection
        assert result is not None and result.findings
        assert injector.metrics.fallbacks - before == len(result.findings)

    def test_neutral_damping_dampens_but_keeps_ratings(self):
        """Under total loss the colluders' mutual ratings are damped to the
        neutral weight — reputations sit between the fault-free adjusted
        run and a run with no detection at all."""
        lossy = FaultConfig(
            message_loss_rate=1.0, max_retries=0, timeout_budget=100.0
        )
        damped, _, led_damped, _ = build_faulty(n_managers=2, faults=lossy)
        clean, _, led_clean, _ = build_faulty(n_managers=2)
        for _ in range(2):
            damped.update(collusion_interval(led_damped))
            clean.update(collusion_interval(led_clean))
        colluder_damped = damped.reputations[list(COLLUDERS)].sum()
        colluder_clean = clean.reputations[list(COLLUDERS)].sum()
        # Neutral damping (0.5) suppresses collusion less than the full
        # detector weight but still applies the detector's row adjustments.
        assert colluder_damped >= colluder_clean

    def test_injector_size_mismatch_rejected(self):
        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            DistributedSocialTrust(
                EigenTrust(N, [2]),
                network,
                interactions,
                profiles,
                n_managers=2,
                injector=FaultInjector(N + 1),
            )

    def test_ring_must_cover_assignment(self):
        rng = spawn_rng(11, 0)
        network = paper_social_network(N, COLLUDERS, rng)
        interactions = InteractionLedger(N)
        profiles = InterestProfiles(N, 5)
        for i in range(N):
            profiles.set_declared(i, {0})
        with pytest.raises(ValueError):
            DistributedSocialTrust(
                EigenTrust(N, [2]),
                network,
                interactions,
                profiles,
                assignment=[5] * N,
                ring=ChordRing(range(3)),
            )


def capture_ingested(system):
    """Record a copy of every ``value_sum`` the inner system ingests."""
    seen = []
    update = system.inner.update

    def recording_update(interval):
        seen.append(interval.value_sum.copy())
        return update(interval)

    system.inner.update = recording_update
    return seen


def mixed_interval(rng, interactions):
    """A random interval (about 60 % of the pairs rated) plus the
    colluders' mutual high-frequency ratings."""
    iv = random_interval(rng, interactions)
    for a, b in [(0, 1), (1, 0)]:
        for _ in range(50):
            iv.add(Rating(a, b, 1.0))
        interactions.record(a, b, 50)
    return iv


class TestAppliedWeights:
    """The interval the inner system ingests under manager faults, against
    a dense weight matrix built here the way the protocol describes it."""

    @pytest.mark.parametrize("mode", ["suppress", "stale", "corrupt"])
    def test_byzantine_rows_match_dense_reference(self, mode):
        # Two managers, alternating: manager 0 serves the even nodes
        # (colluder 0 among them) and lies from the second interval on.
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2,
            faults=FaultConfig(byzantine_mode=mode),
            assignment=[i % 2 for i in range(N)],
        )
        ingested = capture_ingested(distributed)
        neutral = distributed.config.neutral_damping
        rows = sorted(distributed.manager_of(0).managed)
        rng = spawn_rng(5, 1)
        last = None
        lied = 0
        for step in range(4):
            if step == 1:
                injector.make_byzantine(0)
            iv = mixed_interval(rng, interactions)
            distributed.update(iv)
            result = distributed.last_detection
            assert result.n_adjusted
            weights = result.weights.copy()
            if step >= 1:
                if mode == "suppress":
                    weights[rows, :] = 1.0
                elif mode == "stale":
                    weights[rows, :] = last[rows, :]
                else:
                    sub = weights[rows, :]
                    sub[iv.counts[rows, :] > 0] = neutral
                    weights[rows, :] = sub
                lied += not np.array_equal(
                    iv.value_sum * weights, iv.value_sum * result.weights
                )
            assert np.array_equal(ingested[-1], iv.value_sum * weights)
            last = weights
        assert lied == 3
        assert injector.metrics.byzantine_corruptions == 3 * len(rows)

    def test_stale_without_history_applies_no_damping(self):
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2,
            faults=FaultConfig(byzantine_mode="stale"),
            assignment=[i % 2 for i in range(N)],
        )
        ingested = capture_ingested(distributed)
        injector.make_byzantine(0)
        iv = mixed_interval(spawn_rng(5, 1), interactions)
        distributed.update(iv)
        weights = distributed.last_detection.weights.copy()
        weights[sorted(distributed.manager_of(0).managed), :] = 1.0
        assert np.array_equal(ingested[-1], iv.value_sum * weights)

    def test_all_managers_down_applies_neutral_at_every_finding(self):
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2, faults=FaultConfig(byzantine_mode="corrupt")
        )
        ingested = capture_ingested(distributed)
        rng = spawn_rng(5, 1)
        distributed.update(mixed_interval(rng, interactions))
        for manager in distributed.managers:
            injector.fail_manager(manager.manager_id)
        # A Byzantine manager that is down serves no rows.
        injector.make_byzantine(distributed.managers[0].manager_id)
        iv = mixed_interval(rng, interactions)
        distributed.update(iv)
        result = distributed.last_detection
        assert result.n_adjusted
        weights = np.ones((N, N))
        weights[result.pairs[:, 0], result.pairs[:, 1]] = (
            distributed.config.neutral_damping
        )
        assert np.array_equal(ingested[-1], iv.value_sum * weights)
        assert injector.metrics.byzantine_corruptions == 0

    def test_lost_round_trips_apply_neutral_at_cross_manager_findings(self):
        lossy = FaultConfig(message_loss_rate=1.0, max_retries=0)
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2, faults=lossy, assignment=[i % 2 for i in range(N)]
        )
        ingested = capture_ingested(distributed)
        iv = mixed_interval(spawn_rng(5, 1), interactions)
        distributed.update(iv)
        result = distributed.last_detection
        weights = result.weights.copy()
        cross = [(i, j) for i, j in result.pairs.tolist() if i % 2 != j % 2]
        assert cross
        for i, j in cross:
            weights[i, j] = distributed.config.neutral_damping
        assert np.array_equal(ingested[-1], iv.value_sum * weights)
        assert injector.metrics.fallbacks == len(cross)

    def test_partition_skips_cross_side_findings(self):
        distributed, injector, interactions, _ = build_faulty(
            n_managers=2, assignment=[i % 2 for i in range(N)]
        )
        ingested = capture_ingested(distributed)
        # Managers 0 and 1 are hosted on peers 0 and 1: opposite sides.
        injector.start_partition(np.arange(N) % 2 == 0)
        iv = mixed_interval(spawn_rng(5, 1), interactions)
        distributed.update(iv)
        result = distributed.last_detection
        weights = result.weights.copy()
        cross = [(i, j) for i, j in result.pairs.tolist() if i % 2 != j % 2]
        assert cross
        for i, j in cross:
            weights[i, j] = 1.0
        assert np.array_equal(ingested[-1], iv.value_sum * weights)
