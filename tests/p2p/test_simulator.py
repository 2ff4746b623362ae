"""Tests for the discrete-cycle simulation engine."""

import numpy as np
import pytest

from repro.collusion import PairwiseCollusion
from repro.faults import FaultConfig, FaultInjector
from repro.p2p import (
    InterestOverlay,
    Population,
    Simulation,
    SimulationConfig,
)
from repro.reputation import EBayModel, EigenTrust
from repro.utils.rng import spawn_rng

N = 20
N_INTERESTS = 6


def build_sim(
    seed=3, collusion=None, cycles=2, system=None, fault_injector=None, **cfg_kw
):
    rng = spawn_rng(seed, 0)
    pop = Population.build(
        N,
        rng,
        pretrusted_ids=[0],
        malicious_ids=[1, 2],
        n_interests=N_INTERESTS,
        interests_per_node=(1, 3),
        capacity=10,
        malicious_authentic_prob=0.2,
    )
    overlay = InterestOverlay([s.interests for s in pop], N_INTERESTS)
    system = system or EigenTrust(N, [0])
    config = SimulationConfig(
        simulation_cycles=cycles,
        query_cycles_per_simulation_cycle=5,
        **cfg_kw,
    )
    sim = Simulation(
        pop,
        overlay,
        system,
        rng,
        config=config,
        collusion=collusion,
        fault_injector=fault_injector,
    )
    return sim, system


class TestConstruction:
    def test_profiles_autobuilt_from_population(self):
        sim, _ = build_sim()
        assert sim.profiles.declared(0) == sim.population[0].interests

    def test_size_mismatch_rejected(self):
        rng = spawn_rng(3, 0)
        pop = Population.build(
            N, rng, n_interests=N_INTERESTS, interests_per_node=(1, 3)
        )
        overlay = InterestOverlay([s.interests for s in pop], N_INTERESTS)
        with pytest.raises(ValueError):
            Simulation(pop, overlay, EigenTrust(N + 1), rng)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(simulation_cycles=0)
        with pytest.raises(ValueError):
            SimulationConfig(query_cycles_per_simulation_cycle=0)
        with pytest.raises(ValueError):
            SimulationConfig(selection_exploration=2.0)


class TestRun:
    def test_cycles_counted(self):
        sim, _ = build_sim(cycles=3)
        sim.run()
        assert sim.cycles_run == 3
        assert sim.metrics.n_snapshots == 3

    def test_run_override(self):
        sim, _ = build_sim(cycles=5)
        sim.run(2)
        assert sim.cycles_run == 2

    def test_run_rejects_zero(self):
        sim, _ = build_sim()
        with pytest.raises(ValueError):
            sim.run(0)

    def test_requests_recorded(self):
        sim, _ = build_sim()
        sim.run()
        assert sim.metrics.total_requests > 0

    def test_interactions_track_requests(self):
        sim, _ = build_sim()
        sim.run()
        assert sim.interactions.counts_matrix().sum() == sim.metrics.total_served

    def test_profiles_track_requests(self):
        sim, _ = build_sim()
        sim.run()
        assert sim.profiles.summary()["total_requests"] == sim.metrics.total_served

    def test_reputations_updated_per_cycle(self):
        sim, system = build_sim(cycles=1)
        sim.run()
        assert system.reputations.sum() == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        a, _ = build_sim(seed=9)
        b, _ = build_sim(seed=9)
        ra = a.run().final_reputations()
        rb = b.run().final_reputations()
        assert np.allclose(ra, rb)

    def test_different_seeds_differ(self):
        a, _ = build_sim(seed=9)
        b, _ = build_sim(seed=10)
        assert not np.allclose(
            a.run().final_reputations(), b.run().final_reputations()
        )


class TestCollusionIntegration:
    def _interests(self, seed=3):
        rng = spawn_rng(seed, 0)
        pop = Population.build(
            N,
            rng,
            pretrusted_ids=[0],
            malicious_ids=[1, 2],
            n_interests=N_INTERESTS,
            interests_per_node=(1, 3),
            capacity=10,
            malicious_authentic_prob=0.2,
        )
        return [s.interests for s in pop]

    def test_bursts_reach_ledgers(self):
        schedule = PairwiseCollusion(
            [1, 2], self._interests(), ratings_per_cycle=7
        )
        sim, _ = build_sim(collusion=schedule, cycles=1)
        sim.run()
        # 5 query cycles x 7 ratings in each direction.
        assert sim.interactions.frequency(1, 2) >= 35

    def test_bursts_do_not_count_as_requests(self):
        schedule = PairwiseCollusion(
            [1, 2], self._interests(), ratings_per_cycle=7
        )
        sim, _ = build_sim(collusion=schedule, cycles=1)
        sim.run()
        # Request counters only track genuine service requests.
        assert sim.profiles.summary()["total_requests"] == sim.metrics.total_served

    def test_collusion_boosts_under_plain_eigentrust(self):
        interests = self._interests()
        plain_sim, _ = build_sim(cycles=4)
        plain = plain_sim.run().final_reputations()
        colluding_sim, _ = build_sim(
            collusion=PairwiseCollusion([1, 2], interests, ratings_per_cycle=20),
            cycles=4,
        )
        colluding = colluding_sim.run().final_reputations()
        assert colluding[[1, 2]].sum() > plain[[1, 2]].sum()


class TestEBaySimulation:
    def test_runs_with_ebay(self):
        sim, system = build_sim(system=EBayModel(N), cycles=2)
        sim.run()
        assert system.intervals_seen == 2


class TestChurn:
    def test_offline_peers_issue_and_serve_nothing(self):
        injector = FaultInjector(N)
        offline = [4, 5, 6]
        for node in offline:
            injector.fail_peer(node)
        sim, _ = build_sim(fault_injector=injector, cycles=2)
        sim.run()
        assert sim.metrics.served_by(offline) == 0
        # No outgoing interactions either: offline peers issue no requests
        # (row sums of the interaction ledger stay zero).
        for node in offline:
            assert sim.interactions.total_out(node) == 0.0

    def test_offline_colluders_stop_rating_bursts(self):
        interests = [
            sorted(spec.interests) for spec in build_sim()[0].population
        ]
        injector = FaultInjector(N)
        injector.fail_peer(1)
        sim, _ = build_sim(
            collusion=PairwiseCollusion([1, 2], interests, ratings_per_cycle=7),
            fault_injector=injector,
            cycles=1,
        )
        sim.run()
        assert sim.interactions.frequency(1, 2) == 0.0
        assert sim.interactions.frequency(2, 1) == 0.0

    def test_ledger_rows_age_out_while_offline(self):
        injector = FaultInjector(
            N, config=FaultConfig(offline_decay=0.5)
        )
        sim, _ = build_sim(fault_injector=injector, cycles=4)
        sim.run_simulation_cycle()
        node = int(np.argmax(sim.interactions.counts_matrix().sum(axis=1)))
        before = sim.interactions.total_out(node)
        assert before > 0
        injector.fail_peer(node)
        sim.run_simulation_cycle()
        assert sim.interactions.total_out(node) == pytest.approx(before * 0.5)
        sim.run_simulation_cycle()
        assert sim.interactions.total_out(node) == pytest.approx(before * 0.25)

    def test_rejoined_peer_participates_again(self):
        injector = FaultInjector(N)
        injector.fail_peer(3)
        sim, _ = build_sim(fault_injector=injector, cycles=2)
        sim.run_simulation_cycle()
        served_while_away = sim.metrics.served_by([3])
        injector.restore_peer(3)
        for _ in range(3):
            sim.run_simulation_cycle()
        assert sim.metrics.served_by([3]) >= served_while_away

    def test_zero_rate_injector_is_bit_identical(self):
        """Wiring an inert injector must not perturb the simulation RNG."""
        plain, _ = build_sim(cycles=3)
        faulty, _ = build_sim(
            cycles=3,
            fault_injector=FaultInjector(
                N, config=FaultConfig(), rng=spawn_rng(99, 0)
            ),
        )
        a = plain.run().reputation_history()
        b = faulty.run().reputation_history()
        assert np.array_equal(a, b)

    def test_fault_series_snapshot_per_cycle(self):
        injector = FaultInjector(
            N,
            config=FaultConfig(peer_leave_rate=0.2, peer_rejoin_rate=0.3),
            rng=spawn_rng(5, 0),
        )
        sim, _ = build_sim(fault_injector=injector, cycles=3)
        metrics = sim.run()
        series = metrics.faults.series()
        assert len(series) == 3
        assert [row["cycle"] for row in series] == [1.0, 2.0, 3.0]
        assert min(row["peers_online"] for row in series) < N

    def test_injector_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_sim(fault_injector=FaultInjector(N + 1))


class _Calls:
    """Records every call of one bound method, then forwards it."""

    def __init__(self, obj, name):
        self.args = []
        method = getattr(obj, name)

        def record(*args):
            self.args.append([np.array(a, copy=True) for a in args])
            return method(*args)

        setattr(obj, name, record)


class _Flushes:
    def __init__(self):
        self.cycles = []

    def flushed(self, raters, ratees, values, counts, interests):
        self.cycles.append(
            [np.array(a, copy=True) for a in (raters, ratees, values, counts, interests)]
        )

    def decayed(self, nodes, factor):
        pass


class TestWriteGranularity:
    """The engine writes each ledger once per simulation cycle; the
    observer still sees every query cycle, in ledger write order."""

    CYCLES = 3
    QUERY_CYCLES = 30

    @pytest.fixture(scope="class")
    def run(self):
        from repro.experiments import CollusionKind, WorldConfig, build_world

        config = WorldConfig(
            n_nodes=40,
            n_pretrusted=3,
            n_colluders=8,
            # Scarce capacity leaves some requests unserved every cycle.
            capacity=1,
            collusion=CollusionKind.PCM,
            simulation_cycles=self.CYCLES,
            query_cycles=self.QUERY_CYCLES,
        )
        sim = build_world(config, seed=4).simulation
        calls = {
            "ledger": _Calls(sim.ledger, "record_many"),
            "interactions": _Calls(sim.interactions, "record_many"),
            "profiles": _Calls(sim.profiles, "record_requests"),
            "requests": _Calls(sim.metrics, "record_requests"),
            "unserved": _Calls(sim.metrics, "record_unserved_many"),
        }
        per_cycle = []
        for _ in range(self.CYCLES):
            observer = _Flushes()
            sim.attach_observer(observer)
            sim.run_simulation_cycle()
            per_cycle.append(observer.cycles)
        return sim, calls, per_cycle

    def test_one_write_per_ledger_per_simulation_cycle(self, run):
        sim, calls, _ = run
        for name, call in calls.items():
            assert len(call.args) == self.CYCLES, name

    def test_observer_sees_every_query_cycle(self, run):
        _, _, per_cycle = run
        assert [len(cycles) for cycles in per_cycle] == [self.QUERY_CYCLES] * self.CYCLES

    def test_observer_columns_are_the_rows_the_ledgers_got(self, run):
        sim, calls, per_cycle = run
        for cycle, flushes in enumerate(per_cycle):
            raters, ratees, values, counts, interests = (
                np.concatenate(column) for column in zip(*flushes)
            )
            assert all(
                np.array_equal(got, want)
                for got, want in zip(calls["ledger"].args[cycle], (raters, ratees, values, counts))
            )
            assert all(
                np.array_equal(got, want)
                for got, want in zip(calls["interactions"].args[cycle], (raters, ratees, counts))
            )
            # Each flush's first len(interests) rows are the served requests.
            served = np.concatenate([f[0][: f[4].size] for f in flushes])
            servers = np.concatenate([f[1][: f[4].size] for f in flushes])
            profile_nodes, profile_interests = calls["profiles"].args[cycle]
            assert np.array_equal(profile_nodes, served)
            assert np.array_equal(profile_interests, interests)
            clients, hit = calls["requests"].args[cycle]
            assert np.array_equal(clients, served)
            assert np.array_equal(hit, servers)
