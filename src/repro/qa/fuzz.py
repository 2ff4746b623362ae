"""Stateful invariant fuzzing for the SocialTrust pipeline.

Two harnesses drive the *live* engine through interleaved operations and
assert the pipeline's structural invariants after every step:

* :class:`EngineFuzzHarness` — twin worlds built from the same seed, one
  on the batched query engine and one on the scalar oracle
  (:mod:`repro.qa.oracle`).
  Rules run simulation cycles, inject out-of-band rating bursts, activate
  collusion-style mutual-rating exchanges, and churn peers offline and
  back.  After every cycle the twins must agree **bit-for-bit**, the
  reputations must stay in ``[0, 1]``, Ωs must stay symmetric, Ωc must
  stay a zero-diagonal non-negative matrix, and the detector audit log
  must contain exactly one event per examined pair.

* :class:`ManagerFuzzHarness` — a centralised :class:`SocialTrust` and a
  :class:`DistributedSocialTrust` sharing one world.  Rules buffer rating
  bursts, flush reputation-update intervals, and crash / recover resource
  managers.  While no manager is down the two executions must agree
  bit-for-bit; once an interval flushes under failover the harness stops
  expecting equality (neutral-damping fallbacks legitimately diverge) but
  keeps asserting bounds — and when *every* manager is down, each finding
  must take exactly one neutral fallback.

Both harnesses finish with :func:`repro.qa.cache_audit.audit_caches`, so
every fuzz run ends by recomputing the incremental Ωc/Ωs caches from
scratch and comparing.

The harnesses are plain classes, so they can be driven two ways:

* :func:`run_fuzz` — a seeded, self-contained driver for the CLI
  (``repro qa fuzz``) and the CI smoke job; no third-party dependency;
* :func:`build_engine_machine` / :func:`build_manager_machine` — factories
  returning ``hypothesis.stateful.RuleBasedStateMachine`` subclasses for
  property-based shrinking.  ``hypothesis`` is imported lazily inside the
  factories so :mod:`repro.qa` never hard-depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.qa.cache_audit import CacheAuditReport, audit_caches

__all__ = [
    "InvariantViolation",
    "FuzzReport",
    "EngineFuzzHarness",
    "ManagerFuzzHarness",
    "run_fuzz",
    "build_engine_machine",
    "build_manager_machine",
]

#: Engine-harness world (small: every rule costs a full twin step).
ENGINE_N_NODES = 16
ENGINE_N_INTERESTS = 5
ENGINE_PRETRUSTED = (0, 1)
ENGINE_COLLUDERS = (2, 3, 4, 5)

#: Manager-harness world.
MANAGER_N_NODES = 20
MANAGER_N_INTERESTS = 5
MANAGER_PRETRUSTED = (0, 1)
MANAGER_N_MANAGERS = 4

_SUM_SLACK = 1e-9


class InvariantViolation(AssertionError):
    """A pipeline invariant failed under fuzzing (subclasses
    ``AssertionError`` so both pytest and hypothesis treat it natively)."""


def _check_reputation_bounds(reputations: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(reputations)):
        raise InvariantViolation(f"{label}: non-finite reputations")
    if reputations.min() < 0.0 or reputations.max() > 1.0:
        raise InvariantViolation(
            f"{label}: reputations outside [0, 1] "
            f"(min={reputations.min():.6g}, max={reputations.max():.6g})"
        )
    if float(reputations.sum()) > 1.0 + _SUM_SLACK:
        raise InvariantViolation(
            f"{label}: reputation mass {float(reputations.sum()):.12g} exceeds 1"
        )


class EngineFuzzHarness:
    """Twin batched/scalar worlds driven in lock-step.

    Every mutating rule is applied identically to both twins; the
    invariant bundle (:meth:`check_invariants`) runs after each cycle.
    """

    n_nodes = ENGINE_N_NODES
    colluders = ENGINE_COLLUDERS

    def __init__(self, *, seed: int = 0) -> None:
        from repro.qa.oracle import use_oracle

        self.seed = seed
        self.cycles = 0
        self._twins = {}
        self._obs = {}
        for name in ("batched", "scalar"):
            self._twins[name], self._obs[name] = self._build_twin()
        use_oracle(self._twins["scalar"])

    def _build_twin(self):
        """One world; both twins share the seed so they start identical."""
        from repro.collusion import PairwiseCollusion
        from repro.core import SocialTrust
        from repro.faults import FaultConfig, FaultInjector
        from repro.obs import Observability
        from repro.p2p import (
            InterestOverlay,
            Population,
            Simulation,
            SimulationConfig,
        )
        from repro.reputation import EigenTrust
        from repro.social import InteractionLedger, InterestProfiles
        from repro.social.generators import paper_social_network
        from repro.utils.rng import spawn_rng

        n = self.n_nodes
        rng = spawn_rng(self.seed, 0)
        population = Population.build(
            n,
            rng,
            pretrusted_ids=ENGINE_PRETRUSTED,
            malicious_ids=ENGINE_COLLUDERS,
            n_interests=ENGINE_N_INTERESTS,
            interests_per_node=(1, 4),
            capacity=8,
            malicious_authentic_prob=0.3,
        )
        interests = [spec.interests for spec in population]
        overlay = InterestOverlay(interests, ENGINE_N_INTERESTS)
        network = paper_social_network(n, ENGINE_COLLUDERS, rng)
        interactions = InteractionLedger(n)
        profiles = InterestProfiles(n, ENGINE_N_INTERESTS)
        for spec in population:
            profiles.set_declared(spec.node_id, spec.interests)
        observability = Observability(tracing=False)
        system = SocialTrust(
            EigenTrust(n, ENGINE_PRETRUSTED, pretrust_weight=0.05),
            network,
            interactions,
            profiles,
            observability=observability,
        )
        # Zero-rate config: the injector never draws randomness, it only
        # carries the manual churn controls — so an untouched injector
        # leaves the twin bit-identical to an injector-free build.
        injector = FaultInjector(n, config=FaultConfig())
        simulation = Simulation(
            population,
            overlay,
            system,
            rng,
            config=SimulationConfig(query_cycles_per_simulation_cycle=3),
            collusion=PairwiseCollusion(
                list(ENGINE_COLLUDERS), interests, ratings_per_cycle=4
            ),
            interactions=interactions,
            profiles=profiles,
            fault_injector=injector,
            observability=observability,
        )
        return simulation, observability

    @property
    def simulations(self):
        return dict(self._twins)

    # -- rules ---------------------------------------------------------------

    def run_cycle(self) -> None:
        """One simulation cycle on both twins, then the invariant bundle."""
        reps = {
            name: sim.run_simulation_cycle() for name, sim in self._twins.items()
        }
        self.cycles += 1
        self.check_invariants(reps)

    def inject_ratings(
        self, rater: int, ratee: int, *, positive: bool, count: int
    ) -> None:
        """Out-of-band rating burst, mirrored into both twins' ledgers."""
        rater %= self.n_nodes
        ratee %= self.n_nodes
        if rater == ratee:
            ratee = (ratee + 1) % self.n_nodes
        value = 1.0 if positive else -1.0
        for sim in self._twins.values():
            sim.ledger.record_batch(rater, ratee, value, count)
            sim.interactions.record(rater, ratee, count)

    def collusion_burst(self, pair_index: int, count: int) -> None:
        """A mutual positive-rating exchange inside the colluder group."""
        pairs = [
            (a, b)
            for i, a in enumerate(self.colluders)
            for b in self.colluders[i + 1 :]
        ]
        a, b = pairs[pair_index % len(pairs)]
        self.inject_ratings(a, b, positive=True, count=count)
        self.inject_ratings(b, a, positive=True, count=count)

    def churn_leave(self, node: int) -> None:
        node %= self.n_nodes
        for sim in self._twins.values():
            sim.fault_injector.fail_peer(node)

    def churn_rejoin(self, node: int) -> None:
        node %= self.n_nodes
        for sim in self._twins.values():
            sim.fault_injector.restore_peer(node)

    @property
    def offline_nodes(self) -> list[int]:
        sim = self._twins["batched"]
        return [int(x) for x in sim.fault_injector.offline_nodes()]

    # -- invariants ----------------------------------------------------------

    def check_invariants(self, reps: dict[str, np.ndarray]) -> None:
        batched, scalar = reps["batched"], reps["scalar"]
        if not np.array_equal(batched, scalar):
            delta = float(np.abs(batched - scalar).max())
            raise InvariantViolation(
                f"cycle {self.cycles}: batched and scalar engines diverged "
                f"(max |delta| = {delta:.3e})"
            )
        for name, values in reps.items():
            _check_reputation_bounds(values, f"cycle {self.cycles} [{name}]")
        for name, sim in self._twins.items():
            self._check_social_matrices(sim, name)
            self._check_audit_completeness(sim, name)

    def _check_social_matrices(self, sim, name: str) -> None:
        system = sim.system
        omega_s = system.similarity_computer.similarity_matrix()
        if not np.allclose(omega_s, omega_s.T, rtol=1e-9, atol=1e-12):
            raise InvariantViolation(f"[{name}] Ωs is not symmetric")
        if float(np.abs(np.diag(omega_s)).max(initial=0.0)) != 0.0:
            raise InvariantViolation(f"[{name}] Ωs has a non-zero diagonal")
        omega_c = system.closeness_computer.closeness_matrix()
        if not np.all(np.isfinite(omega_c)):
            raise InvariantViolation(f"[{name}] Ωc has non-finite entries")
        if omega_c.min() < 0.0:
            raise InvariantViolation(f"[{name}] Ωc has negative entries")
        if float(np.abs(np.diag(omega_c)).max(initial=0.0)) != 0.0:
            raise InvariantViolation(f"[{name}] Ωc has a non-zero diagonal")

    def _check_audit_completeness(self, sim, name: str) -> None:
        obs = self._obs[name]
        audit = obs.audit
        examined = obs.metrics.counter("detector.pairs_examined").value
        recorded = len(audit) + audit.n_dropped
        if recorded != int(examined):
            raise InvariantViolation(
                f"[{name}] audit log holds {recorded} events but the "
                f"detector examined {int(examined)} pairs"
            )
        last = sim.system.last_detection
        if last is None:
            return
        latest = self.cycles - 1
        damped = {
            (e.rater, e.ratee)
            for e in audit
            if e.interval == latest and e.decision == "damped"
        }
        findings = {(f.rater, f.ratee) for f in last.findings}
        if damped != findings:
            raise InvariantViolation(
                f"[{name}] interval {latest}: damped audit events "
                f"{sorted(damped)} do not match detector findings "
                f"{sorted(findings)}"
            )

    def teardown(self) -> list[CacheAuditReport]:
        """Recompute both twins' Ωc/Ωs caches from scratch and compare."""
        reports = []
        for name, sim in self._twins.items():
            report = audit_caches(sim.system)
            if not report.ok:
                raise InvariantViolation(f"[{name}] {report.summary()}")
            reports.append(report)
        return reports


class ManagerFuzzHarness:
    """Centralised vs distributed SocialTrust under manager failures.

    Both systems share one world (social view, interaction ledger,
    interest profiles) and consume the same drained intervals, so while
    every manager is up they are provably bit-identical.  The first flush
    that happens under failover sets :attr:`diverged` — from then on only
    the bounds invariants apply (fallback damping legitimately changes
    the numbers).
    """

    n_nodes = MANAGER_N_NODES
    n_managers = MANAGER_N_MANAGERS

    def __init__(self, *, seed: int = 0) -> None:
        from repro.core import DistributedSocialTrust, SocialTrust
        from repro.faults import FaultConfig, FaultInjector
        from repro.p2p import Population
        from repro.reputation import EigenTrust
        from repro.reputation.ledger import RatingLedger
        from repro.social import InteractionLedger, InterestProfiles
        from repro.social.generators import paper_social_network
        from repro.utils.rng import spawn_rng

        n = self.n_nodes
        rng = spawn_rng(seed, 1)
        colluders = tuple(range(2, 8))
        population = Population.build(
            n,
            rng,
            pretrusted_ids=MANAGER_PRETRUSTED,
            malicious_ids=colluders,
            n_interests=MANAGER_N_INTERESTS,
            interests_per_node=(1, 4),
            malicious_authentic_prob=0.3,
        )
        network = paper_social_network(n, colluders, rng)
        self.interactions = InteractionLedger(n)
        self.profiles = InterestProfiles(n, MANAGER_N_INTERESTS)
        for spec in population:
            self.profiles.set_declared(spec.node_id, spec.interests)
        self.central = SocialTrust(
            EigenTrust(n, MANAGER_PRETRUSTED, pretrust_weight=0.05),
            network,
            self.interactions,
            self.profiles,
        )
        self.injector = FaultInjector(n, config=FaultConfig())
        self.distributed = DistributedSocialTrust(
            EigenTrust(n, MANAGER_PRETRUSTED, pretrust_weight=0.05),
            network,
            self.interactions,
            self.profiles,
            n_managers=self.n_managers,
            injector=self.injector,
        )
        self.ledger = RatingLedger(n)
        self.colluders = colluders
        self.diverged = False
        self.flushes = 0

    # -- rules ---------------------------------------------------------------

    def add_burst(
        self, rater: int, ratee: int, *, positive: bool, count: int
    ) -> None:
        rater %= self.n_nodes
        ratee %= self.n_nodes
        if rater == ratee:
            ratee = (ratee + 1) % self.n_nodes
        self.ledger.record_batch(rater, ratee, 1.0 if positive else -1.0, count)
        self.interactions.record(rater, ratee, count)

    def collusion_burst(self, pair_index: int, count: int) -> None:
        pairs = [
            (a, b)
            for i, a in enumerate(self.colluders)
            for b in self.colluders[i + 1 :]
        ]
        a, b = pairs[pair_index % len(pairs)]
        self.add_burst(a, b, positive=True, count=count)
        self.add_burst(b, a, positive=True, count=count)

    def crash_manager(self, manager_id: int) -> None:
        self.injector.fail_manager(manager_id % self.n_managers)

    def recover_manager(self, manager_id: int) -> None:
        self.injector.restore_manager(manager_id % self.n_managers)

    def flush_interval(self) -> None:
        """Drain the buffered ratings through both executions."""
        interval = self.ledger.drain()
        down = self.injector.down_managers()
        all_down = len(down) == self.n_managers
        fallbacks_before = self.injector.metrics.fallbacks
        rep_c = self.central.update(interval)
        rep_d = self.distributed.update(interval)
        self.flushes += 1
        _check_reputation_bounds(rep_c, f"flush {self.flushes} [central]")
        _check_reputation_bounds(rep_d, f"flush {self.flushes} [distributed]")
        if down:
            # Fallback damping may lawfully change the distributed result;
            # equality is no longer owed for the rest of the run.
            self.diverged = True
        elif not self.diverged and not np.array_equal(rep_c, rep_d):
            delta = float(np.abs(rep_c - rep_d).max())
            raise InvariantViolation(
                f"flush {self.flushes}: fault-free distributed execution "
                f"diverged from centralised (max |delta| = {delta:.3e})"
            )
        if all_down:
            findings = self.distributed.last_detection.findings
            expected = fallbacks_before + len(findings)
            if self.injector.metrics.fallbacks != expected:
                raise InvariantViolation(
                    f"flush {self.flushes}: all managers down with "
                    f"{len(findings)} findings, expected {expected} total "
                    f"fallbacks, saw {self.injector.metrics.fallbacks}"
                )

    def teardown(self) -> list[CacheAuditReport]:
        reports = []
        for label, system in (("central", self.central), ("distributed", self.distributed)):
            report = audit_caches(system)
            if not report.ok:
                raise InvariantViolation(f"[{label}] {report.summary()}")
            reports.append(report)
        return reports


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` session."""

    harness: str
    steps: int
    seed: int
    rule_counts: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    cache_audits: list[CacheAuditReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        rules = ", ".join(
            f"{name}={count}" for name, count in sorted(self.rule_counts.items())
        )
        lines = [
            f"fuzz[{self.harness}]: {self.steps} steps, seed={self.seed} ({rules})"
        ]
        lines.extend(
            "  " + line
            for report in self.cache_audits
            for line in report.summary().splitlines()
        )
        if self.violations:
            lines.append(f"  {len(self.violations)} INVARIANT VIOLATION(S):")
            lines.extend(f"    {v}" for v in self.violations)
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def _fuzz_engine(steps: int, seed: int) -> FuzzReport:
    rng = np.random.default_rng(seed)
    harness = EngineFuzzHarness(seed=seed)
    report = FuzzReport(harness="engine", steps=steps, seed=seed)
    rules = ("run_cycle", "inject", "burst", "leave", "rejoin")
    weights = np.array([0.35, 0.25, 0.15, 0.15, 0.10])
    try:
        for _ in range(steps):
            rule = rules[int(rng.choice(len(rules), p=weights))]
            report.rule_counts[rule] = report.rule_counts.get(rule, 0) + 1
            if rule == "run_cycle":
                harness.run_cycle()
            elif rule == "inject":
                harness.inject_ratings(
                    int(rng.integers(harness.n_nodes)),
                    int(rng.integers(harness.n_nodes)),
                    positive=bool(rng.random() < 0.7),
                    count=int(rng.integers(1, 6)),
                )
            elif rule == "burst":
                harness.collusion_burst(
                    int(rng.integers(16)), int(rng.integers(1, 8))
                )
            elif rule == "leave":
                # Keep a majority online so the world stays live.
                if len(harness.offline_nodes) < harness.n_nodes // 2:
                    harness.churn_leave(int(rng.integers(harness.n_nodes)))
            else:
                offline = harness.offline_nodes
                if offline:
                    harness.churn_rejoin(offline[int(rng.integers(len(offline)))])
        report.cache_audits = harness.teardown()
    except InvariantViolation as exc:
        report.violations.append(str(exc))
    return report


def _fuzz_manager(steps: int, seed: int) -> FuzzReport:
    rng = np.random.default_rng(seed + 1)
    harness = ManagerFuzzHarness(seed=seed)
    report = FuzzReport(harness="manager", steps=steps, seed=seed)
    rules = ("burst", "collude", "flush", "crash", "recover")
    weights = np.array([0.35, 0.15, 0.25, 0.15, 0.10])
    try:
        for _ in range(steps):
            rule = rules[int(rng.choice(len(rules), p=weights))]
            report.rule_counts[rule] = report.rule_counts.get(rule, 0) + 1
            if rule == "burst":
                harness.add_burst(
                    int(rng.integers(harness.n_nodes)),
                    int(rng.integers(harness.n_nodes)),
                    positive=bool(rng.random() < 0.7),
                    count=int(rng.integers(1, 6)),
                )
            elif rule == "collude":
                harness.collusion_burst(
                    int(rng.integers(16)), int(rng.integers(1, 8))
                )
            elif rule == "flush":
                harness.flush_interval()
            elif rule == "crash":
                harness.crash_manager(int(rng.integers(harness.n_managers)))
            else:
                harness.recover_manager(int(rng.integers(harness.n_managers)))
        report.cache_audits = harness.teardown()
    except InvariantViolation as exc:
        report.violations.append(str(exc))
    return report


def run_fuzz(
    steps: int = 200, seed: int = 0, harness: str = "both"
) -> list[FuzzReport]:
    """Seeded fuzz session; returns one report per harness run.

    The driver needs no third-party packages — rule selection comes from
    a ``numpy`` generator — so the CI smoke job can run it anywhere the
    library itself runs.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if harness not in ("engine", "manager", "both"):
        raise ValueError(
            f"harness must be 'engine', 'manager' or 'both', got {harness!r}"
        )
    reports = []
    if harness in ("engine", "both"):
        reports.append(_fuzz_engine(steps, seed))
    if harness in ("manager", "both"):
        reports.append(_fuzz_manager(steps, seed))
    return reports


def build_engine_machine(*, seed: int = 0):
    """Hypothesis ``RuleBasedStateMachine`` over :class:`EngineFuzzHarness`.

    ``hypothesis`` is imported here, not at module load, so the rest of
    :mod:`repro.qa` works without it installed.
    """
    from hypothesis import strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

    n = ENGINE_N_NODES

    class EngineMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.harness = EngineFuzzHarness(seed=seed)

        @rule()
        def run_cycle(self) -> None:
            self.harness.run_cycle()

        @rule(
            rater=st.integers(0, n - 1),
            ratee=st.integers(0, n - 1),
            positive=st.booleans(),
            count=st.integers(1, 5),
        )
        def inject(self, rater: int, ratee: int, positive: bool, count: int) -> None:
            self.harness.inject_ratings(rater, ratee, positive=positive, count=count)

        @rule(pair_index=st.integers(0, 15), count=st.integers(1, 7))
        def burst(self, pair_index: int, count: int) -> None:
            self.harness.collusion_burst(pair_index, count)

        @precondition(lambda self: len(self.harness.offline_nodes) < n // 2)
        @rule(node=st.integers(0, n - 1))
        def leave(self, node: int) -> None:
            self.harness.churn_leave(node)

        @precondition(lambda self: self.harness.offline_nodes)
        @rule(index=st.integers(0, n - 1))
        def rejoin(self, index: int) -> None:
            offline = self.harness.offline_nodes
            self.harness.churn_rejoin(offline[index % len(offline)])

        def teardown(self) -> None:
            self.harness.teardown()

    return EngineMachine


def build_manager_machine(*, seed: int = 0):
    """Hypothesis ``RuleBasedStateMachine`` over :class:`ManagerFuzzHarness`."""
    from hypothesis import strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, rule

    n = MANAGER_N_NODES
    m = MANAGER_N_MANAGERS

    class ManagerMachine(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.harness = ManagerFuzzHarness(seed=seed)

        @rule(
            rater=st.integers(0, n - 1),
            ratee=st.integers(0, n - 1),
            positive=st.booleans(),
            count=st.integers(1, 5),
        )
        def burst(self, rater: int, ratee: int, positive: bool, count: int) -> None:
            self.harness.add_burst(rater, ratee, positive=positive, count=count)

        @rule(pair_index=st.integers(0, 15), count=st.integers(1, 7))
        def collude(self, pair_index: int, count: int) -> None:
            self.harness.collusion_burst(pair_index, count)

        @rule()
        def flush(self) -> None:
            self.harness.flush_interval()

        @rule(manager_id=st.integers(0, m - 1))
        def crash(self, manager_id: int) -> None:
            self.harness.crash_manager(manager_id)

        @rule(manager_id=st.integers(0, m - 1))
        def recover(self, manager_id: int) -> None:
            self.harness.recover_manager(manager_id)

        def teardown(self) -> None:
            self.harness.teardown()

    return ManagerMachine
