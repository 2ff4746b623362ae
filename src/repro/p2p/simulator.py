"""The discrete-cycle simulation engine.

One :class:`Simulation` couples a peer population, the interest overlay, a
reputation system (optionally wrapped by SocialTrust), and a collusion
schedule.  Time advances in the paper's two-level cycles:

* **query cycle** — every active peer issues one resource request on one of
  its interests (interest choice is Zipf-distributed per node, matching the
  trace's power-law category ranks), a server is selected by reputation,
  the service outcome is rated ±1, and the colluders inject their rating
  bursts;
* **simulation cycle** — after ``query_cycles_per_simulation_cycle`` (30)
  query cycles, the accumulated interval ratings feed the reputation
  update and a metrics snapshot is taken.

Genuine requests update three behavioural ledgers shared with SocialTrust:
the rating ledger, the interaction-frequency ledger and the per-interest
request counters.  Collusion bursts update the rating and interaction
ledgers only (a rating exchange without a genuine resource transfer leaves
no request trace — see :mod:`repro.collusion.models`).  During a network
partition a client reaches only servers on its own side, and cross-side
bursts are blocked.  The query cycles run on
:class:`~repro.p2p.engine.BatchedQueryEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collusion.models import CollusionSchedule, NoCollusion
from repro.faults.injector import FaultInjector
from repro.obs import NULL_TRACER, Observability
from repro.p2p.engine import BatchedQueryEngine, LedgerObserver
from repro.p2p.metrics import MetricsCollector
from repro.p2p.network import InterestOverlay
from repro.p2p.node import Population
from repro.p2p.selection import SelectionPolicy
from repro.reputation.base import ReputationSystem
from repro.reputation.ledger import RatingLedger
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import RngStream
from repro.utils.validation import check_probability

__all__ = ["SimulationConfig", "Simulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """Engine parameters (defaults are the paper's Section 5.1 values)."""

    simulation_cycles: int = 50
    query_cycles_per_simulation_cycle: int = 30
    #: The paper's ``T_R`` server-selection reputation floor.
    selection_threshold: float = 0.01
    selection_policy: SelectionPolicy = SelectionPolicy.REPUTATION_WEIGHTED
    #: Probability of reputation-blind uniform selection (see
    #: :func:`repro.p2p.selection.select_server`).
    selection_exploration: float = 0.0
    #: Zipf exponent for per-node interest choice (trace: the top 3
    #: categories cover ~88% of a user's purchases).
    interest_zipf_exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.simulation_cycles < 1:
            raise ValueError("simulation_cycles must be >= 1")
        if self.query_cycles_per_simulation_cycle < 1:
            raise ValueError("query_cycles_per_simulation_cycle must be >= 1")
        check_probability("selection_threshold", self.selection_threshold)
        check_probability("selection_exploration", self.selection_exploration)
        if self.interest_zipf_exponent < 0:
            raise ValueError("interest_zipf_exponent must be >= 0")


class Simulation:
    """Couples all substrates and runs the two-level cycle loop."""

    def __init__(
        self,
        population: Population,
        overlay: InterestOverlay,
        system: ReputationSystem,
        rng: RngStream,
        *,
        config: SimulationConfig | None = None,
        collusion: CollusionSchedule | None = None,
        interactions: InteractionLedger | None = None,
        profiles: InterestProfiles | None = None,
        fault_injector: FaultInjector | None = None,
        observability: Observability | None = None,
    ) -> None:
        n = population.n_nodes
        if overlay.n_nodes != n:
            raise ValueError("overlay and population disagree on network size")
        if system.n_nodes != n:
            raise ValueError("reputation system and population disagree on size")
        if fault_injector is not None and fault_injector.n_nodes != n:
            raise ValueError(
                f"fault injector covers {fault_injector.n_nodes} nodes, "
                f"population has {n}"
            )
        self._population = population
        self._overlay = overlay
        self._system = system
        self._rng = rng
        self._config = config or SimulationConfig()
        self._collusion = collusion or NoCollusion()
        self._injector = fault_injector
        self._interactions = interactions or InteractionLedger(n)
        if profiles is None:
            profiles = InterestProfiles(n, overlay.n_interests)
            for spec in population:
                profiles.set_declared(spec.node_id, spec.interests)
        self._profiles = profiles
        self._ledger = RatingLedger(n)
        self._metrics = MetricsCollector(n)
        self._obs = observability
        self._tracer = observability.tracer if observability is not None else NULL_TRACER
        if fault_injector is not None:
            # One shared fault-metrics sink: injector, transport, manager
            # layer and simulation all record into the collector's series.
            self._metrics.attach_faults(fault_injector.metrics)
            if observability is not None:
                fault_injector.bind_observability(observability)
        self._cycles_run = 0
        self._observer: LedgerObserver | None = None
        # Per-node Zipf weights over the node's own (sorted) interest list.
        s = self._config.interest_zipf_exponent
        self._interest_choices: list[np.ndarray] = []
        self._interest_weights: list[np.ndarray] = []
        for spec in population:
            interests = np.array(sorted(spec.interests), dtype=np.int64)
            ranks = np.arange(1, interests.size + 1, dtype=np.float64)
            weights = ranks**-s if s > 0 else np.ones_like(ranks)
            self._interest_choices.append(interests)
            self._interest_weights.append(weights / weights.sum())
        self._engine = BatchedQueryEngine(
            population,
            overlay,
            rng,
            threshold=self._config.selection_threshold,
            policy=self._config.selection_policy,
            exploration=self._config.selection_exploration,
            interest_choices=self._interest_choices,
            interest_weights=self._interest_weights,
            ledger=self._ledger,
            interactions=self._interactions,
            profiles=self._profiles,
            metrics=self._metrics,
            collusion=self._collusion,
            injector=self._injector,
            observability=observability,
        )

    @property
    def population(self) -> Population:
        return self._population

    @property
    def system(self) -> ReputationSystem:
        return self._system

    @property
    def metrics(self) -> MetricsCollector:
        return self._metrics

    @property
    def interactions(self) -> InteractionLedger:
        return self._interactions

    @property
    def profiles(self) -> InterestProfiles:
        return self._profiles

    @property
    def ledger(self) -> RatingLedger:
        """The live per-interval rating ledger (drained each cycle).

        Exposed for the :mod:`repro.qa` fuzz harnesses, which interleave
        out-of-band rating bursts with the engine's own traffic.
        """
        return self._ledger

    @property
    def cycles_run(self) -> int:
        return self._cycles_run

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self._injector

    def attach_observer(self, observer: LedgerObserver | None) -> None:
        """Send every flushed query cycle and churn decay to ``observer``
        (``None`` detaches).  Observing never changes the run."""
        self._observer = observer
        self._engine.observer = observer

    def run_simulation_cycle(self) -> np.ndarray:
        """Run one simulation cycle; returns the updated reputation vector."""
        with self._tracer.span("sim.cycle", cycle=self._cycles_run):
            return self._run_simulation_cycle()

    def _run_simulation_cycle(self) -> np.ndarray:
        tracer = self._tracer
        if self._injector is not None:
            with tracer.span("faults.advance"):
                self._injector.advance()
                offline = self._injector.offline_nodes()
                if offline.size:
                    # Age out departed peers' interaction history so
                    # rejoiners resume with decayed — not stale
                    # full-strength — state.
                    factor = self._injector.config.offline_decay
                    self._interactions.decay_nodes(offline, factor)
                    if self._observer is not None:
                        self._observer.decayed(offline, factor)
        # The engine writes the interval's rows before returning, so the
        # rating ledger holds the whole interval here.
        self._engine.run_interval(
            self._system.reputations,
            self._config.query_cycles_per_simulation_cycle,
        )
        interval = self._ledger.drain()
        with tracer.span("reputation.update", system=self._system.name):
            reputations = self._system.update(interval)
        with tracer.span("metrics.snapshot"):
            self._metrics.snapshot(reputations)
        self._cycles_run += 1
        if self._injector is not None:
            self._metrics.faults.snapshot_cycle(
                self._cycles_run,
                peers_online=self._injector.peers_online,
                managers_up=self._injector.managers_up_count,
            )
        if self._obs is not None:
            self._metrics.publish(self._obs.metrics, cycles_run=self._cycles_run)
        return reputations

    # -- checkpoint / recovery -----------------------------------------------

    def checkpoint(self) -> dict:
        """Full mutable state at a simulation-cycle boundary.

        Everything a resumed process needs to continue **bit-identically**
        to the uninterrupted run: the shared RNG stream, the reputation
        system (including SocialTrust's detector/recidivism state and the
        Ωc/Ωs value caches, whose incremental updates are not bitwise
        equal to a rebuild), the three behavioural ledgers, the metrics
        history, and — when chaos is wired in — the fault injector with
        its schedule RNG, partition/Byzantine state and retry budget.
        Static structure (population, overlay, social graph, collusion
        schedule) is *not* included; it is reconstructed deterministically
        from the build configuration by the caller
        (:func:`repro.chaos.checkpoint.save_checkpoint` stores that
        configuration next to this payload).
        """
        return {
            "cycles_run": self._cycles_run,
            "rng": self._rng.bit_generator.state,
            "system": self._system.state_dict(),
            "ledger": self._ledger.state_dict(),
            "interactions": self._interactions.state_dict(),
            "profiles": self._profiles.state_dict(),
            "metrics": self._metrics.state_dict(),
            "injector": (
                self._injector.state_dict() if self._injector is not None else None
            ),
        }

    def resume(self, state: dict) -> None:
        """Restore a :meth:`checkpoint` payload into a freshly built,
        identically configured simulation."""
        injector_state = state.get("injector")
        if injector_state is not None and self._injector is None:
            raise ValueError(
                "checkpoint carries fault-injector state but this "
                "simulation was built without an injector"
            )
        self._cycles_run = int(state["cycles_run"])
        self._rng.bit_generator.state = state["rng"]
        # The stores first: the system's coefficient caches rebuild from
        # them what the checkpoint leaves out.
        self._ledger.restore_state(state["ledger"])
        self._interactions.restore_state(state["interactions"])
        self._profiles.restore_state(state["profiles"])
        self._system.restore_state(state["system"])
        self._metrics.restore_state(state["metrics"])
        if self._injector is not None and injector_state is not None:
            self._injector.restore_state(injector_state)

    def run(self, simulation_cycles: int | None = None) -> MetricsCollector:
        """Run the configured number of simulation cycles; returns metrics."""
        cycles = (
            simulation_cycles
            if simulation_cycles is not None
            else self._config.simulation_cycles
        )
        if cycles < 1:
            raise ValueError("simulation_cycles must be >= 1")
        for _ in range(cycles):
            self.run_simulation_cycle()
        return self._metrics
