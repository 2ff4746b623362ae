"""Builder for the paper's Section-5.1 experimental world.

The canonical configuration: a 200-node unstructured P2P network with 20
interest categories (1-10 interests per node), 9 pre-trusted nodes
(ids 0-8), 30 colluders (ids 9-38), per-query-cycle capacity 50, activity
probability uniform over [0.5, 1], colluder pairs at social distance 1
with 3-5 same-weight relationships, all other pairs at distance uniform
over [1, 3] with 1-2 relationships.

:func:`build_world` assembles a ready-to-run :class:`BuiltWorld` for one
(reputation system, collusion model, B) cell of the evaluation grid,
wiring the shared behavioural ledgers (interaction frequencies, interest
requests) into both the simulator and the SocialTrust stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.collusion import (
    CollusionSchedule,
    CompositeCollusion,
    CompromisedPretrustedCollusion,
    MultiNodeCollusion,
    MutualMultiNodeCollusion,
    NoCollusion,
    PairwiseCollusion,
    falsify_identical_interests,
    falsify_single_relationship,
)
from repro.chaos.spec import ChaosSpec
from repro.core import DistributedSocialTrust, SocialTrust, SocialTrustConfig
from repro.faults import FaultConfig, FaultInjector, FaultSchedule
from repro.obs import Observability
from repro.p2p import (
    InterestOverlay,
    Population,
    SelectionPolicy,
    Simulation,
    SimulationConfig,
)
from repro.reputation import (
    EBayModel,
    EigenTrust,
    GossipTrust,
    PowerTrust,
    ReputationSystem,
    SimilarityWeightedModel,
)
from repro.social import AssignedSocialNetwork, InteractionLedger, InterestProfiles
from repro.social.generators import (
    assign_relationships,
    assigned_distance_matrix,
    paper_social_network,
)
from repro.utils.rng import RngStream, spawn_rng

__all__ = [
    "SystemKind",
    "CollusionKind",
    "WorldConfig",
    "BuiltWorld",
    "build_world",
]


class SystemKind(enum.Enum):
    """Which reputation stack a simulation runs."""

    EIGENTRUST = "EigenTrust"
    EBAY = "eBay"
    POWERTRUST = "PowerTrust"
    #: Related-work baseline defences (no SocialTrust-wrapped variant —
    #: they embed their own anti-collusion mechanism); mainly exercised by
    #: the baseline benchmarks and the :mod:`repro.qa` differential runner.
    TRUSTGUARD = "TrustGuard"
    GOSSIP = "GossipTrust"
    EIGENTRUST_SOCIALTRUST = "EigenTrust+SocialTrust"
    EBAY_SOCIALTRUST = "eBay+SocialTrust"
    POWERTRUST_SOCIALTRUST = "PowerTrust+SocialTrust"

    @property
    def uses_socialtrust(self) -> bool:
        return self in (
            SystemKind.EIGENTRUST_SOCIALTRUST,
            SystemKind.EBAY_SOCIALTRUST,
            SystemKind.POWERTRUST_SOCIALTRUST,
        )

    @property
    def base(self) -> "SystemKind":
        if self is SystemKind.EIGENTRUST_SOCIALTRUST:
            return SystemKind.EIGENTRUST
        if self is SystemKind.EBAY_SOCIALTRUST:
            return SystemKind.EBAY
        if self is SystemKind.POWERTRUST_SOCIALTRUST:
            return SystemKind.POWERTRUST
        return self


class CollusionKind(enum.Enum):
    """Which attack structure the colluders mount."""

    NONE = "none"
    PCM = "pcm"
    MCM = "mcm"
    MMM = "mmm"


@dataclass(frozen=True)
class WorldConfig:
    """One cell of the evaluation grid (paper defaults)."""

    n_nodes: int = 200
    n_pretrusted: int = 9
    n_colluders: int = 30
    n_interests: int = 20
    interests_per_node: tuple[int, int] = (1, 10)
    capacity: int = 50
    #: Colluders' probability of good behaviour ``B`` (a scalar for the
    #: collusion experiments, a range for the colluder-free baseline).
    colluder_b: float | tuple[float, float] = 0.2
    collusion: CollusionKind = CollusionKind.PCM
    system: SystemKind = SystemKind.EIGENTRUST
    #: PCM mutual rating frequency per query cycle.
    pcm_ratings_per_cycle: int = 20
    #: MCM boosted-node count and per-cycle rating range.
    mcm_n_boosted: int = 7
    mcm_ratings_range: tuple[int, int] = (3, 7)
    #: MMM forward / backward rating counts per query cycle.
    mmm_forward_ratings: int = 20
    mmm_back_ratings: int = 5
    #: Compromised pre-trusted peers joining the collusion (Sections 5.4/5.7).
    n_compromised_pretrusted: int = 0
    #: Colluders falsify declared relationships and interests (Section 5.8).
    falsified_social_info: bool = False
    #: Social distance between colluder pairs (Fig. 20 sweeps 1-3).
    colluder_distance: int = 1
    #: Redraw each colluding pair's interests to be (near-)disjoint.  The
    #: paper's setup states "colluders have relatively more social
    #: relationships, higher social interaction frequency, and less common
    #: interests" — the low interest overlap is what anchors behaviour B3
    #: when colluders evade B2 by growing rich or keeping their distance.
    colluder_low_interest_overlap: bool = True
    #: Simulation length (paper: 50 cycles x 30 query cycles).
    simulation_cycles: int = 50
    query_cycles: int = 30
    #: EigenTrust pre-trust blend.  0.05 keeps the pre-trust floor below the
    #: selection threshold ``T_R`` so pre-trusted peers are not the only
    #: qualified servers from cycle 0 — the regime the paper's reputation
    #: plots (pre-trusted barely above normal) imply.  See the EigenTrust
    #: class docstring for why the stated 0.5 cannot be the blend factor.
    pretrust_weight: float = 0.05
    #: eBay per-interval score aggregation (see EBayModel).  ``node_sign``
    #: matches the paper's description ("a node's reputation increase is
    #: only determined by whether the node offers more authentic files than
    #: inauthentic files in each simulation cycle").
    ebay_aggregation: str = "node_sign"
    #: Server selection rule; THRESHOLD_RANDOM is the paper's literal rule
    #: ("randomly chooses a neighbor with available capacity greater than 0
    #: and reputation higher than T_R").
    selection_policy: SelectionPolicy = SelectionPolicy.THRESHOLD_RANDOM
    #: Reputation-blind exploration fraction of the selection rule.
    selection_exploration: float = 0.2
    socialtrust: SocialTrustConfig = field(default_factory=SocialTrustConfig)
    #: Stochastic fault rates (churn, manager crashes, lossy transport,
    #: partitions, Byzantine managers).  ``None`` (default) builds no
    #: injector at all — the run is byte-identical to the seed path.
    #: Accepts a :class:`~repro.faults.config.FaultConfig` or its dict
    #: form (JSON-friendly, e.g. from a golden/checkpoint header).
    faults: FaultConfig | dict | None = None
    #: Scripted chaos scenario (explicit partition / Byzantine windows).
    #: When set, it replaces the stochastic *event* schedule — transport
    #: unreliability from ``faults`` still applies.  Accepts a
    #: :class:`~repro.chaos.ChaosSpec` or its dict form.
    chaos: ChaosSpec | dict | None = None
    #: Number of resource managers for the distributed SocialTrust
    #: execution (Section 4.3).  0 (default) runs the centralised
    #: wrapper; > 0 requires a SocialTrust-wrapped ``system``.
    n_managers: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.socialtrust, dict):
            object.__setattr__(
                self, "socialtrust", SocialTrustConfig(**self.socialtrust)
            )
        if isinstance(self.faults, dict):
            object.__setattr__(self, "faults", FaultConfig(**self.faults))
        if isinstance(self.chaos, dict):
            object.__setattr__(self, "chaos", ChaosSpec.from_dict(self.chaos))
        if self.n_managers < 0:
            raise ValueError(f"n_managers must be >= 0, got {self.n_managers}")
        if self.n_managers and not self.system.uses_socialtrust:
            raise ValueError(
                "n_managers > 0 requires a SocialTrust-wrapped system "
                "(the manager protocol is part of SocialTrust)"
            )
        if self.chaos is not None and self.chaos.byzantines:
            if not self.n_managers:
                raise ValueError(
                    "Byzantine manager windows require n_managers > 0"
                )
            bad = sorted(
                b.manager_id
                for b in self.chaos.byzantines
                if b.manager_id >= self.n_managers
            )
            if bad:
                raise ValueError(
                    f"Byzantine manager ids {bad} out of range "
                    f"[0, {self.n_managers})"
                )
        if self.n_pretrusted + self.n_colluders > self.n_nodes:
            raise ValueError("pre-trusted + colluders exceed network size")
        if self.n_compromised_pretrusted > self.n_pretrusted:
            raise ValueError(
                "cannot compromise more pre-trusted nodes than exist"
            )
        if self.n_compromised_pretrusted and self.collusion is CollusionKind.NONE:
            raise ValueError(
                "compromised pre-trusted nodes require a collusion model"
            )

    @property
    def pretrusted_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_pretrusted))

    @property
    def colluder_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_pretrusted, self.n_pretrusted + self.n_colluders))

    @property
    def normal_ids(self) -> tuple[int, ...]:
        return tuple(range(self.n_pretrusted + self.n_colluders, self.n_nodes))

    def with_system(self, system: SystemKind) -> "WorldConfig":
        return replace(self, system=system)


@dataclass
class BuiltWorld:
    """Everything needed to run one simulation cell."""

    config: WorldConfig
    simulation: Simulation
    system: ReputationSystem
    population: Population
    social_network: AssignedSocialNetwork
    interactions: InteractionLedger
    profiles: InterestProfiles
    collusion: CollusionSchedule
    compromised_pretrusted: tuple[int, ...]
    #: The run's tracer/metrics/audit bundle (None unless requested).
    observability: Observability | None = None

    @property
    def colluder_ids(self) -> tuple[int, ...]:
        return self.config.colluder_ids

    @property
    def adversary_ids(self) -> tuple[int, ...]:
        """Colluders plus compromised pre-trusted nodes."""
        return self.config.colluder_ids + self.compromised_pretrusted


def _build_schedule(
    config: WorldConfig,
    interests: list[frozenset[int]],
    rng: RngStream,
) -> tuple[CollusionSchedule, tuple[int, ...], list[tuple[int, int]]]:
    """(schedule, compromised pre-trusted ids, colluding pairs for falsification)."""
    colluders = list(config.colluder_ids)
    if config.collusion is CollusionKind.NONE:
        return NoCollusion(), (), []
    if config.collusion is CollusionKind.PCM:
        schedule: CollusionSchedule = PairwiseCollusion(
            colluders, interests, ratings_per_cycle=config.pcm_ratings_per_cycle
        )
        pairs = list(schedule.pairs)
    elif config.collusion is CollusionKind.MCM:
        # Scaled-down worlds may have fewer colluders than the paper's 30;
        # keep at least one boosting node per boosted node.
        n_boosted = min(config.mcm_n_boosted, max(1, len(colluders) - 1))
        schedule = MultiNodeCollusion(
            colluders,
            interests,
            rng,
            n_boosted=n_boosted,
            ratings_range=config.mcm_ratings_range,
        )
        pairs = [(b, schedule.target_of(b)) for b in schedule.boosting]
    else:
        n_boosted = min(config.mcm_n_boosted, max(1, len(colluders) - 1))
        schedule = MutualMultiNodeCollusion(
            colluders,
            interests,
            rng,
            n_boosted=n_boosted,
            forward_ratings=config.mmm_forward_ratings,
            back_ratings=config.mmm_back_ratings,
        )
        pairs = [(b, schedule.target_of(b)) for b in schedule.boosting]
    compromised: tuple[int, ...] = ()
    if config.n_compromised_pretrusted:
        compromised = tuple(
            int(x)
            for x in rng.choice(
                config.pretrusted_ids,
                size=config.n_compromised_pretrusted,
                replace=False,
            )
        )
        extra = CompromisedPretrustedCollusion(
            compromised, colluders, interests, rng
        )
        pairs.extend(extra.partners)
        schedule = CompositeCollusion([schedule, extra])
    return schedule, compromised, pairs


def _build_system(
    config: WorldConfig,
    network: AssignedSocialNetwork,
    interactions: InteractionLedger,
    profiles: InterestProfiles,
    observability: Observability | None = None,
    injector: FaultInjector | None = None,
) -> ReputationSystem:
    base: ReputationSystem
    if config.system.base is SystemKind.EIGENTRUST:
        base = EigenTrust(
            config.n_nodes,
            config.pretrusted_ids,
            pretrust_weight=config.pretrust_weight,
        )
    elif config.system.base is SystemKind.POWERTRUST:
        base = PowerTrust(
            config.n_nodes,
            n_power_nodes=config.n_pretrusted,
            power_weight=config.pretrust_weight,
        )
    elif config.system.base is SystemKind.TRUSTGUARD:
        base = SimilarityWeightedModel(config.n_nodes)
    elif config.system.base is SystemKind.GOSSIP:
        base = GossipTrust(config.n_nodes)
    else:
        base = EBayModel(config.n_nodes, cycle_aggregation=config.ebay_aggregation)
    if not config.system.uses_socialtrust:
        return base
    if config.n_managers:
        return DistributedSocialTrust(
            base, network, interactions, profiles, config.socialtrust,
            n_managers=config.n_managers,
            injector=injector,
            observability=observability,
        )
    return SocialTrust(
        base, network, interactions, profiles, config.socialtrust,
        observability=observability,
    )


def _redraw_low_overlap_interests(
    interests: list[frozenset[int]],
    colluding_pairs: list[tuple[int, int]],
    colluder_set: set[int],
    n_interests: int,
    rng: RngStream,
) -> list[frozenset[int]]:
    """Give each colluding pair (near-)disjoint declared interest sets.

    For every pair exactly one endpoint is redrawn (a colluder, never a
    compromised pre-trusted node if the other side qualifies) while the
    other endpoint anchors its original set, so a node involved in several
    pairs stays consistent.  The redrawn set keeps its original size where
    the interest universe allows.
    """
    out = list(interests)
    redraw: set[int] = set()
    anchors: set[int] = set()
    partners: dict[int, set[int]] = {}
    for x, y in colluding_pairs:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
        if x in redraw or y in redraw:
            continue
        # Prefer redrawing the colluder endpoint that is not yet an anchor.
        for candidate, other in ((x, y), (y, x)):
            if candidate in colluder_set and candidate not in anchors:
                redraw.add(candidate)
                anchors.add(other)
                break
    for node in sorted(redraw):
        avoid: set[int] = set()
        for partner in partners[node]:
            if partner not in redraw:
                avoid |= out[partner]
        pool = [v for v in range(n_interests) if v not in avoid]
        if not pool:
            continue
        k = min(len(out[node]), len(pool))
        out[node] = frozenset(
            int(v) for v in rng.choice(pool, size=k, replace=False)
        )
    return out


def build_world(
    config: WorldConfig,
    seed: int = 0,
    run_index: int = 0,
    *,
    observability: Observability | None = None,
) -> BuiltWorld:
    """Assemble one fully wired simulation cell.

    ``(seed, run_index)`` key independent RNG streams, so repeated runs of
    the same cell differ while remaining reproducible.  ``observability``
    (optional) is threaded through the simulator, engine and SocialTrust
    stack; it never touches an RNG stream, so an observed run is
    numerically identical to an unobserved one.
    """
    rng = spawn_rng(seed, run_index)
    population = Population.build(
        config.n_nodes,
        rng,
        pretrusted_ids=config.pretrusted_ids,
        malicious_ids=config.colluder_ids,
        n_interests=config.n_interests,
        interests_per_node=config.interests_per_node,
        capacity=config.capacity,
        malicious_authentic_prob=config.colluder_b,
    )
    interests = [spec.interests for spec in population]
    schedule, compromised, colluding_pairs = _build_schedule(config, interests, rng)
    if config.colluder_low_interest_overlap and colluding_pairs:
        interests = _redraw_low_overlap_interests(
            interests,
            colluding_pairs,
            set(config.colluder_ids),
            config.n_interests,
            rng,
        )
        population = Population(
            [replace(spec, interests=interests[spec.node_id]) for spec in population]
        )
    overlay = InterestOverlay(interests, config.n_interests)
    # The colluding cliques sit at social distance 1; compromised
    # pre-trusted nodes are pinned to distance 1 from their partner too.
    network = paper_social_network(
        config.n_nodes,
        config.colluder_ids,
        rng,
        colluder_distance=config.colluder_distance,
    )
    if compromised:
        # Re-generate with the extra distance-1 pinnings.
        colluder_pairs = [
            (a, b)
            for ai, a in enumerate(config.colluder_ids)
            for b in config.colluder_ids[ai + 1 :]
        ]
        pinned = colluder_pairs + [
            (p, c) for (p, c) in colluding_pairs if p in compromised
        ]
        distances = assigned_distance_matrix(
            config.n_nodes, rng, unit_distance_pairs=pinned
        )
        network = assign_relationships(
            distances, set(config.colluder_ids) | set(compromised), rng
        )
    interactions = InteractionLedger(config.n_nodes)
    profiles = InterestProfiles(config.n_nodes, config.n_interests)
    for spec in population:
        profiles.set_declared(spec.node_id, spec.interests)
    if config.falsified_social_info:
        falsify_single_relationship(network, colluding_pairs)
        groups = [[a, b] for a, b in colluding_pairs]
        falsify_identical_interests(
            profiles,
            groups,
            rng,
            set_size_range=(1, min(10, config.n_interests)),
        )
    injector = None
    if config.faults is not None or config.chaos is not None:
        fault_config = config.faults if config.faults is not None else FaultConfig()
        # A dedicated stream (0xFA) keyed next to the simulation's own:
        # fault randomness never perturbs the simulation RNG, so a
        # zero-rate injector run stays bit-identical to an injector-free
        # one (and a chaos run diffs cleanly against its fault-free twin).
        fault_rng = spawn_rng(seed, run_index, 0xFA)
        if config.chaos is not None and not config.chaos.empty:
            fault_schedule = config.chaos.to_schedule(fault_config)
        else:
            fault_schedule = FaultSchedule(fault_config, fault_rng)
        injector = FaultInjector(
            config.n_nodes,
            config=fault_config,
            rng=fault_rng,
            schedule=fault_schedule,
        )
    system = _build_system(
        config, network, interactions, profiles, observability, injector
    )
    simulation = Simulation(
        population,
        overlay,
        system,
        rng,
        config=SimulationConfig(
            simulation_cycles=config.simulation_cycles,
            query_cycles_per_simulation_cycle=config.query_cycles,
            selection_policy=config.selection_policy,
            selection_exploration=config.selection_exploration,
        ),
        collusion=schedule,
        interactions=interactions,
        profiles=profiles,
        fault_injector=injector,
        observability=observability,
    )
    return BuiltWorld(
        config=config,
        simulation=simulation,
        system=system,
        population=population,
        social_network=network,
        interactions=interactions,
        profiles=profiles,
        collusion=schedule,
        compromised_pretrusted=compromised,
        observability=observability,
    )
