"""Stable, typed, versioned facade over the simulation stack.

Before this module existed, every entry point — ``examples/quickstart.py``,
``examples/reproduce_paper.py``, the CLI — hand-wired the same dozen
objects (population, overlay, social network, ledgers, reputation stack,
collusion schedule, simulator).  The facade collapses that wiring into two
calls:

>>> from repro.api import build_scenario
>>> scenario = build_scenario(
...     n_nodes=100, n_colluders=20, collusion="pcm",
...     system="EigenTrust+SocialTrust", simulation_cycles=15, seed=42,
... )
>>> result = scenario.run()
>>> print(result.summary())            # doctest: +SKIP

The scenario surface has two equivalent spellings:

* the **keyword bag** shown above — every
  :class:`~repro.experiments.setup.WorldConfig` field as a keyword, enums
  accepted as strings;
* the **typed spec**: a frozen :class:`ScenarioSpec` value carrying the
  same information, hashable, JSON-round-trippable
  (:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`), and
  accepted positionally by :func:`build_scenario` / :func:`run_scenario`.
  Golden traces, checkpoints and the streaming service all describe
  scenarios through the spec's flat build-keyword form
  (:meth:`ScenarioSpec.build_kwargs`), so one self-describing contract
  covers every persisted artifact.

:func:`run_scenario` builds and runs in one step, and
:class:`ScenarioResult` bundles the reputations, history, metrics, and
per-group summaries a caller typically prints.  Registered table/figure
experiments stay reachable through :func:`list_experiments` /
:func:`run_experiment`.  The event types of the streaming service
(:class:`~repro.serve.events.RatingEvent` and friends) are re-exported
here so ``repro.api`` is the one import a service client needs.

:data:`API_VERSION` names this surface; it is bumped on any breaking
change so downstream callers can assert compatibility explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.setup import (
    BuiltWorld,
    CollusionKind,
    SystemKind,
    WorldConfig,
    build_world,
)
from repro.obs import Observability
from repro.p2p import MetricsCollector, Simulation

__all__ = [
    "API_VERSION",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "SystemKind",
    "CollusionKind",
    "build_scenario",
    "run_scenario",
    "list_experiments",
    "run_experiment",
]

#: Version of the public scenario/event surface (``major.minor``): the
#: minor bumps on compatible additions, the major on breaking changes.
#: 2.0 introduced :class:`ScenarioSpec`, the typed :func:`run_scenario`
#: signature, and the streaming-service event types; 3.0 dropped the
#: legacy keyword aliases (``cycles=``, ``policy=``, ``progress=``, ...)
#: and folded ``SparseDetectionResult`` into ``DetectionResult``.
API_VERSION = "3.0"

#: The socialtrust-wrapped counterpart of each base reputation stack.
_SOCIALTRUST_OF = {
    SystemKind.EIGENTRUST: SystemKind.EIGENTRUST_SOCIALTRUST,
    SystemKind.EBAY: SystemKind.EBAY_SOCIALTRUST,
    SystemKind.POWERTRUST: SystemKind.POWERTRUST_SOCIALTRUST,
}


def _canon(label: str) -> str:
    """Case/punctuation-insensitive key for enum lookup by string."""
    return "".join(ch for ch in label.lower() if ch.isalnum())


_SYSTEM_BY_NAME = {
    _canon(label): kind
    for kind in SystemKind
    for label in (kind.value, kind.name)
}
_COLLUSION_BY_NAME = {
    _canon(label): kind
    for kind in CollusionKind
    for label in (kind.value, kind.name)
}


def _resolve_system(
    system: SystemKind | str, use_socialtrust: bool | None
) -> SystemKind:
    if isinstance(system, str):
        try:
            system = _SYSTEM_BY_NAME[_canon(system)]
        except KeyError:
            options = sorted({kind.value for kind in SystemKind})
            raise ValueError(
                f"unknown reputation system {system!r}; choose from {options}"
            ) from None
    if use_socialtrust is None:
        return system
    if use_socialtrust:
        return _SOCIALTRUST_OF.get(system, system)
    return system.base


def _resolve_collusion(collusion: CollusionKind | str) -> CollusionKind:
    if isinstance(collusion, str):
        try:
            return _COLLUSION_BY_NAME[_canon(collusion)]
        except KeyError:
            options = sorted({kind.value for kind in CollusionKind})
            raise ValueError(
                f"unknown collusion model {collusion!r}; choose from {options}"
            ) from None
    return collusion


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a finished scenario run typically gets asked for.

    Wraps the raw :class:`~repro.p2p.MetricsCollector` (still available as
    :attr:`metrics`) with the final reputation vector, the per-interval
    reputation history, and per-group convenience summaries.
    """

    config: WorldConfig
    seed: int
    run_index: int
    world: BuiltWorld
    metrics: MetricsCollector
    #: Final reputation vector (one entry per node).
    reputations: np.ndarray
    #: Reputation snapshots, shape ``(n_intervals, n_nodes)``.
    history: np.ndarray
    #: The run's tracer/metrics/audit bundle (None unless the scenario was
    #: built with ``observability=...``); see :mod:`repro.obs`.
    observability: Observability | None = None

    @property
    def colluder_ids(self) -> tuple[int, ...]:
        return self.config.colluder_ids

    @property
    def pretrusted_ids(self) -> tuple[int, ...]:
        return self.config.pretrusted_ids

    @property
    def normal_ids(self) -> tuple[int, ...]:
        return self.config.normal_ids

    def _group_mean(self, ids: tuple[int, ...]) -> float:
        if not ids:
            return float("nan")
        return float(self.reputations[list(ids)].mean())

    @property
    def colluder_mean(self) -> float:
        """Mean final reputation over the colluders (NaN when none)."""
        return self._group_mean(self.colluder_ids)

    @property
    def pretrusted_mean(self) -> float:
        """Mean final reputation over the pre-trusted nodes (NaN when none)."""
        return self._group_mean(self.pretrusted_ids)

    @property
    def normal_mean(self) -> float:
        """Mean final reputation over the normal nodes (NaN when none)."""
        return self._group_mean(self.normal_ids)

    @property
    def colluder_request_share(self) -> float:
        """Fraction of served requests captured by the colluders."""
        return self.metrics.fraction_served_by(list(self.colluder_ids))

    def summary(self) -> str:
        """Printable multi-line digest of the run."""
        cfg = self.config
        lines = [
            f"{cfg.system.value} | collusion={cfg.collusion.value} | "
            f"n={cfg.n_nodes} | seed={self.seed} run={self.run_index}",
            f"  cycles run               : {self.metrics.n_snapshots}",
            f"  colluder mean reputation : {self.colluder_mean:.5f}",
            f"  normal   mean reputation : {self.normal_mean:.5f}",
            f"  pretrusted mean reputation: {self.pretrusted_mean:.5f}",
            f"  requests captured by colluders: {self.colluder_request_share:.1%}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class Scenario:
    """A fully wired, not-yet-run simulation world.

    Produced by :func:`build_scenario`; call :meth:`run` to execute it.
    The underlying :class:`~repro.experiments.setup.BuiltWorld` stays
    reachable through :attr:`world` for callers that need the raw parts.
    """

    config: WorldConfig
    seed: int
    run_index: int
    world: BuiltWorld

    @property
    def simulation(self) -> Simulation:
        return self.world.simulation

    @property
    def observability(self) -> Observability | None:
        return self.world.observability

    def run(self, simulation_cycles: int | None = None) -> ScenarioResult:
        """Run the simulation (optionally overriding the cycle count)."""
        metrics = self.world.simulation.run(simulation_cycles)
        return ScenarioResult(
            config=self.config,
            seed=self.seed,
            run_index=self.run_index,
            world=self.world,
            metrics=metrics,
            reputations=metrics.final_reputations(),
            history=metrics.reputation_history(),
            observability=self.world.observability,
        )


_WORLD_FIELDS = frozenset(f.name for f in fields(WorldConfig))

#: WorldConfig fields a ScenarioSpec may override (system/collusion are
#: first-class spec fields, not world overrides).
_SPEC_WORLD_FIELDS = _WORLD_FIELDS - {"system", "collusion"}


@dataclass(frozen=True)
class ScenarioSpec:
    """Typed, immutable, serialisable description of one scenario.

    A spec is the value-object form of a :func:`build_scenario` call:
    which reputation ``system`` to run, which ``collusion`` model to
    schedule, the RNG identity ``(seed, run_index)``, and any
    :class:`~repro.experiments.setup.WorldConfig` overrides in ``world``
    (keyed by field name, e.g. ``{"n_nodes": 100, "engine": "batched"}``).

    ``system`` and ``collusion`` accept strings and are resolved to their
    enum members on construction; ``world`` is validated against the
    WorldConfig field set and frozen behind a read-only mapping, so a
    constructed spec is always well-formed.  Specs round-trip through
    plain JSON dicts (:meth:`to_dict` / :meth:`from_dict`), which is how
    recorded event streams and service checkpoints carry their scenario
    identity.

    >>> spec = ScenarioSpec.from_kwargs(
    ...     system="EigenTrust+SocialTrust", collusion="pcm",
    ...     seed=7, n_nodes=50, n_colluders=10,
    ... )
    >>> spec == ScenarioSpec.from_dict(spec.to_dict())
    True
    """

    system: SystemKind = SystemKind.EIGENTRUST
    collusion: CollusionKind = CollusionKind.NONE
    seed: int = 0
    run_index: int = 0
    world: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "system", _resolve_system(self.system, None)
        )
        object.__setattr__(
            self, "collusion", _resolve_collusion(self.collusion)
        )
        world = dict(self.world)
        unknown = sorted(set(world) - _SPEC_WORLD_FIELDS)
        if unknown:
            raise ValueError(
                f"ScenarioSpec.world got unknown WorldConfig field(s) "
                f"{unknown}; valid fields: {sorted(_SPEC_WORLD_FIELDS)}"
            )
        object.__setattr__(self, "world", MappingProxyType(world))

    def __hash__(self) -> int:
        return hash(
            (
                self.system,
                self.collusion,
                self.seed,
                self.run_index,
                tuple(sorted(self.world.items(), key=lambda kv: kv[0])),
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return (
            self.system is other.system
            and self.collusion is other.collusion
            and self.seed == other.seed
            and self.run_index == other.run_index
            and dict(self.world) == dict(other.world)
        )

    @classmethod
    def from_kwargs(
        cls,
        *,
        seed: int = 0,
        run_index: int = 0,
        system: SystemKind | str = SystemKind.EIGENTRUST,
        use_socialtrust: bool | None = None,
        collusion: CollusionKind | str = CollusionKind.NONE,
        **config_fields: Any,
    ) -> "ScenarioSpec":
        """Build a spec from the same keywords :func:`build_scenario` takes."""
        unknown = sorted(set(config_fields) - _SPEC_WORLD_FIELDS)
        if unknown:
            raise TypeError(
                f"ScenarioSpec.from_kwargs() got unknown keyword(s) "
                f"{unknown}; valid keywords are the WorldConfig fields "
                f"plus seed/run_index/system/use_socialtrust/collusion"
            )
        return cls(
            system=_resolve_system(system, use_socialtrust),
            collusion=_resolve_collusion(collusion),
            seed=seed,
            run_index=run_index,
            world=config_fields,
        )

    @classmethod
    def from_build(
        cls,
        build: Mapping[str, Any],
        *,
        seed: int = 0,
        run_index: int = 0,
    ) -> "ScenarioSpec":
        """Build a spec from a flat build-keyword mapping.

        ``build`` is the shape golden traces and checkpoint headers use:
        WorldConfig fields plus optional ``system`` / ``collusion`` string
        keys, e.g. ``{"system": "eBay+SocialTrust", "collusion": "mcm",
        "n_nodes": 30}``.
        """
        build = dict(build)
        return cls(
            system=_resolve_system(
                build.pop("system", SystemKind.EIGENTRUST), None
            ),
            collusion=_resolve_collusion(
                build.pop("collusion", CollusionKind.NONE)
            ),
            seed=seed,
            run_index=run_index,
            world=build,
        )

    def build_kwargs(self) -> dict[str, Any]:
        """Flat build mapping (inverse of :meth:`from_build`).

        Enum values come back as their string names, so the result is
        JSON-safe and matches the golden-trace / checkpoint header shape.
        """
        out: dict[str, Any] = {
            "system": self.system.value,
            "collusion": self.collusion.value,
        }
        out.update(self.world)
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: ``{system, collusion, seed, run_index, world}``."""
        return {
            "system": self.system.value,
            "collusion": self.collusion.value,
            "seed": self.seed,
            "run_index": self.run_index,
            "world": dict(self.world),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        data = dict(data)
        unknown = sorted(
            set(data) - {"system", "collusion", "seed", "run_index", "world"}
        )
        if unknown:
            raise ValueError(f"ScenarioSpec.from_dict: unknown key(s) {unknown}")
        return cls(
            system=data.get("system", SystemKind.EIGENTRUST),
            collusion=data.get("collusion", CollusionKind.NONE),
            seed=int(data.get("seed", 0)),
            run_index=int(data.get("run_index", 0)),
            world=data.get("world", {}),
        )

    def with_updates(self, **changes: Any) -> "ScenarioSpec":
        """Copy of this spec with field- or world-level overrides.

        Spec fields (``system``, ``collusion``, ``seed``, ``run_index``,
        ``world``) replace wholesale; any other keyword is treated as a
        WorldConfig override merged into :attr:`world`.
        """
        spec_fields = {"system", "collusion", "seed", "run_index", "world"}
        direct = {k: v for k, v in changes.items() if k in spec_fields}
        world_updates = {k: v for k, v in changes.items() if k not in spec_fields}
        world = dict(direct.pop("world", self.world))
        world.update(world_updates)
        return replace(self, world=world, **direct)


def build_scenario(
    spec: ScenarioSpec | None = None,
    *,
    seed: int = 0,
    run_index: int = 0,
    system: SystemKind | str = SystemKind.EIGENTRUST,
    use_socialtrust: bool | None = None,
    collusion: CollusionKind | str = CollusionKind.NONE,
    observability: bool | Observability | None = None,
    **config_fields,
) -> Scenario:
    """Build one fully wired scenario from a spec or keyword arguments.

    Pass either a :class:`ScenarioSpec` positionally (``observability`` is
    the only keyword that may accompany it) or the keyword bag:
    ``system`` and ``collusion`` accept the enum members or their string
    names (``"EigenTrust+SocialTrust"``, ``"pcm"``, ...); setting
    ``use_socialtrust`` swaps a base system for its SocialTrust-wrapped
    variant (or back).  ``observability=True`` (or a pre-built
    :class:`~repro.obs.Observability`) attaches span tracing, the metrics
    registry and the detector audit log; the bundle comes back on
    :attr:`Scenario.observability` / :attr:`ScenarioResult.observability`.
    Every other keyword must be a
    :class:`~repro.experiments.setup.WorldConfig` field and is forwarded
    verbatim.  ``(seed, run_index)`` key the RNG streams exactly as
    :func:`~repro.experiments.setup.build_world` does.
    """
    if spec is not None:
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"build_scenario() positional argument must be a "
                f"ScenarioSpec, got {type(spec).__name__}"
            )
        if (
            config_fields
            or seed != 0
            or run_index != 0
            or system is not SystemKind.EIGENTRUST
            or use_socialtrust is not None
            or collusion is not CollusionKind.NONE
        ):
            raise TypeError(
                "build_scenario() takes either a ScenarioSpec or scenario "
                "keywords, not both (observability may accompany a spec); "
                "use spec.with_updates(...) to vary a spec"
            )
        resolved_system = spec.system
        resolved_collusion = spec.collusion
        seed, run_index = spec.seed, spec.run_index
        config_fields = dict(spec.world)
    else:
        unknown = sorted(set(config_fields) - _WORLD_FIELDS)
        if unknown:
            raise TypeError(
                f"build_scenario() got unknown keyword(s) {unknown}; valid "
                f"keywords are the WorldConfig fields plus seed/run_index/"
                f"system/use_socialtrust/collusion/observability"
            )
        resolved_system = _resolve_system(system, use_socialtrust)
        resolved_collusion = _resolve_collusion(collusion)
    if observability is True:
        obs: Observability | None = Observability()
    elif observability is False:
        obs = None
    else:
        obs = observability
    config = WorldConfig(
        system=resolved_system,
        collusion=resolved_collusion,
        **config_fields,
    )
    world = build_world(config, seed=seed, run_index=run_index, observability=obs)
    return Scenario(config=config, seed=seed, run_index=run_index, world=world)


def run_scenario(
    spec: ScenarioSpec | None = None,
    *,
    seed: int = 0,
    run_index: int = 0,
    system: SystemKind | str = SystemKind.EIGENTRUST,
    use_socialtrust: bool | None = None,
    collusion: CollusionKind | str = CollusionKind.NONE,
    observability: bool | Observability | None = None,
    **config_fields,
) -> ScenarioResult:
    """Build and run a scenario in one call.

    Mirrors :func:`build_scenario` exactly — a :class:`ScenarioSpec`
    positionally, or the explicit keyword surface (``seed``,
    ``run_index``, ``system``, ``use_socialtrust``, ``collusion``,
    ``observability``, plus any WorldConfig field such as
    ``simulation_cycles``) — then runs the world to completion.
    """
    return build_scenario(
        spec,
        seed=seed,
        run_index=run_index,
        system=system,
        use_socialtrust=use_socialtrust,
        collusion=collusion,
        observability=observability,
        **config_fields,
    ).run()


def run_experiment(experiment_id: str, **kwargs):
    """Run one registered table/figure experiment and return its result.

    Thin wrapper over the :mod:`repro.experiments.registry` lookup so the
    CLI and the reproduction script share a single audited entry point;
    ``kwargs`` (``n_runs``, ``simulation_cycles``, ``seed``, ...) are
    forwarded to the experiment callable.
    """
    return get_experiment(experiment_id)(**kwargs)


# The streaming-service event surface is part of the public API.  The
# event module is a leaf (it never imports repro.api), so this import is
# cycle-safe in both directions; ReputationService lives higher in the
# stack and is re-exported lazily below.
from repro.serve.events import (  # noqa: E402
    ChurnEvent,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    WatermarkEvent,
)

__all__ += [
    "RatingEvent",
    "InteractionEvent",
    "ChurnEvent",
    "WatermarkEvent",
    "QueryRequest",
    "QueryResult",
    "ReputationService",
]


def __getattr__(name: str):
    # Lazy so that `import repro.serve` → `import repro.api` doesn't
    # recurse back into the partially initialised serve package.
    if name == "ReputationService":
        from repro.serve.service import ReputationService

        return ReputationService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
