"""Record a batch scenario run as a replayable event stream.

The recorder runs a scenario on the simulation's own query engine with a
:class:`~repro.p2p.engine.LedgerObserver` attached, and writes down every
behavioural-ledger mutation as a typed service event:

* a serviced request (a flushed row with an interest) →
  :class:`~repro.serve.events.RatingEvent` carrying the interest.  The
  service re-expands it into the rating, interaction and interest-request
  increments the engine made;
* a collusion burst (a flushed row past the requests) → a
  ``count``-carrying :class:`~repro.serve.events.RatingEvent` with no
  interest;
* a churn ``decay_nodes`` call →
  :class:`~repro.serve.events.ChurnEvent`;
* each completed simulation cycle →
  :class:`~repro.serve.events.WatermarkEvent`.

Observing never changes the run, and the recorder also captures the
per-cycle reputation vectors, so equivalence tests can compare a
streamed replay against the *same process's* batch history bit-for-bit.

The service applies events to the ledgers only; it never advances the
fault injector.  A spec whose reputation update reads injector state —
distributed managers (``n_managers``) under ``faults`` or ``chaos`` —
cannot replay what it recorded, so :func:`record_scenario_events`
rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import ScenarioSpec, build_scenario
from repro.serve.events import ChurnEvent, Event, RatingEvent, WatermarkEvent

__all__ = ["RecordedStream", "record_scenario_events"]


@dataclass(frozen=True)
class RecordedStream:
    """One recorded run: the spec it replays against, the events, and the
    batch run's per-cycle reputation history for strict comparison."""

    spec: ScenarioSpec
    events: tuple[Event, ...]
    #: Post-update reputation vectors, shape ``(cycles, n_nodes)``.
    batch_history: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.events)


class _EventRecorder:
    """A :class:`~repro.p2p.engine.LedgerObserver` that turns ledger
    mutations into service events."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def flushed(self, raters, ratees, values, counts, interests) -> None:
        served = len(interests)
        interests = interests.tolist()
        for i, (rater, ratee, value, count) in enumerate(
            zip(raters.tolist(), ratees.tolist(), values.tolist(), counts.tolist())
        ):
            if i < served:
                event = RatingEvent(rater, ratee, value, interest=interests[i])
            else:
                event = RatingEvent(rater, ratee, value, count=int(count))
            self.events.append(event)

    def decayed(self, nodes, factor) -> None:
        # A factor of 1.0 leaves the ledger unchanged: nothing to replay.
        if factor != 1.0:
            self.events.append(ChurnEvent(nodes=nodes, factor=float(factor)))


def record_scenario_events(spec: ScenarioSpec, cycles: int | None = None) -> RecordedStream:
    """Run ``spec`` in batch and capture its event stream.

    Raises ``ValueError`` for a spec whose reputation update reads
    fault-injector state (``n_managers`` with ``faults`` or ``chaos``):
    the service does not advance the injector, so its replay would see a
    different partition, Byzantine and crash state.
    """
    world = spec.world
    injected = [name for name in ("faults", "chaos") if world.get(name) is not None]
    if world.get("n_managers") and injected:
        raise ValueError(
            f"cannot record a spec with n_managers={world['n_managers']} and "
            f"{'/'.join(injected)}: the manager layer reads fault-injector "
            f"state that a streamed replay does not advance"
        )
    scenario = build_scenario(spec)
    simulation = scenario.world.simulation
    cycles = (
        cycles
        if cycles is not None
        else scenario.config.simulation_cycles
    )
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    recorder = _EventRecorder()
    simulation.attach_observer(recorder)
    history: list[np.ndarray] = []
    for cycle in range(cycles):
        reputations = simulation.run_simulation_cycle()
        recorder.events.append(WatermarkEvent(cycle=cycle))
        history.append(np.array(reputations, dtype=np.float64, copy=True))
    return RecordedStream(
        spec=spec,
        events=tuple(recorder.events),
        batch_history=np.vstack(history),
    )
