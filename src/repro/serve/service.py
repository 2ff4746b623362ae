"""The long-lived streaming reputation service.

:class:`ReputationService` owns one scenario world (built from a
:class:`~repro.api.ScenarioSpec`) and keeps its reputation state live
while events arrive, instead of running the batch cycle loop:

* mutation events (:class:`~repro.serve.events.RatingEvent`,
  :class:`~repro.serve.events.InteractionEvent`) are validated one by
  one — a rejected event raises in its own :meth:`~ReputationService.apply`
  and leaves no trace — and an accepted one is *buffered*: its columns
  (rater, ratee, value, count, interest, plus an interaction row) are
  appended to plain lists in arrival order;
* the buffer is flushed into the incremental ledgers — the same
  dirty-row-versioned structures the Ωc/Ωs caches key on — with the
  engine's three batched writes (``RatingLedger.record_many``,
  ``InteractionLedger.record_many``, ``InterestProfiles.record_requests``)
  before a watermark drains, before a :class:`~repro.serve.events.ChurnEvent`
  decays interaction history, when a checkpoint is taken, and whenever
  it reaches :data:`FLUSH_ROWS` rows, so a stream with no watermarks
  holds bounded memory;
* a :class:`~repro.serve.events.WatermarkEvent` (or the
  ``interval_events`` auto-watermark) drains the interval ledger and runs
  the full SocialTrust detector + damping + inner reputation update;
* :class:`~repro.serve.events.QueryRequest` reads — reputation lookups
  and damping-weight probes — are answered from the live caches in O(1)
  without touching state.  They never flush: SocialTrust reads its
  inputs only at the watermark, so a pending event is invisible to every
  reader until then whether or not it has reached a ledger.

Because every ledger increment is an exact float64 integer step,
``np.add.at`` applies a flush's increments unbuffered in arrival order,
and the update at a watermark consumes exactly the drained interval,
streaming a recorded scenario event-by-event reproduces the batch run's
reputation vectors **bit-identically** at each watermark (pinned by the
replay equivalence tests in ``tests/serve/``).

The service runs sync (:meth:`ReputationService.apply` /
:meth:`ReputationService.serve_events`) or async: an
``asyncio.Queue``-fed ingestion loop (:meth:`ReputationService.run`)
with backpressure-aware :meth:`ReputationService.submit`, load-shedding
:meth:`ReputationService.submit_nowait`, and future-based
:meth:`ReputationService.query_async`.  A submitted event the service
refuses is counted (``serve.events.rejected``) and the loop keeps
consuming.  Operational state — queue depth, shed and rejection counts,
per-kind event counters, per-interval top-rater share (the rating-flood
signal), update duration and query latency histograms — is published
through a :class:`repro.obs.MetricsRegistry`.

Snapshots reuse the chaos checkpoint codec: :meth:`save_snapshot` writes
a ``kind="service"`` checkpoint carrying the simulation state plus the
service's own progress counters, and
:meth:`ReputationService.from_checkpoint` resumes it, mid-stream, to the
exact pre-kill state.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, AsyncIterable, Iterable, Mapping

import numpy as np

from repro.api import ScenarioSpec, build_scenario
from repro.obs import QUERY_LATENCY_BUCKETS, MetricsRegistry, Observability
from repro.obs.export import TelemetrySink
from repro.obs.health import HealthMonitor
from repro.serve.events import (
    ChurnEvent,
    Event,
    InteractionEvent,
    QueryRequest,
    QueryResult,
    RatingEvent,
    WatermarkEvent,
)

__all__ = ["FLUSH_ROWS", "EventRejected", "ReputationService", "ServiceError"]

#: Sentinel that tells the ingestion loop to drain out and stop.
_STOP = object()

#: Buffered interaction rows (one per rating or interaction event) at
#: which the ingest buffer is flushed without waiting for a watermark.
FLUSH_ROWS = 4096


class ServiceError(RuntimeError):
    """The service cannot make progress (not a malformed-input error)."""


class EventRejected(Exception):
    """:meth:`ReputationService.apply` refused one event before touching
    any state: a node out of range, a self-pair, a bad count or interest,
    a stale watermark, or an object that is not a service event.

    The async ingestion loop counts these and keeps consuming; any other
    error (a failed flush, update or snapshot) ends the loop.  Each
    refusal is also the type it always was: a ``ValueError`` for a bad
    field, a :class:`ServiceError` for a stale watermark, a ``TypeError``
    for a non-event.
    """


class _InvalidEvent(EventRejected, ValueError):
    pass


class _StaleWatermark(EventRejected, ServiceError):
    pass


class _NotAnEvent(EventRejected, TypeError):
    pass


class ReputationService:
    """Event-driven, query-serving wrapper around one scenario world.

    Parameters
    ----------
    spec:
        The scenario to serve.  The world (population, social graph,
        reputation stack, collusion *structure* — not its scripted
        traffic) is built exactly as :func:`repro.api.build_scenario`
        would, so a recorded batch run and a streamed replay share their
        initial state bit-for-bit.
    interval_events:
        Auto-watermark: run the reputation update after this many
        mutation events when the stream carries no explicit
        :class:`~repro.serve.events.WatermarkEvent`.  ``None`` (default)
        means watermarks are driven only by events / explicit calls.
    observability:
        Metrics/tracing bundle; created (tracing off) when omitted.
    queue_maxsize:
        Capacity of the async ingestion queue; :meth:`submit` blocks
        (backpressure) and :meth:`submit_nowait` sheds when full.
    snapshot_path / snapshot_every:
        When both are set, a service checkpoint is written to
        ``snapshot_path`` after every ``snapshot_every``-th watermark.
    telemetry_sink:
        A :class:`repro.obs.TelemetrySink`; when set, a registry snapshot
        is appended to its JSONL time series at each watermark (subject
        to the sink's ``every`` subsampling).
    health:
        A :class:`repro.obs.HealthMonitor`; when set, its SLO rules are
        evaluated against the registry at each watermark and transition
        events flow to ``telemetry_sink`` (if the monitor carries it).
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        interval_events: int | None = None,
        observability: Observability | None = None,
        queue_maxsize: int = 8192,
        snapshot_path: Any | None = None,
        snapshot_every: int | None = None,
        telemetry_sink: TelemetrySink | None = None,
        health: HealthMonitor | None = None,
    ) -> None:
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(
                f"spec must be a ScenarioSpec, got {type(spec).__name__}"
            )
        if interval_events is not None and interval_events < 1:
            raise ValueError(f"interval_events must be >= 1, got {interval_events}")
        if snapshot_every is not None:
            if snapshot_every < 1:
                raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
            if snapshot_path is None:
                raise ValueError("snapshot_every requires snapshot_path")
        self._spec = spec
        self._obs = observability or Observability(tracing=False)
        self._scenario = build_scenario(spec)
        self._sim = self._scenario.world.simulation
        self._system = self._sim.system
        self._ledger = self._sim.ledger
        self._interactions = self._sim.interactions
        self._profiles = self._sim.profiles
        self._n = self._ledger.n_nodes
        self._k = self._profiles.n_interests
        self._interval_events = interval_events
        self._snapshot_path = snapshot_path
        self._snapshot_every = snapshot_every
        self._events_applied = 0
        self._events_this_interval = 0
        self._intervals_run = 0
        self._history: list[np.ndarray] = []
        # Per-rater mutation-event counts within the current interval —
        # the RepRank-style rating-flood signal.  Accumulated at each
        # flush; the top-share gauge is published at each watermark.
        self._interval_rater_events = np.zeros(self._n, dtype=np.int64)
        self._clear_buffer()
        self._queue: asyncio.Queue | None = None
        self._queue_maxsize = queue_maxsize
        self._running = False
        self._sink = telemetry_sink
        self._health = health
        self._last_watermark_time = time.perf_counter()
        metrics = self._obs.metrics
        self._c_rating = metrics.counter("serve.events.rating")
        self._c_interaction = metrics.counter("serve.events.interaction")
        self._c_churn = metrics.counter("serve.events.churn")
        self._c_watermark = metrics.counter("serve.events.watermark")
        self._c_total = metrics.counter("serve.events.total")
        self._c_queries = metrics.counter("serve.queries")
        self._c_shed = metrics.counter("serve.queue.shed")
        self._c_rejected = metrics.counter("serve.events.rejected")
        self._g_depth = metrics.gauge("serve.queue.depth")
        self._g_flood = metrics.gauge("serve.flood.top_rater_share")
        self._g_rate = metrics.gauge("serve.interval.events_per_sec")
        self._h_query = metrics.histogram(
            "serve.query.latency", buckets=QUERY_LATENCY_BUCKETS
        )
        self._h_update = metrics.histogram("serve.update.seconds")

    # -- introspection -------------------------------------------------------

    @property
    def spec(self) -> ScenarioSpec:
        return self._spec

    @property
    def observability(self) -> Observability:
        return self._obs

    @property
    def metrics(self) -> MetricsRegistry:
        return self._obs.metrics

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def telemetry_sink(self) -> TelemetrySink | None:
        return self._sink

    @property
    def health(self) -> HealthMonitor | None:
        return self._health

    def health_report(self) -> dict[str, Any] | None:
        """The health monitor's end-of-run report (``None`` when the
        service carries no monitor)."""
        return self._health.report() if self._health is not None else None

    @property
    def events_applied(self) -> int:
        """Mutation events applied since construction/restore."""
        return self._events_applied

    @property
    def intervals_run(self) -> int:
        """Reputation-update watermarks run since construction/restore."""
        return self._intervals_run

    @property
    def cycles_run(self) -> int:
        """Alias of :attr:`intervals_run` (checkpoint-header duck type)."""
        return self._intervals_run

    @property
    def reputations(self) -> np.ndarray:
        """The live reputation vector (read-only view semantics: copy)."""
        return np.array(self._system.reputations, dtype=np.float64, copy=True)

    @property
    def history(self) -> np.ndarray:
        """Post-watermark reputation snapshots, shape ``(intervals, n)``."""
        if not self._history:
            return np.zeros((0, self._n), dtype=np.float64)
        return np.vstack(self._history)

    # -- the synchronous core ------------------------------------------------

    def apply(self, event: Event) -> QueryResult | np.ndarray | None:
        """Apply one event to the live state.

        Returns the :class:`QueryResult` for a query, the post-update
        reputation vector for a watermark, ``None`` otherwise.

        Dispatch is on the exact record type: the event kinds are final.
        A rating or interaction is checked against the world (node range,
        self-pair, count, interest range) before any column is appended,
        so a rejected event raises :class:`EventRejected` here and leaves
        nothing behind.
        """
        kind = type(event)
        if kind is RatingEvent:
            source, target, value, count, interest = event
            n = self._n
            if not (0 <= source < n and 0 <= target < n and source != target):
                self._check_pair(source, target)
            if not count >= 1:
                raise _InvalidEvent(f"count must be >= 1, got {count}")
            if interest is not None:
                if not 0 <= interest < self._k:
                    raise _InvalidEvent(
                        f"interest {interest} out of range [0, {self._k})"
                    )
                self._q_nodes.append(source)
                self._q_interests.append(interest)
            self._r_raters.append(source)
            self._r_ratees.append(target)
            self._r_values.append(value)
            self._r_counts.append(count)
            self._c_rating.inc()
            self._i_sources.append(source)
            self._i_targets.append(target)
            self._i_counts.append(count)
        elif kind is InteractionEvent:
            source, target, count = event
            n = self._n
            if not (0 <= source < n and 0 <= target < n and source != target):
                self._check_pair(source, target)
            if not count > 0:
                raise _InvalidEvent(f"count must be positive, got {count}")
            self._c_interaction.inc()
            self._i_sources.append(source)
            self._i_targets.append(target)
            self._i_counts.append(count)
        elif kind is QueryRequest:
            return self.query(event)
        elif kind is WatermarkEvent:
            return self._apply_watermark(event)
        elif kind is ChurnEvent:
            self._apply_churn(event)
        else:
            raise _NotAnEvent(f"not a service event: {kind.__name__}")
        self._events_applied += 1
        self._events_this_interval += 1
        self._c_total.inc()
        if len(self._i_sources) >= FLUSH_ROWS:
            self._flush()
        if (
            self._interval_events is not None
            and self._events_this_interval >= self._interval_events
        ):
            return self.run_watermark()
        return None

    def _check_nodes(self, *nodes: int) -> None:
        """Reject an out-of-range node id before any state is read or
        touched (a negative id would otherwise wrap to another row)."""
        for node in nodes:
            if not 0 <= node < self._n:
                raise _InvalidEvent(f"node {node} out of range [0, {self._n})")

    def _check_pair(self, source: int, target: int) -> None:
        """The endpoint checks the ledgers would make at flush time, made
        now so a bad event is refused by its own :meth:`apply`."""
        self._check_nodes(source, target)
        if source == target:
            raise _InvalidEvent(f"self-pair {source} -> {target} is not allowed")

    def _clear_buffer(self) -> None:
        self._r_raters: list[int] = []
        self._r_ratees: list[int] = []
        self._r_values: list[float] = []
        self._r_counts: list[int] = []
        self._q_nodes: list[int] = []
        self._q_interests: list[int] = []
        self._i_sources: list[int] = []
        self._i_targets: list[int] = []
        self._i_counts: list[float] = []

    def _flush(self) -> None:
        """Write the buffered columns into the ledgers, in arrival order.

        The same three batched calls as the engine's flush: rating ledger,
        interaction frequency, then the behavioural interest counter.
        Each is bit-identical to the per-event scalar writes it replaces
        (``np.add.at`` is unbuffered and in order).
        """
        if not self._i_sources:
            return
        sources = np.array(self._i_sources, dtype=np.int64)
        if self._r_raters:
            self._ledger.record_many(
                np.array(self._r_raters, dtype=np.int64),
                np.array(self._r_ratees, dtype=np.int64),
                np.array(self._r_values, dtype=np.float64),
                np.array(self._r_counts, dtype=np.float64),
            )
        self._interactions.record_many(
            sources,
            np.array(self._i_targets, dtype=np.int64),
            np.array(self._i_counts, dtype=np.float64),
        )
        if self._q_nodes:
            self._profiles.record_requests(
                np.array(self._q_nodes, dtype=np.int64),
                np.array(self._q_interests, dtype=np.int64),
            )
        self._interval_rater_events += np.bincount(sources, minlength=self._n)
        self._clear_buffer()

    def _apply_churn(self, event: ChurnEvent) -> None:
        self._check_nodes(*event.nodes)
        self._flush()
        self._interactions.decay_nodes(
            np.asarray(event.nodes, dtype=np.int64), event.factor
        )
        self._c_churn.inc()

    def _apply_watermark(self, event: WatermarkEvent) -> np.ndarray:
        if event.cycle is not None and event.cycle < self._intervals_run:
            raise _StaleWatermark(
                f"watermark cycle {event.cycle} is behind the service "
                f"({self._intervals_run} intervals already run)"
            )
        return self.run_watermark()

    def run_watermark(self) -> np.ndarray:
        """Drain the interval and run the reputation update; returns the
        updated reputation vector."""
        self._flush()
        interval = self._ledger.drain()
        start = time.perf_counter()
        with self._obs.tracer.span("serve.watermark"):
            reputations = self._system.update(interval)
        now = time.perf_counter()
        self._h_update.observe(now - start)
        self._intervals_run += 1
        self._c_watermark.inc()
        self._history.append(np.array(reputations, dtype=np.float64, copy=True))
        total = int(self._interval_rater_events.sum())
        self._g_flood.set(
            float(self._interval_rater_events.max()) / total if total else 0.0
        )
        # Wall-clock ingest rate over the interval just closed.  A gauge
        # only — never feeds back into the (bit-exact) numerics.
        elapsed = now - self._last_watermark_time
        self._g_rate.set(self._events_this_interval / elapsed if elapsed > 0 else 0.0)
        self._last_watermark_time = now
        self._interval_rater_events[:] = 0
        self._events_this_interval = 0
        # Telemetry first so the health monitor judges the same snapshot
        # the time series records; transitions land after their snapshot.
        if self._sink is not None:
            self._sink.emit(
                self._obs.metrics,
                interval=self._intervals_run,
                events_applied=self._events_applied,
            )
        if self._health is not None:
            self._health.observe(self._obs.metrics, interval=self._intervals_run)
        if (
            self._snapshot_every is not None
            and self._intervals_run % self._snapshot_every == 0
        ):
            self.save_snapshot()
        return np.array(reputations, dtype=np.float64, copy=True)

    def query(self, request: QueryRequest) -> QueryResult:
        """Answer one read probe from the live caches."""
        start = time.perf_counter()
        result = self._answer(request)
        self._h_query.observe(time.perf_counter() - start)
        self._c_queries.inc()
        return result

    def _pair_weight(self, rater: int, ratee: int) -> float:
        self._check_nodes(rater, ratee)
        pair_weight = getattr(self._system, "pair_weight", None)
        if pair_weight is None:
            # Base systems never damp: every pair carries full weight.
            return 1.0
        return pair_weight(rater, ratee)

    def serve_events(self, events: Iterable[Event]) -> int:
        """Apply a whole iterable of events synchronously; returns the
        number of events consumed (queries included)."""
        consumed = 0
        for event in events:
            self.apply(event)
            consumed += 1
        return consumed

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> dict:
        """Full mutable service state (simulation state + progress).

        Flushes the ingest buffer first, so the state carries every event
        applied so far and a restore starts with an empty buffer.
        """
        self._flush()
        return {
            "simulation": self._sim.checkpoint(),
            "events_applied": self._events_applied,
            "events_this_interval": self._events_this_interval,
            "intervals_run": self._intervals_run,
            "history": [h.copy() for h in self._history],
            "interval_rater_events": self._interval_rater_events.copy(),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`checkpoint` payload (same spec required)."""
        self._sim.resume(dict(state["simulation"]))
        self._clear_buffer()
        self._events_applied = int(state["events_applied"])
        self._events_this_interval = int(state["events_this_interval"])
        self._intervals_run = int(state["intervals_run"])
        self._history = [
            np.asarray(h, dtype=np.float64).copy() for h in state["history"]
        ]
        self._interval_rater_events = np.asarray(
            state["interval_rater_events"], dtype=np.int64
        ).copy()

    def save_snapshot(self, path: Any | None = None):
        """Write a ``kind="service"`` checkpoint; returns its path."""
        # Local import: keep repro.serve importable without scipy-heavy
        # chaos modules until a snapshot is actually taken.
        from repro.chaos.checkpoint import save_checkpoint

        target = path if path is not None else self._snapshot_path
        if target is None:
            raise ValueError("no snapshot path configured or given")
        return save_checkpoint(
            self,
            target,
            build=self._spec.build_kwargs(),
            seed=self._spec.seed,
            run_index=self._spec.run_index,
            kind="service",
        )

    @classmethod
    def from_checkpoint(cls, path: Any, **kwargs: Any) -> "ReputationService":
        """Resume a service from a ``kind="service"`` checkpoint file.

        ``kwargs`` are forwarded to the constructor (``interval_events``,
        ``snapshot_path``, ...); the scenario spec always comes from the
        checkpoint header.
        """
        from repro.chaos.checkpoint import load_checkpoint

        header, state = load_checkpoint(path)
        kind = header.get("kind", "simulation")
        if kind != "service":
            raise ValueError(
                f"{path}: checkpoint kind {kind!r} is not a service "
                f"checkpoint; use repro.chaos.checkpoint.resume_scenario"
            )
        spec = ScenarioSpec.from_build(
            header["build"],
            seed=int(header["seed"]),
            run_index=int(header["run_index"]),
        )
        service = cls(spec, **kwargs)
        service.restore(state)
        return service

    # -- operational stats ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Operational snapshot: progress counters plus every
        ``serve.*`` instrument (queue depth, shed count, flood share,
        query-latency and update-duration percentiles)."""
        metrics = {
            name: value
            for name, value in self._obs.metrics.as_dict().items()
            if name.startswith("serve.")
        }
        return {
            "spec": self._spec.to_dict(),
            "n_nodes": self._n,
            "events_applied": self._events_applied,
            "intervals_run": self._intervals_run,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "metrics": metrics,
        }

    # -- the asyncio ingestion loop ------------------------------------------

    def _ensure_queue(self) -> asyncio.Queue:
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self._queue_maxsize)
        return self._queue

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    async def submit(self, event: Event) -> None:
        """Enqueue one event, awaiting (backpressure) while the queue is
        full."""
        queue = self._ensure_queue()
        await queue.put((event, None, 0.0))
        self._g_depth.set(queue.qsize())

    def submit_nowait(self, event: Event) -> bool:
        """Enqueue without waiting; returns False (and counts a shed)
        when the queue is full."""
        queue = self._ensure_queue()
        try:
            queue.put_nowait((event, None, 0.0))
        except asyncio.QueueFull:
            self._c_shed.inc()
            return False
        self._g_depth.set(queue.qsize())
        return True

    async def query_async(self, request: QueryRequest) -> QueryResult:
        """Enqueue a query and await its answer (latency measured from
        enqueue to answer, which is what a remote caller experiences)."""
        queue = self._ensure_queue()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        await queue.put((request, future, time.perf_counter()))
        self._g_depth.set(queue.qsize())
        return await future

    async def stop(self) -> None:
        """Ask the ingestion loop to drain the queue and exit."""
        await self._ensure_queue().put((_STOP, None, 0.0))

    async def run(self) -> int:
        """Consume the ingestion queue until :meth:`stop`; returns the
        number of events processed (refused ones are not).

        Control is yielded back to the event loop between events, so
        producers (socket reader, :meth:`submit` callers) interleave with
        ingestion on one loop.
        """
        if self._running:
            raise ServiceError("service ingestion loop is already running")
        queue = self._ensure_queue()
        self._running = True
        processed = 0
        try:
            while True:
                event, future, enqueued = await queue.get()
                self._g_depth.set(queue.qsize())
                if event is _STOP:
                    break
                try:
                    if isinstance(event, QueryRequest):
                        # Measure enqueue→answer so queue wait shows up in
                        # the latency histogram under load.
                        if future is not None:
                            start = enqueued
                            result = self._answer(event)
                            self._h_query.observe(time.perf_counter() - start)
                            self._c_queries.inc()
                            future.set_result(result)
                        else:
                            self.query(event)
                    else:
                        self.apply(event)
                    processed += 1
                except Exception as exc:
                    # A query's caller gets the error on its future.  A
                    # submitted event has no caller left to tell: a refused
                    # one (which changed no state) is counted and the loop
                    # keeps consuming, so one bad line cannot stall every
                    # producer and query behind it.  Any other failure
                    # (a flush, update or snapshot that broke after state
                    # moved) ends the loop.
                    if future is not None and not future.done():
                        future.set_exception(exc)
                    elif isinstance(exc, EventRejected):
                        self._c_rejected.inc()
                    else:
                        raise
        finally:
            self._running = False
        return processed

    def _answer(self, request: QueryRequest) -> QueryResult:
        """Query evaluation without self-timing (the async loop times
        enqueue→answer itself)."""
        if request.rater is not None:
            value: float | list[float] = self._pair_weight(
                request.rater, request.ratee
            )
        elif request.node is not None:
            self._check_nodes(request.node)
            value = float(self._system.reputations[request.node])
        else:
            value = [float(x) for x in self._system.reputations]
        return QueryResult(
            request=request,
            value=value,
            intervals_run=self._intervals_run,
            events_applied=self._events_applied,
        )

    async def run_stream(
        self, events: Iterable[Event] | AsyncIterable[Event]
    ) -> int:
        """Feed ``events`` through the queue while the ingestion loop
        runs, then stop; returns the number of events processed."""
        consumer = asyncio.ensure_future(self.run())

        async def produce() -> None:
            if hasattr(events, "__aiter__"):
                async for event in events:  # type: ignore[union-attr]
                    await self.submit(event)
            else:
                for event in events:  # type: ignore[union-attr]
                    await self.submit(event)
            await self.stop()

        producer = asyncio.ensure_future(produce())
        try:
            processed = await consumer
        finally:
            if not producer.done():
                producer.cancel()
        await asyncio.gather(producer, return_exceptions=True)
        return processed
