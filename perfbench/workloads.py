"""The three benchmark workloads: inputs from a seed, and one episode each.

An *episode* builds the system from its inputs (timed as set-up), runs
the timed phase once, and returns what it measured plus a digest of the
program's outputs for the reference check.  ``run.py`` repeats
episodes on the same inputs until its time budget is spent and reports
medians, so every timed figure adds up several seconds of work.

* ``paper`` -- the paper's PCM world (n=200, 9 pre-trusted, 30
  colluders, EigenTrust+SocialTrust, dense coefficients, batched
  engine), 50 simulation cycles x 30 query cycles through
  ``build_scenario(ScenarioSpec)`` and ``Scenario.run``;
* ``serve`` -- ``ReputationService`` at n=1000 fed a pre-encoded
  line-JSON stream (honest traffic from ``test_bench_serve``'s
  generator, colluding pairs rating each other on ~10% of events, node
  queries and pair-weight probes in bursts of 10 at a fixed point of
  every 1,000 events, an auto-watermark every 20,000 events); each line
  goes ``json.loads`` -> ``decode_event`` -> ``apply`` and query answers
  are encoded back;
* ``sparse_1e4`` -- the sparse-backend detector at n=10^4 on
  ``test_bench_sparse``'s community world with colluding rings on 1.5%
  of nodes; each warm interval first records an interaction batch
  touching ~10% of rows, then analyses fresh rating matrices.

Inputs depend only on the input variant (``seed % VARIANTS``); the
reference outputs in ``reference/`` hold one digest per variant.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np
from scipy import sparse

import test_bench_serve
import test_bench_sparse
from layers import ARITHMETIC, OBJECT
from openloop import capacity, replay
from repro.api import ScenarioSpec, build_scenario
from repro.core import (
    CollusionDetector,
    SocialTrustConfig,
    SparseClosenessComputer,
    SparseSimilarityComputer,
)
from repro.serve import QueryRequest, RatingEvent, ReputationService
from repro.serve.events import EventDecodeError, decode_event, encode_event
from repro.serve.service import ServiceError
from repro.social import SparseInteractionLedger

#: Distinct input sets; ``--seed`` picks ``seed % VARIANTS``.
VARIANTS = 8

_COMPACT = (",", ":")

# -- paper -------------------------------------------------------------------

#: Builds timed per episode; a build is ~0.1 s, so one is too short to time.
PAPER_BUILDS = 3

# -- serve -------------------------------------------------------------------

SERVE_WORLD = {"n_nodes": 1_000, "n_pretrusted": 20, "n_colluders": 40}
#: Mutation events per reputation interval (the auto-watermark period).
SERVE_INTERVAL = 20_000
#: Intervals replayed in the timed phase; one more warms the service up.
SERVE_TIMED_INTERVALS = 6
#: Share of mutation events that are colluder-to-colluder ratings.
SERVE_COLLUSION_SHARE = 0.10
#: Queries arrive in bursts of this many, alternating node queries and
#: colluding-pair weight probes, one burst per :data:`SERVE_BURST_EVERY`
#: mutation events (the generator's rate of one query per 100 events; its
#: own lone queries are dropped).  The first query after a run of ingest
#: events runs with cold caches (~160 us against ~27 us from the fourth
#: query of a burst on), so with bursts of 5 the median fell on the third
#: query, between the two, and spread 18-21% between runs.  In bursts of
#: 10 it falls among warm queries.
SERVE_QUERY_BURST = 10
SERVE_BURST_EVERY = 1_000
#: Mutation events into each burst period at which its burst goes out.
#: The interval length is a multiple of the period, so a burst arrives
#: 10 events (2 ms at :data:`SERVE_RATE`) after every interval closes and
#: waits out the whole watermark pass, whatever the input variant.  Those
#: waits set ``query_p99_ms``.  With bursts placed at the generator's
#: query positions, their offset into the pass -- and the 99th percentile
#: with it -- changed from variant to variant.
SERVE_BURST_PHASE = 10
#: The fixed offered rate (lines per second) latencies are reported at:
#: ~15% busy, so a query waits only when a watermark pass is running.
SERVE_RATE = 5_000.0
#: Query p99 limit for ``capacity_eps``; above one dense watermark pass
#: (~0.4 s at n=1000), so capacity tracks total busy time.
SERVE_LATENCY_LIMIT_S = 1.0
#: Lines between two speed slices.
SERVE_PAUSE_EVERY = 2_000

# -- sparse_1e4 --------------------------------------------------------------

SPARSE_N = 10_000
SPARSE_RING = 5
#: 30 rings of 5: colluders are 1.5% of nodes.
SPARSE_RINGS = 30
SPARSE_WARM_INTERVALS = 30
#: Share of nodes whose interaction rows each warm interval touches.
SPARSE_DIRTY_SHARE = 0.10


@dataclass
class Episode:
    """What one timed phase measured and what the program output.

    Times are seconds at the reference machine speed: each unit of work's
    measured time divided by its speed (see :class:`layers.Untraced`).
    """

    run_s: float
    ops: int
    failed: int
    #: Latency of each read probe (serve) or unit operation (batch paths).
    query_s: np.ndarray
    #: Time until a reputation / detector update is visible.
    update_s: np.ndarray
    capacity_eps: float
    outputs: dict[str, Any]
    #: Median machine slowness over the reference during the episode.
    speed: float = 1.0
    #: ``run_s`` as measured, before scaling.
    wall_run_s: float = 0.0
    #: First unit of the timed phase, when it carries lazy set-up that
    #: cannot run ahead and is therefore left out of ``query_s`` and
    #: ``update_s`` (it still counts toward ``run_s``); ``None`` otherwise.
    cold_s: float | None = None
    extra: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """How to make a workload's inputs, set it up, and run its timed phase.

    ``setup(inputs, probe)`` returns the state ``run(inputs, state,
    probe)`` consumes.  Before each episode ``run.py`` times ``setups``
    set-ups and runs the episode on the last one.  ``setup_slice`` names
    the speed-slice kernel (:mod:`layers`) set-up times are scaled by.
    """

    make_inputs: Callable[[int], Any]
    setup: Callable[[Any, Any], Any]
    run: Callable[[Any, Any, Any], Episode]
    setup_slice: str
    setups: int = 1


# -- paper -------------------------------------------------------------------


def _paper_inputs(variant: int) -> ScenarioSpec:
    # WorldConfig's defaults are the paper's PCM world and profile.
    return ScenarioSpec(
        system="EigenTrust+SocialTrust", collusion="pcm", seed=variant
    )


def _paper_setup(spec: ScenarioSpec, probe):
    with probe.span("api.build"):
        return build_scenario(spec, observability=probe.observability)


def _paper_run(spec: ScenarioSpec, scenario, probe) -> Episode:
    simulation = scenario.simulation
    system = simulation.system
    probe.watch_simulation(simulation)
    update_s = _time_calls(system, "update")
    cycle_s: list[float] = []
    paused: list[float] = []
    cycle = simulation.run_simulation_cycle

    def timed_cycle():
        start = perf_counter()
        out = cycle()
        cycle_s.append(perf_counter() - start)
        paused.append(probe.pause())
        return out

    simulation.run_simulation_cycle = timed_cycle
    probe.begin_run()
    gc.collect()
    probe.pause()
    start = perf_counter()
    with probe.span("bench.run"):
        result = scenario.run()
    wall = perf_counter() - start - sum(paused)
    # The reputation update (detector + EigenTrust) is numpy work; the
    # rest of a cycle is the engine's interpreter work.
    engine_speeds = probe.speeds(len(cycle_s), OBJECT)
    updates = np.array(update_s) / probe.speeds(len(cycle_s), ARITHMETIC)
    cycles = (np.array(cycle_s) - update_s) / engine_speeds + updates
    # Scenario.run's own bookkeeping outside the cycles, at the mean speed.
    run_s = cycles.sum() + (wall - sum(cycle_s)) / engine_speeds.mean()
    flags = system.flag_counts
    served = simulation.metrics.total_served
    # Cycle 1's update is the cold dense detector pass (Ωc structure and
    # first analysis): start-up cost, not a steady-state latency.
    return Episode(
        run_s=run_s,
        ops=len(cycle_s),
        failed=0,
        query_s=cycles[1:],
        update_s=updates[1:],
        capacity_eps=served / run_s,
        speed=float(np.median(engine_speeds)),
        wall_run_s=wall,
        cold_s=float(cycles[0]),
        outputs={
            "reputations": result.reputations.tolist(),
            "cycles": int(result.metrics.n_snapshots),
            "requests_served": int(served),
            "findings": int(flags.sum()),
            "flagged_pairs": int((flags > 0).sum()),
        },
    )


def _time_calls(obj: Any, method: str) -> list[float]:
    """Shadow ``obj.method`` with a version that logs each call's wall time."""
    fn = getattr(obj, method)
    log: list[float] = []

    def timed(*args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        log.append(perf_counter() - start)
        return out

    setattr(obj, method, timed)
    return log


# -- serve -------------------------------------------------------------------


@dataclass(frozen=True)
class ServeInputs:
    spec: ScenarioSpec
    warmup: list[str]
    lines: list[str]
    is_query: np.ndarray


def _serve_inputs(variant: int) -> ServeInputs:
    spec = ScenarioSpec(
        system="EigenTrust+SocialTrust",
        collusion="pcm",
        seed=variant,
        world=dict(SERVE_WORLD),
    )
    n = SERVE_WORLD["n_nodes"]
    first = SERVE_WORLD["n_pretrusted"]
    colluders = np.arange(first, first + SERVE_WORLD["n_colluders"])
    pairs = colluders.reshape(-1, 2)
    total = SERVE_INTERVAL * (1 + SERVE_TIMED_INTERVALS)
    honest = int(total * (1 - SERVE_COLLUSION_SHARE)) + 1_000
    rng = np.random.default_rng([variant, 13])

    def colluding_pair() -> tuple[int, int]:
        rater, ratee = pairs[rng.integers(len(pairs))][rng.permutation(2)]
        return int(rater), int(ratee)

    events: list = []
    mutations = 0
    for event in test_bench_serve._synthesize_events(n, honest, seed=variant):
        if isinstance(event, QueryRequest):
            continue
        batch = [event]
        if rng.random() < SERVE_COLLUSION_SHARE / (1 - SERVE_COLLUSION_SHARE):
            rater, ratee = colluding_pair()
            batch.insert(0, RatingEvent(rater=rater, ratee=ratee, value=1.0))
        for mutation in batch:
            events.append(mutation)
            mutations += 1
            if mutations % SERVE_BURST_EVERY == SERVE_BURST_PHASE:
                for k in range(SERVE_QUERY_BURST):
                    if k % 2:
                        rater, ratee = colluding_pair()
                        events.append(QueryRequest(rater=rater, ratee=ratee))
                    else:
                        events.append(QueryRequest(node=int(rng.integers(n))))
            if mutations == total:
                break
        if mutations == total:
            break
    if mutations != total:
        raise RuntimeError("serve stream generator ran short of events")
    lines = [json.dumps(encode_event(e), separators=_COMPACT) for e in events]
    # The warm-up is everything up to the line that closes interval one.
    seen = 0
    for cut, event in enumerate(events):
        if not isinstance(event, QueryRequest):
            seen += 1
            if seen == SERVE_INTERVAL:
                break
    timed = events[cut + 1:]
    return ServeInputs(
        spec=spec,
        warmup=lines[: cut + 1],
        lines=lines[cut + 1:],
        is_query=np.array([isinstance(e, QueryRequest) for e in timed]),
    )


def _decode(line: str):
    return decode_event(json.loads(line))


def _encode(result) -> str:
    return json.dumps(result.to_dict(), separators=_COMPACT)


def _serve_setup(inputs: ServeInputs, probe):
    """Build the service and replay the warm-up interval, whose watermark
    pays the cold detector pass."""
    with probe.span("api.build"):
        service = probe.build_service(
            ReputationService, inputs.spec, interval_events=SERVE_INTERVAL
        )
    for line in inputs.warmup:
        service.apply(_decode(line))
    if service.intervals_run != 1:
        raise RuntimeError("serve warm-up did not close exactly one interval")
    return service


def _serve_run(inputs: ServeInputs, service, probe) -> Episode:
    decode = probe.traced("codec.decode", _decode)
    ingest = probe.traced("serve.ingest", service.apply)
    answer = probe.traced("serve.query", service.apply)
    encode = probe.traced("codec.encode", _encode)
    is_query = inputs.is_query
    n = len(inputs.lines)
    service_s = np.empty(n)
    closes = np.zeros(n, dtype=bool)
    failed = 0
    replies = []
    value_sum = 0.0
    damped = 0
    probe.begin_run()
    gc.collect()
    with probe.span("bench.run"):
        for i, line in enumerate(inputs.lines):
            if i % SERVE_PAUSE_EVERY == 0:
                probe.pause()
                last = perf_counter()
            try:
                event = decode(line)
                if is_query[i]:
                    result = answer(event)
                    replies.append(encode(result))
                    value_sum += result.value
                    damped += event.rater is not None and result.value < 1.0
                else:
                    closes[i] = ingest(event) is not None
            except (EventDecodeError, ValueError, ServiceError):
                failed += 1
            now = perf_counter()
            service_s[i] = now - last
            last = now
        probe.pause()
    wall = float(service_s.sum())
    blocks = np.arange(n) // SERVE_PAUSE_EVERY
    # A line that closes an interval carries the watermark's detector pass
    # (numpy work); every other line is codec and ledger interpreter work.
    speeds = probe.speeds(int(blocks[-1]) + 1, OBJECT)
    pass_speeds = probe.speeds(int(blocks[-1]) + 1, ARITHMETIC)
    service_s /= np.where(closes, pass_speeds[blocks], speeds[blocks])
    at_rate = replay(service_s, SERVE_RATE)
    return Episode(
        run_s=float(service_s.sum()),
        ops=n,
        failed=failed,
        query_s=at_rate.latency[is_query],
        update_s=at_rate.latency[closes],
        capacity_eps=capacity(service_s, is_query, SERVE_LATENCY_LIMIT_S),
        speed=float(np.median(speeds)),
        wall_run_s=wall,
        outputs={
            "reputations": service.reputations.tolist(),
            "events_applied": service.events_applied,
            "intervals_run": service.intervals_run,
            "queries": len(replies),
            "damped_probes": int(damped),
            "query_value_sum": value_sum,
        },
        extra={
            "serve.queue_wait_s": float(at_rate.wait.sum()),
            "serve.backlog_max": int(at_rate.backlog.max()),
            "serve.failed": failed,
        },
    )


# -- sparse_1e4 --------------------------------------------------------------


@dataclass(frozen=True)
class SparseInterval:
    batch: tuple[np.ndarray, np.ndarray, np.ndarray]
    pos: sparse.csr_matrix
    neg: sparse.csr_matrix
    rated: sparse.csr_matrix


@dataclass(frozen=True)
class SparseInputs:
    world: dict
    cold: SparseInterval
    warm: list[SparseInterval]


def _sparse_inputs(variant: int) -> SparseInputs:
    n = SPARSE_N
    world = test_bench_sparse._synthesize(n, seed=variant)
    rng = np.random.default_rng([variant, 17])
    # Half the rings sit inside one 25-node community (socially close),
    # half are spread across the network (socially distant).
    rings = []
    for r in range(SPARSE_RINGS):
        if r % 2 == 0:
            hub = int(rng.integers(0, n // 25)) * 25
            rings.append(hub + rng.choice(25, SPARSE_RING, replace=False))
        else:
            rings.append(rng.choice(n, SPARSE_RING, replace=False))
    ring_i = np.concatenate([np.repeat(m, SPARSE_RING) for m in rings])
    ring_j = np.concatenate([np.tile(m, SPARSE_RING) for m in rings])
    off = ring_i != ring_j
    ring_i, ring_j = ring_i[off], ring_j[off]
    ei, ej = world["edges"]
    int_i, int_j, _ = world["interactions"]
    rated = sparse.csr_matrix((n, n), dtype=bool)

    def interval(batch) -> SparseInterval:
        nonlocal rated
        honest = rng.random(ei.size) < 0.8
        pos_i = np.concatenate([ei[honest], ej[honest], ring_i])
        pos_j = np.concatenate([ej[honest], ei[honest], ring_j])
        pos_c = np.concatenate(
            [np.ones(2 * int(honest.sum())), rng.integers(10, 15, ring_i.size)]
        ).astype(np.float64)
        negative = rng.random(ei.size) < 0.05
        neg_c = np.ones(int(negative.sum()))
        pos = test_bench_sparse._coo(pos_i, pos_j, pos_c, n)
        neg = test_bench_sparse._coo(ei[negative], ej[negative], neg_c, n)
        rated = (rated + ((pos + neg) > 0)).tocsr()
        return SparseInterval(batch, pos, neg, rated)

    def batch():
        dirty = np.zeros(n, dtype=bool)
        dirty[rng.choice(n, int(n * SPARSE_DIRTY_SHARE), replace=False)] = True
        keep = dirty[int_i]
        bi = np.concatenate([int_i[keep], ring_i])
        bj = np.concatenate([int_j[keep], ring_j])
        return bi, bj, rng.integers(1, 3, bi.size).astype(np.float64)

    cold = interval(world["interactions"])
    warm = [interval(batch()) for _ in range(SPARSE_WARM_INTERVALS)]
    return SparseInputs(world=world, cold=cold, warm=warm)


def _sparse_setup(inputs: SparseInputs, probe):
    """Build the detector stack from the world's arrays and run the cold
    interval, which builds the Ωc/Ωs caches."""
    world = inputs.world
    with probe.span("api.build"):
        graph, profiles = test_bench_sparse._build_shared(world)
        config = SocialTrustConfig(coefficient_backend="sparse")
        ledger = SparseInteractionLedger(SPARSE_N)
        closeness = SparseClosenessComputer(graph, ledger, config)
        similarity = SparseSimilarityComputer(profiles, config)
        detector = CollusionDetector(
            closeness, similarity, config, observability=probe.observability
        )
    probe.watch_detector(detector, ledger, closeness, similarity)
    cold = inputs.cold
    ledger.record_many(*cold.batch)
    detector.analyze_sparse(cold.pos, cold.neg, world["reputations"], cold.rated)
    return detector, ledger


def _sparse_run(inputs: SparseInputs, state, probe) -> Episode:
    detector, ledger = state
    reputations = inputs.world["reputations"]
    interval_s, update_s = [], []
    findings, flagged = [], []
    weight_sum = 0.0
    probe.begin_run()
    gc.collect()
    probe.pause()
    with probe.span("bench.run"):
        for step in inputs.warm:
            begin = perf_counter()
            ledger.record_many(*step.batch)
            mid = perf_counter()
            result = detector.analyze_sparse(step.pos, step.neg, reputations, step.rated)
            end = perf_counter()
            interval_s.append(end - begin)
            update_s.append(end - mid)
            findings.append(result.n_adjusted)
            flagged.append(int(result.pairs.shape[0]))
            weight_sum += float(result.pair_weights.sum())
            probe.pause()
    speeds = probe.speeds(len(interval_s), ARITHMETIC)
    intervals = np.array(interval_s) / speeds
    ratings = sum(float(s.pos.sum() + s.neg.sum()) for s in inputs.warm)
    return Episode(
        run_s=float(intervals.sum()),
        ops=len(inputs.warm),
        failed=0,
        query_s=intervals,
        update_s=np.array(update_s) / speeds,
        capacity_eps=ratings / float(intervals.sum()),
        speed=float(np.median(speeds)),
        wall_run_s=float(sum(interval_s)),
        outputs={
            "findings": findings,
            "flagged_pairs": flagged,
            "weight_sum": weight_sum,
        },
    )


WORKLOADS: dict[str, Workload] = {
    "paper": Workload(
        _paper_inputs, _paper_setup, _paper_run, OBJECT, setups=PAPER_BUILDS
    ),
    # Serve set-up ends in the cold detector pass, and its times spread
    # less between set-ups when scaled by the arithmetic slice (11% against
    # 16% with the object slice).
    "serve": Workload(_serve_inputs, _serve_setup, _serve_run, ARITHMETIC),
    "sparse_1e4": Workload(_sparse_inputs, _sparse_setup, _sparse_run, ARITHMETIC),
}
