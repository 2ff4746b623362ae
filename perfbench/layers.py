"""Per-layer attribution for the traced run.

The traced run records spans from the benchmark's own code, around the
calls into each layer object a workload can reach through public
attributes, into the same :class:`repro.obs.Tracer` the program's own
spans (``sim.cycle``, ``engine.*``, ``detector.analyze``,
``reputation.inner_update``, ``metrics.snapshot``, ``serve.watermark``)
go to.  :func:`repro.obs.profile_spans` then folds the one span tree
into self time per span name; the rows below map span names to layers.
Time inside the timed phase that no layer row explains is reported as
``unattributed_s``.

:class:`Untraced` is the stand-in for runs with tracing off: every layer
hook is a no-op, so a workload runs the same code, and :meth:`Untraced.pause`
measures the machine's speed in slices interleaved with the timed phase.
"""

from __future__ import annotations

import contextlib
import gc
import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.obs import Observability, profile_spans

__all__ = [
    "Untraced",
    "Traced",
    "LayerCoverageError",
    "PER_LAYER",
    "EXPECTED",
    "ARITHMETIC",
    "OBJECT",
]

#: Self-time rows: metric name -> the span names whose self time it sums.
#: ``sim.cycle`` self time is the engine's query loop: every other child
#: of a cycle (candidate build, ledgers, detector, update, snapshot) has
#: its own span.
SELF_ROWS: dict[str, tuple[str, ...]] = {
    "engine.query_cycle.self_s": ("sim.cycle", "engine.selection", "engine.cache_patch"),
    "engine.begin_interval.self_s": ("engine.candidate_build",),
    "ledger.record.self_s": ("ledger.record",),
    "ledger.drain.self_s": ("ledger.drain",),
    "interactions.record.self_s": ("interactions.record",),
    "interactions.decay.self_s": ("interactions.decay",),
    "profiles.record.self_s": ("profiles.record",),
    "closeness.self_s": ("closeness",),
    "similarity.self_s": ("similarity",),
    "detector.self_s": ("detector.analyze",),
    "inner_update.self_s": ("reputation.inner_update",),
    "metrics.snapshot.self_s": ("metrics.snapshot",),
    "codec.decode.self_s": ("codec.decode",),
    "codec.encode.self_s": ("codec.encode",),
    "serve.ingest.self_s": ("serve.ingest",),
    "serve.query.self_s": ("serve.query",),
    "serve.watermark.self_s": ("serve.watermark",),
}

#: Call-count rows: metric name -> span name counted.
CALL_ROWS: dict[str, str] = {
    "engine.query_cycle.calls": "engine.selection",
    "ledger.record.calls": "ledger.record",
    "closeness.calls": "closeness",
    "similarity.calls": "similarity",
    "detector.calls": "detector.analyze",
    "inner_update.calls": "reputation.inner_update",
    "serve.ingest.calls": "serve.ingest",
    "serve.query.calls": "serve.query",
    "serve.watermark.calls": "serve.watermark",
    "codec.lines": "codec.decode",
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: dict[str, str] = {
    **{name: "s" for name in SELF_ROWS},
    **{name: "count" for name in CALL_ROWS},
    "engine.requests_served": "count",
    "ledger.ratings": "count",
    "interactions.dirty_rows": "count",
    "closeness.rebuilds": "count",
    "closeness.patches": "count",
    "detector.pairs_examined": "count",
    "detector.findings": "count",
    "detector.hit_ratio": "ratio",
    "inner_update.iterations": "count",
    "serve.queue_wait_s": "s",
    "serve.backlog_max": "count",
    "serve.failed": "count",
    "api.build.self_s": "s",
    "unattributed_s": "s",
    "trace_overhead_frac": "frac",
}

#: Span names that must record calls on each workload; a layer that
#: records none means a wrapper no longer reaches the code it measures.
EXPECTED: dict[str, tuple[str, ...]] = {
    "paper": (
        "api.build", "engine.selection", "engine.candidate_build",
        "ledger.record", "ledger.drain", "interactions.record",
        "profiles.record", "closeness", "similarity", "detector.analyze",
        "reputation.inner_update", "metrics.snapshot",
    ),
    "serve": (
        "api.build", "ledger.record", "ledger.drain", "interactions.record",
        "interactions.decay", "profiles.record", "closeness", "similarity",
        "detector.analyze", "reputation.inner_update", "codec.decode",
        "codec.encode", "serve.ingest", "serve.query", "serve.watermark",
    ),
    "sparse_1e4": (
        "api.build", "interactions.record", "closeness", "similarity",
        "detector.analyze",
    ),
}

# Public methods through which callers enter each layer object.
_LEDGER = {"ledger.record": ("record", "record_many", "record_batch"),
           "ledger.drain": ("drain",)}
_INTERACTIONS = {"interactions.record": ("record", "record_many"),
                 "interactions.decay": ("decay_nodes",)}
_PROFILES = {"profiles.record": ("record_request", "record_requests")}
_COEFFICIENT = ("pair_values", "rater_band", "global_band")


class LayerCoverageError(RuntimeError):
    """A layer the workload exercises recorded no calls."""


def arithmetic_slice() -> int:
    """A tight integer loop.  It tracks work that runs mostly inside numpy
    and scipy kernels: the detector passes."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


_SLICE_LINE = json.dumps(
    {"t": "rating", "rater": 12, "ratee": 345, "value": 0.75, "tags": [1, 2, 3]}
)
_SLICE_ARRAY = np.arange(1_000, dtype=np.float64)


def object_slice() -> float:
    """JSON round trips, dict stores and small-array reads.  It tracks
    interpreter work on many small objects (the engine loop, set-up, the
    service's codec and ledgers), which also slows when other tenants
    contend for memory; the arithmetic loop barely feels that.  In such
    phases the arithmetic slice ran at its usual speed while this slice
    and the serve and paper timed phases all took about 1.5x longer."""
    total = 0.0
    store = {}
    for i in range(120):
        obj = json.loads(_SLICE_LINE)
        store[(obj["rater"] + i) % 97] = obj
        total += float(_SLICE_ARRAY[obj["ratee"]]) + len(json.dumps(obj))
        total += sum(x * 2 for x in obj["tags"])
    return total


#: Slice kernels, by the kind of work whose speed each tracks.
ARITHMETIC = "arithmetic"
OBJECT = "object"
_SLICES = {ARITHMETIC: arithmetic_slice, OBJECT: object_slice}

#: Seconds each slice takes at the reference machine speed: the unit of
#: the end-to-end times, which are reported at that speed.
REFERENCE_SLICE_S = {ARITHMETIC: 0.002, OBJECT: 0.0015}


class Untraced:
    """Tracing off: layer hooks do nothing and callables pass through.

    :meth:`pause` runs one slice of each fixed kernel above, none of which
    touches the program, with the garbage collector off so that the
    program's collections stay in the program's time.  Workloads call it
    before their first unit of work and after every unit (a simulation
    cycle, a block of stream lines, a sparse interval) and leave its time
    out of what they measure.  :meth:`speeds` turns one kernel's slices
    on either side of each unit into that unit's speed relative to
    :data:`REFERENCE_SLICE_S`, and the unit's time is divided by it.  The
    machine this benchmark was built on changes speed by up to 1.5x within
    minutes as other tenants come and go; slices taken in the same seconds
    as the work see the change.  Each piece of work is scaled by the
    kernel of its kind: detector passes by :data:`ARITHMETIC`, interpreter
    work by :data:`OBJECT`.  On the serve stream the other kernel left two
    to three times the spread between episodes in each kind's times.
    """

    observability: Observability | None = None

    def __init__(self) -> None:
        self._slices: dict[str, list[float]] = {kind: [] for kind in _SLICES}

    def pause(self) -> float:
        """Run one slice of each kernel; returns the seconds they took."""
        total = 0.0
        gc.disable()
        for kind, kernel in _SLICES.items():
            start = perf_counter()
            kernel()
            took = perf_counter() - start
            self._slices[kind].append(took)
            total += took
        gc.enable()
        return total

    def speeds(self, units: int, kind: str) -> np.ndarray:
        """Slowness over the reference (>1: slower) of each of the last
        ``units`` units of work, from the ``kind`` slices on either side."""
        slices = self._slices[kind]
        if len(slices) < units + 1:
            raise ValueError(f"{units} units need {units + 1} slices")
        edges = np.array(slices[len(slices) - units - 1:])
        return (edges[:-1] + edges[1:]) / (2 * REFERENCE_SLICE_S[kind])

    def span(self, name: str):
        return contextlib.nullcontext()

    def traced(self, name: str, fn: Callable) -> Callable:
        return fn

    def build_service(self, service_cls, spec, **kwargs):
        return service_cls(spec, **kwargs)

    def watch_simulation(self, simulation) -> None:
        pass

    def watch_detector(self, detector, interactions, closeness, similarity) -> None:
        pass

    def begin_run(self) -> None:
        pass


class Traced(Untraced):
    """Tracing on: spans around every reachable layer entry point.

    Takes no speed slices: per-layer times are reported as measured.
    """

    def __init__(self) -> None:
        super().__init__()
        self.observability = Observability(tracing=True)
        self._tracer = self.observability.tracer
        self._counts: Counter = Counter()
        self._inside: set[str] = set()
        self._setup_events: tuple = ()
        self._run_counters: dict[str, float] = {}
        self._ledger = None
        self._requests = None
        self._ledger_from = self._served_from = 0

    def pause(self) -> float:
        return 0.0

    def speeds(self, units: int, kind: str) -> np.ndarray:
        return np.ones(units)

    # -- span plumbing -------------------------------------------------------

    def span(self, name: str):
        return self._tracer.span(name)

    def traced(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span; re-entrant calls (a layer method calling
        another wrapped method of the same layer) open no second span."""
        tracer, inside = self._tracer, self._inside

        def call(*args: Any, **kwargs: Any) -> Any:
            if name in inside:
                return fn(*args, **kwargs)
            inside.add(name)
            try:
                with tracer.span(name):
                    return fn(*args, **kwargs)
            finally:
                inside.discard(name)

        return call

    def _wrap(self, obj: Any, layout: dict[str, tuple[str, ...]]) -> None:
        for name, methods in layout.items():
            for method in methods:
                setattr(obj, method, self.traced(name, getattr(obj, method)))

    def _wrap_coefficients(self, closeness, similarity) -> None:
        dense_c = ("closeness", "closeness_matrix")
        extra_c = ("matrix_csr",) if hasattr(closeness, "matrix_csr") else ()
        self._wrap(closeness, {"closeness": dense_c + extra_c + _COEFFICIENT})
        self._wrap(
            similarity,
            {"similarity": ("similarity", "similarity_matrix") + _COEFFICIENT},
        )
        if hasattr(closeness, "bind_metrics"):
            closeness.bind_metrics(self.observability.metrics)

    def _count_dirty_rows(self, interactions) -> Callable[[], None]:
        """Returns a callback adding the rows dirtied since its last call."""
        seen = [interactions.version]

        def tick() -> None:
            self._counts["dirty_rows"] += int(
                interactions.rows_changed_since(seen[0]).size
            )
            seen[0] = interactions.version

        return tick

    # -- workload hooks ------------------------------------------------------

    def build_service(self, service_cls, spec, **kwargs):
        """Build a service whose world carries this probe's observability.

        The service builds its world with the module-level
        ``build_scenario`` and keeps it private; rebinding that name for
        the duration of the constructor is the one seam through which
        the world's own spans (``detector.analyze``,
        ``reputation.inner_update``) and its ledgers become visible.
        """
        import repro.serve.service as service_module

        real = service_module.build_scenario
        worlds = []

        def observed(spec_):
            scenario = real(spec_, observability=self.observability)
            worlds.append(scenario)
            return scenario

        service_module.build_scenario = observed
        try:
            service = service_cls(spec, observability=self.observability, **kwargs)
        finally:
            service_module.build_scenario = real
        if len(worlds) != 1:
            raise LayerCoverageError("service did not build its world via build_scenario")
        self.watch_simulation(worlds[0].simulation)
        return service

    def watch_simulation(self, simulation) -> None:
        self._ledger = simulation.ledger
        self._requests = simulation.metrics
        self._wrap(simulation.ledger, _LEDGER)
        self._wrap(simulation.interactions, _INTERACTIONS)
        self._wrap(simulation.profiles, _PROFILES)
        system = simulation.system
        self._wrap_coefficients(system.closeness_computer, system.similarity_computer)
        tick = self._count_dirty_rows(simulation.interactions)
        update = system.update

        def counted_update(interval):
            tick()
            out = update(interval)
            self._counts["iterations"] += int(system.inner.last_iterations)
            return out

        system.update = counted_update

    def watch_detector(self, detector, interactions, closeness, similarity) -> None:
        self._wrap(interactions, _INTERACTIONS)
        self._wrap_coefficients(closeness, similarity)
        tick = self._count_dirty_rows(interactions)
        analyze = detector.analyze_sparse
        tracer = self._tracer

        def traced_analyze(*args, **kwargs):
            tick()
            with tracer.span("detector.analyze") as span:
                result = analyze(*args, **kwargs)
                span.set("findings", result.n_adjusted)
            return result

        detector.analyze_sparse = traced_analyze

    # -- phases --------------------------------------------------------------

    def begin_run(self) -> None:
        """Close the set-up phase: keep its spans aside, snapshot counters."""
        self._setup_events = self._tracer.events()
        self._tracer.clear()
        self._counts.clear()
        self._run_counters = self._counter_values()
        if self._ledger is not None:
            self._ledger_from = self._ledger.total_recorded
            self._served_from = self._requests.total_served

    def _counter_values(self) -> dict[str, float]:
        snapshot = self.observability.metrics.as_dict()
        return {
            name: float(snapshot[name]["value"]) if name in snapshot else 0.0
            for name in ("detector.pairs_examined", "sparse.cache.rebuilds",
                         "sparse.cache.patches")
        }

    def report(
        self,
        workload: str,
        untraced_run_s: float,
        extra: dict[str, float],
    ) -> dict[str, float]:
        """Every per-layer metric of the finished traced run.

        Raises :class:`LayerCoverageError` when a layer the workload is
        expected to exercise recorded no calls.
        """
        events = [
            e for e in self._tracer.events() if e["name"] != "engine.rating_flush"
        ]
        # ``engine.rating_flush`` is a pre-measured span over the engine's
        # ledger flush; the ledger spans opened during the flush already
        # cover that time as siblings, so keeping it would count it twice.
        roots = [e for e in events if e["name"] == "bench.run"]
        if len(roots) != 1:
            raise LayerCoverageError("traced run must have exactly one bench.run span")
        run_s = roots[0]["duration"]
        stats = {s.name: s for s in profile_spans(events)}
        setup = {s.name: s for s in profile_spans(self._setup_events)}
        missing = [
            name for name in EXPECTED[workload]
            if (setup if name == "api.build" else stats).get(name) is None
        ]
        if missing:
            raise LayerCoverageError(
                f"{workload}: no calls recorded for {', '.join(missing)}"
            )
        out: dict[str, float] = {}
        for metric, names in SELF_ROWS.items():
            out[metric] = sum(stats[n].self_s for n in names if n in stats)
        for metric, name in CALL_ROWS.items():
            out[metric] = stats[name].calls if name in stats else 0
        counters = self._counter_values()
        delta = {k: counters[k] - self._run_counters[k] for k in counters}
        findings = sum(
            e["attributes"].get("findings", 0)
            for e in events if e["name"] == "detector.analyze"
        )
        examined = delta["detector.pairs_examined"]
        out.update(
            {
                "engine.requests_served": (
                    self._requests.total_served - self._served_from
                    if self._requests is not None else 0
                ),
                "ledger.ratings": (
                    self._ledger.total_recorded - self._ledger_from
                    if self._ledger is not None else 0
                ),
                "interactions.dirty_rows": self._counts["dirty_rows"],
                "closeness.rebuilds": delta["sparse.cache.rebuilds"],
                "closeness.patches": delta["sparse.cache.patches"],
                "detector.pairs_examined": examined,
                "detector.findings": findings,
                "detector.hit_ratio": findings / examined if examined else 0.0,
                "inner_update.iterations": self._counts["iterations"],
                "api.build.self_s": setup["api.build"].self_s,
                "unattributed_s": run_s - sum(out[m] for m in SELF_ROWS),
                "trace_overhead_frac": run_s / untraced_run_s - 1.0,
                "serve.queue_wait_s": 0.0,
                "serve.backlog_max": 0,
                "serve.failed": 0,
            }
        )
        out.update(extra)
        return {name: out[name] for name in PER_LAYER}
