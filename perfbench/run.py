"""Benchmark entry point: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats untraced episodes of the workload until
``--seconds`` are spent and prints the end-to-end metrics (medians over
episodes, latency percentiles over the pooled samples).  ``--trace 1``
runs one untraced and one traced episode and prints the per-layer
metrics.  Every episode's outputs are checked against
``reference/<workload>.json``; a mismatch counts the episode's
operations as failed and the exit code is 1.  The last line of standard
output is the JSON result; progress goes to standard error.

``--record-reference`` re-records the reference outputs of every input
variant of the named workloads instead.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: with two, CPU time doubles on the paper path and
# timings depend on what else the machine runs.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, LayerCoverageError, Traced, Untraced  # noqa: E402
from openloop import percentile  # noqa: E402

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "success_frac": "frac",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "update_p50_ms": "ms",
    "capacity_eps": "1/s",
}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _checked(workload: str, episode, expected) -> workloads.Episode:
    problems = reference.mismatches(expected, episode.outputs)
    for problem in problems:
        _log(f"{workload}: output mismatch: {problem}")
    if problems:
        episode.failed = episode.ops
    return episode


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(workload: workloads.Workload, inputs, hooks, scaled: list[float],
            measured: list[float] | None = None):
    """The workload's set-ups, each timed between two speed slices and
    appended to ``scaled`` at the reference speed (and to ``measured`` as
    measured); returns the last set-up's state."""
    state = None
    for _ in range(workload.setups):
        state = None  # release the previous state before building another
        gc.collect()
        hooks.pause()
        start = perf_counter()
        state = workload.setup(inputs, hooks)
        took = perf_counter() - start
        hooks.pause()
        scaled.append(took / float(hooks.speeds(1, workload.setup_slice)[0]))
        if measured is not None:
            measured.append(took)
    return state


def measure(name: str, inputs, expected, seconds: float) -> tuple[dict, int, int]:
    """Untraced episodes until ``seconds`` are spent (at least one)."""
    workload = workloads.WORKLOADS[name]
    setups: list[float] = []
    wall_setups: list[float] = []
    episodes = []
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        hooks = Untraced()
        state = _set_up(workload, inputs, hooks, setups, wall_setups)
        episodes.append(_checked(name, workload.run(inputs, state, hooks), expected))
        state = None
        if perf_counter() + (perf_counter() - began) > deadline:
            break
    queries = np.concatenate([e.query_s for e in episodes])
    updates = np.concatenate([e.update_s for e in episodes])
    attempted = sum(e.ops for e in episodes)
    failed = sum(e.failed for e in episodes)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(e.run_s for e in episodes),
        "peak_rss_mb": _peak_rss_mb(),
        "success_frac": (attempted - failed) / attempted,
        "query_p50_ms": percentile(queries, 50) * 1e3,
        "query_p99_ms": percentile(queries, 99) * 1e3,
        "update_p50_ms": percentile(updates, 50) * 1e3,
        "capacity_eps": statistics.median(e.capacity_eps for e in episodes),
    }
    _log(
        f"{name}: {len(episodes)} episodes, {len(setups)} set-ups, "
        f"{queries.size} query samples, {updates.size} update samples, "
        f"{attempted} operations ({failed} failed); machine speed "
        f"{statistics.median(e.speed for e in episodes):.3f}x the reference "
        f"(as measured: set-up {statistics.median(wall_setups):.4g} s, "
        f"run {statistics.median(e.wall_run_s for e in episodes):.4g} s)"
    )
    if episodes[0].cold_s is not None:
        _log(
            f"{name}: cold first unit (left out of the latency samples) "
            f"{statistics.median(e.cold_s for e in episodes) * 1e3:.4g} ms median "
            f"vs query p99 {values['query_p99_ms']:.4g} ms"
        )
    metrics = {metric: (values[metric], unit) for metric, unit in END_TO_END.items()}
    return metrics, attempted, failed


def trace(name: str, inputs, expected) -> tuple[dict, int, int]:
    """One untraced episode (the overhead base), then one traced."""
    workload = workloads.WORKLOADS[name]
    hooks = Untraced()
    state = _set_up(workload, inputs, hooks, [])
    base = _checked(name, workload.run(inputs, state, hooks), expected)
    state = None
    probe = Traced()
    state = _set_up(workload, inputs, probe, [])
    traced = _checked(name, workload.run(inputs, state, probe), expected)
    extra = dict(base.extra)
    if "serve.failed" in extra:
        extra["serve.failed"] += traced.extra["serve.failed"]
    layer = probe.report(name, base.wall_run_s, extra)
    metrics = {metric: (layer[metric], unit) for metric, unit in PER_LAYER.items()}
    return metrics, base.ops + traced.ops, base.failed + traced.failed


def record(names: list[str]) -> None:
    for name in names:
        workload = workloads.WORKLOADS[name]
        variants = {}
        for variant in range(workloads.VARIANTS):
            inputs = workload.make_inputs(variant)
            hooks = Untraced()
            state = _set_up(workload, inputs, hooks, [])
            variants[str(variant)] = workload.run(inputs, state, hooks).outputs
            _log(f"{name}: recorded variant {variant}")
        _log(f"wrote {reference.save(name, variants)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        record([args.workload] if args.workload else list(workloads.WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    variant = args.seed % workloads.VARIANTS
    expected = reference.load(args.workload)[str(variant)]
    _log(
        f"{args.workload}: seed {args.seed} -> input variant {variant}; "
        f"BLAS/OpenMP threads pinned to {os.environ['OPENBLAS_NUM_THREADS']}"
    )
    inputs = workloads.WORKLOADS[args.workload].make_inputs(variant)
    try:
        if args.trace:
            metrics, attempted, failed = trace(args.workload, inputs, expected)
        else:
            metrics, attempted, failed = measure(
                args.workload, inputs, expected, args.seconds
            )
    except LayerCoverageError as exc:
        _log(f"layer coverage check failed: {exc}")
        return 1
    for name, (value, unit) in metrics.items():
        _log(f"  {name:<32} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
