"""Batched query-cycle engine vs the scalar oracle: the speedup benchmark.

Runs the same no-collusion world twice — once on the seed per-client
scalar loop (:mod:`repro.qa.oracle`), once on the batched engine —
asserts the reputation
histories are **bit-identical**, and asserts the wall-clock speedup floor
(>= 5x at the full profile).  Results land in ``BENCH_engine.json`` at
the repo root (override with ``BENCH_ENGINE_OUT``), using the shared
``{"name", "config", "results", "timestamp"}`` artifact schema, so CI
can archive them.

Profiles (``BENCH_ENGINE_PROFILE`` environment variable):

* ``full`` (default) — n=1000 nodes, 50 simulation cycles, floor 5x;
* ``smoke``          — n=120 nodes, 10 simulation cycles, floor 2x
  (used by the CI smoke job; finishes in a few seconds).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments import CollusionKind, WorldConfig, build_world
from repro.qa.oracle import use_oracle

PROFILES = {
    "full": {"n_nodes": 1000, "simulation_cycles": 50, "min_speedup": 5.0},
    "smoke": {"n_nodes": 120, "simulation_cycles": 10, "min_speedup": 2.0},
}


def _profile() -> tuple[str, dict]:
    name = os.environ.get("BENCH_ENGINE_PROFILE", "full")
    if name not in PROFILES:
        raise ValueError(f"BENCH_ENGINE_PROFILE must be one of {sorted(PROFILES)}")
    return name, PROFILES[name]


def _run(oracle: bool, n_nodes: int, cycles: int) -> tuple[float, np.ndarray]:
    """(wall-clock seconds, reputation history) on the oracle or engine."""
    config = WorldConfig(
        n_nodes=n_nodes,
        collusion=CollusionKind.NONE,
        simulation_cycles=cycles,
    )
    world = build_world(config, seed=0)
    if oracle:
        use_oracle(world.simulation)
    start = time.perf_counter()
    metrics = world.simulation.run()
    return time.perf_counter() - start, metrics.reputation_history()


def test_engine_speedup(bench_artifact):
    name, profile = _profile()
    n_nodes = profile["n_nodes"]
    cycles = profile["simulation_cycles"]
    scalar_s, scalar_hist = _run(True, n_nodes, cycles)
    batched_s, batched_hist = _run(False, n_nodes, cycles)
    identical = bool(np.array_equal(batched_hist, scalar_hist))
    speedup = scalar_s / batched_s
    bench_artifact(
        "engine",
        config={
            "profile": name,
            "n_nodes": n_nodes,
            "simulation_cycles": cycles,
            "min_speedup": profile["min_speedup"],
        },
        results={
            "scalar_seconds": round(scalar_s, 3),
            "batched_seconds": round(batched_s, 3),
            "speedup": round(speedup, 2),
            "bit_identical": identical,
        },
        out=os.environ.get("BENCH_ENGINE_OUT"),
    )
    print(
        f"\n[{name}] n={n_nodes} cycles={cycles}: "
        f"scalar={scalar_s:.2f}s batched={batched_s:.2f}s "
        f"speedup={speedup:.1f}x identical={identical}"
    )
    assert identical, "batched engine diverged from the scalar oracle"
    assert speedup >= profile["min_speedup"], (
        f"speedup {speedup:.2f}x below the {profile['min_speedup']}x floor"
    )
