"""Correctness tooling: golden traces, invariant fuzzing, differential runs.

Three generations of hot-path rewrites (the batched engine, the
incremental Ωc/Ωs caches, the manager failover paths) rest on point
equivalence tests; this package is the mechanical safety net every future
rewrite must pass through:

* :mod:`repro.qa.golden` — records a full scenario run (per-cycle
  reputation vectors, detector decisions with fired thresholds, Gaussian
  damping weights, Ωc/Ωs digests) into compact JSONL goldens under
  ``tests/golden/`` and diffs a replay against them, in strict
  (bit-identical) or tolerance mode, with a human-readable
  first-divergence report;
* :mod:`repro.qa.fuzz` — stateful fuzz harnesses that drive the live
  engine with interleaved queries, rating bursts, churn joins/leaves,
  collusion activations and manager failovers while asserting
  machine-checked invariants (bounded reputations, batched≡scalar,
  Ωs symmetry, audit-log completeness, cache≡recompute);
* :mod:`repro.qa.differential` — replays one seeded scenario across every
  reputation backend × engine mode and cross-checks the shared
  invariants;
* :mod:`repro.qa.oracle` — the seed scalar query loop, substituted for a
  simulation's batched engine to cross-check it bit for bit;
* :mod:`repro.qa.cache_audit` — recomputes Ωc/Ωs from scratch and diffs
  the incremental matrices (the ``decay_nodes`` divergence class);
* :mod:`repro.qa.reconvergence` — injects scripted chaos (partitions,
  Byzantine managers), heals it, and asserts every backend's reputation
  aggregates return within tolerance of the fault-free twin.

CLI: ``repro qa record`` / ``repro qa check`` / ``repro qa fuzz`` /
``repro qa reconverge``.
"""

from __future__ import annotations

from repro.qa.cache_audit import (
    CacheAuditReport,
    assert_caches_consistent,
    audit_caches,
)
from repro.qa.differential import (
    BACKENDS,
    CellResult,
    DifferentialReport,
    run_differential,
)
from repro.qa.fuzz import (
    EngineFuzzHarness,
    FuzzReport,
    InvariantViolation,
    ManagerFuzzHarness,
    build_engine_machine,
    build_manager_machine,
    run_fuzz,
)
from repro.qa.oracle import ScalarQueryOracle, use_oracle
from repro.qa.reconvergence import (
    ReconvergenceReport,
    ReconvergenceResult,
    run_reconvergence,
)
from repro.qa.golden import (
    Divergence,
    GoldenScenario,
    TraceDiff,
    check_golden,
    diff_traces,
    load_trace,
    record_trace,
    write_trace,
)
from repro.qa.scenarios import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_SCENARIOS,
    check_all,
    record_all,
)

__all__ = [
    "BACKENDS",
    "CacheAuditReport",
    "CellResult",
    "DEFAULT_GOLDEN_DIR",
    "DifferentialReport",
    "Divergence",
    "EngineFuzzHarness",
    "FuzzReport",
    "GOLDEN_SCENARIOS",
    "GoldenScenario",
    "InvariantViolation",
    "ManagerFuzzHarness",
    "ReconvergenceReport",
    "ReconvergenceResult",
    "ScalarQueryOracle",
    "TraceDiff",
    "assert_caches_consistent",
    "audit_caches",
    "build_engine_machine",
    "build_manager_machine",
    "check_all",
    "check_golden",
    "diff_traces",
    "load_trace",
    "record_all",
    "record_trace",
    "run_differential",
    "run_fuzz",
    "run_reconvergence",
    "use_oracle",
    "write_trace",
]
