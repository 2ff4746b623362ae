"""Differential runner: one seeded scenario × every backend × engine mode.

Replays the same scenario keywords across all five reputation backends
(EigenTrust, eBay, PowerTrust, TrustGuard, GossipTrust) and both
query-cycle loops — ``batched`` (the simulation's engine) and ``scalar``
(the seed loop, :mod:`repro.qa.oracle`) — and cross-checks the
invariants every cell must share regardless of backend:

* reputations are finite, lie in ``[0, 1]``, and sum to at most 1 (every
  backend normalises its positive mass);
* the history has exactly one snapshot per cycle run;
* within a backend, the batched and scalar engines are **bit-identical**
  — same reputations, same history, same request-routing totals.

The formal analyses of trust aggregation cited in the roadmap (bounded
reputations, convergence under repeated aggregation) make exactly these
properties checkable without knowing the right answer — which is the
point: a differential run needs no golden file, so it can sweep
configurations no golden covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.qa.oracle import use_oracle

__all__ = [
    "BACKENDS",
    "ENGINE_MODES",
    "CellResult",
    "DifferentialReport",
    "run_differential",
]

#: Base reputation stacks the runner sweeps.  The first three get their
#: SocialTrust-wrapped variant when ``use_socialtrust`` is on; TrustGuard
#: and GossipTrust embed their own defence and always run bare.
BACKENDS: tuple[str, ...] = (
    "eigentrust",
    "ebay",
    "powertrust",
    "trustguard",
    "gossip",
)

#: Query-cycle loops a cell can run: the simulation's batched engine or
#: the scalar seed-loop oracle substituted for it.
ENGINE_MODES: tuple[str, ...] = ("batched", "scalar")

#: Backends with a SocialTrust-wrapped variant.
_WRAPPABLE = frozenset({"eigentrust", "ebay", "powertrust"})

_SUM_SLACK = 1e-9

#: Tolerance within which the coefficient kernels agree (Ωc: GEMMs,
#: sparse-A and two-hop; Ωs: product and row dots).  They are the same
#: mathematics with different float summation orders, so they agree to a
#: few ulps; the bound leaves headroom while still catching any genuine
#: semantic divergence.
COEFFICIENT_RTOL = 1e-9
COEFFICIENT_ATOL = 1e-12


@dataclass(frozen=True)
class CellResult:
    """One (backend, engine) cell of the differential grid."""

    backend: str
    engine: str
    system_name: str
    reputations: np.ndarray
    history: np.ndarray
    total_requests: int
    total_served: int
    unserved: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    seed: int
    cycles: int
    cells: list[CellResult] = field(default_factory=list)
    #: Cross-cell violations (engine-equivalence breaks), on top of the
    #: per-cell invariant violations carried by each cell.
    cross_violations: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        out = [
            f"{cell.backend}/{cell.engine}: {violation}"
            for cell in self.cells
            for violation in cell.violations
        ]
        out.extend(self.cross_violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"differential run: seed={self.seed} cycles={self.cycles} "
            f"({len(self.cells)} cells)"
        ]
        for cell in self.cells:
            status = "ok" if cell.ok else f"VIOLATED ({len(cell.violations)})"
            lines.append(
                f"  {cell.backend:<11} {cell.engine:<7} {cell.system_name:<28} "
                f"served={cell.total_served:<6} {status}"
            )
        if self.cross_violations:
            lines.append("cross-engine violations:")
            lines.extend(f"  {v}" for v in self.cross_violations)
        lines.append("result: " + ("ALL INVARIANTS HOLD" if self.ok else "VIOLATIONS FOUND"))
        return "\n".join(lines)


def _run(scenario, engine: str, cycles: int):
    """Run ``scenario`` on the named query-cycle loop."""
    if engine not in ENGINE_MODES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINE_MODES}")
    if engine == "scalar":
        use_oracle(scenario.simulation)
    return scenario.run(cycles)


def _cell_invariants(
    reputations: np.ndarray, history: np.ndarray, cycles: int
) -> list[str]:
    violations: list[str] = []
    if not np.all(np.isfinite(reputations)):
        violations.append("non-finite reputation values")
    if reputations.size and (reputations.min() < 0.0 or reputations.max() > 1.0):
        violations.append(
            f"reputations outside [0, 1]: min={reputations.min():.6g}, "
            f"max={reputations.max():.6g}"
        )
    total = float(reputations.sum())
    if total > 1.0 + _SUM_SLACK:
        violations.append(f"reputation mass {total:.12g} exceeds 1")
    if history.shape[0] != cycles:
        violations.append(
            f"history has {history.shape[0]} snapshots for {cycles} cycles"
        )
    if history.size and not np.all(np.isfinite(history)):
        violations.append("non-finite history values")
    if history.size and (history.min() < 0.0 or history.max() > 1.0):
        violations.append("history values outside [0, 1]")
    return violations


def run_differential(
    *,
    seed: int = 0,
    cycles: int = 4,
    collusion: str = "pcm",
    use_socialtrust: bool = True,
    backends: Sequence[str] = BACKENDS,
    engines: Sequence[str] = ENGINE_MODES,
    **overrides: Any,
) -> DifferentialReport:
    """Run the backend × engine grid and cross-check shared invariants.

    Every cell is rebuilt from scratch with the same ``seed`` so the
    worlds are structurally identical; ``overrides`` are forwarded to
    :func:`repro.api.build_scenario` (defaults here are a small, fast
    world — raise ``n_nodes``/``cycles`` for a deeper sweep).
    """
    from repro.api import build_scenario

    unknown = sorted(set(backends) - set(BACKENDS))
    if unknown:
        raise ValueError(f"unknown backend(s) {unknown}; choose from {BACKENDS}")
    build: dict[str, Any] = dict(
        n_nodes=24,
        n_pretrusted=2,
        n_colluders=5,
        n_interests=6,
        interests_per_node=(1, 3),
        capacity=10,
        query_cycles=4,
        simulation_cycles=cycles,
        collusion=collusion,
    )
    build.update(overrides)
    report = DifferentialReport(seed=seed, cycles=cycles)
    for backend in backends:
        wrap = use_socialtrust and backend in _WRAPPABLE
        per_engine: dict[str, CellResult] = {}
        for engine in engines:
            scenario = build_scenario(
                seed=seed,
                system=backend,
                use_socialtrust=True if wrap else None,
                **build,
            )
            result = _run(scenario, engine, cycles)
            cell = CellResult(
                backend=backend,
                engine=engine,
                system_name=scenario.world.system.name,
                reputations=result.reputations,
                history=result.history,
                total_requests=result.metrics.total_requests,
                total_served=result.metrics.total_served,
                unserved=result.metrics.unserved,
                violations=tuple(
                    _cell_invariants(result.reputations, result.history, cycles)
                ),
            )
            per_engine[engine] = cell
            report.cells.append(cell)
        if "batched" in per_engine and "scalar" in per_engine:
            batched, scalar = per_engine["batched"], per_engine["scalar"]
            if not np.array_equal(batched.reputations, scalar.reputations):
                delta = float(
                    np.abs(batched.reputations - scalar.reputations).max()
                )
                report.cross_violations.append(
                    f"{backend}: batched and scalar reputations differ "
                    f"(max |delta| = {delta:.3e})"
                )
            elif not np.array_equal(batched.history, scalar.history):
                report.cross_violations.append(
                    f"{backend}: batched and scalar histories differ"
                )
            if (batched.total_requests, batched.total_served, batched.unserved) != (
                scalar.total_requests,
                scalar.total_served,
                scalar.unserved,
            ):
                report.cross_violations.append(
                    f"{backend}: batched and scalar routing totals differ"
                )
    return report
