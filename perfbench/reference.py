"""Reference outputs per workload and input variant, and the check.

``reference/<workload>.json`` maps each input variant to the digest an
episode's outputs must reproduce.  Counts (cycles, requests served,
findings, flagged pairs, events, queries, damped probes) must match
exactly; the float outputs below may drift by :data:`RTOL` /
:data:`ATOL`, which leaves room for a change of floating-point
summation order and nothing more.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["RTOL", "ATOL", "FLOAT_KEYS", "load", "save", "mismatches"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
ATOL = 1e-12
#: Output keys compared within tolerance; every other key exactly.
FLOAT_KEYS = frozenset({"reputations", "query_value_sum", "weight_sum"})


def _path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict[str, dict[str, Any]]:
    """Variant (as a string) -> expected output digest."""
    with _path(workload).open() as handle:
        return json.load(handle)["variants"]


def save(workload: str, variants: dict[str, dict[str, Any]]) -> Path:
    path = _path(workload)
    path.parent.mkdir(exist_ok=True)
    payload = {"variants": variants}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def mismatches(expected: dict[str, Any], actual: dict[str, Any]) -> list[str]:
    """Human-readable differences between two digests (empty when equal)."""
    problems = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected or key not in actual:
            problems.append(f"{key}: present on one side only")
            continue
        want, got = expected[key], actual[key]
        if key in FLOAT_KEYS:
            want_a = np.asarray(want, dtype=np.float64)
            got_a = np.asarray(got, dtype=np.float64)
            if want_a.shape != got_a.shape or not np.allclose(
                got_a, want_a, rtol=RTOL, atol=ATOL
            ):
                diff = (
                    float(np.max(np.abs(got_a - want_a)))
                    if want_a.shape == got_a.shape else float("nan")
                )
                problems.append(f"{key}: differs beyond tolerance (max |delta| {diff:.3e})")
        elif want != got:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems
