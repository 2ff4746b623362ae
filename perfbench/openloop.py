"""Virtual-clock open-loop replay of a recorded service-time trace.

The serve workload runs its stream at full speed and records each line's
real service time.  Latency at an offered rate is then derived, not
slept for: line ``i`` is due at ``i / rate``, and the synchronous FIFO
service starts it at ``max(finish[i-1], due[i])`` (the Lindley
recursion).  For a single-server FIFO queue this is exact, the generator
is never late, and a replay costs no wall-clock time beyond the busy
time already measured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OpenLoop", "replay", "percentile", "capacity"]

#: Percentile of probe latency that :func:`capacity` holds under its limit.
CAPACITY_Q = 99.0
#: Bisection steps in :func:`capacity`; fixed, so the answer is a pure
#: function of the trace.
CAPACITY_ITERATIONS = 40


@dataclass(frozen=True)
class OpenLoop:
    """One trace replayed at one offered rate (all times in seconds)."""

    finish: np.ndarray
    #: ``finish - due``: what the sender of each line waited for its answer.
    latency: np.ndarray
    #: ``start - due``: time each line sat in the queue.
    wait: np.ndarray
    #: Lines due earlier and not yet finished when each line arrives.
    backlog: np.ndarray
    #: Offered load: busy time over the span the arrivals cover.
    load: float


def replay(service_s, rate: float) -> OpenLoop:
    """Replay ``service_s`` with line ``i`` due at ``i / rate``.

    Vectorised Lindley recursion: with ``S`` the running sum of service
    times, ``finish[i] = S[i] + max over k <= i of (due[k] - S[k-1])``,
    which unrolls ``finish[i] = max(finish[i-1], due[i]) + service[i]``.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    s = np.asarray(service_s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("service_s must be a non-empty 1-d trace")
    if (s < 0).any():
        raise ValueError("service times must be non-negative")
    due = np.arange(s.size, dtype=np.float64) / rate
    done = np.cumsum(s)
    gap = due - np.concatenate(([0.0], done[:-1]))
    lead = np.maximum.accumulate(gap)
    finish = done + lead
    # Taken from ``lead - gap`` rather than ``finish - due`` so that a line
    # that never queued waits exactly zero.
    wait = lead - gap
    backlog = np.arange(s.size) - np.searchsorted(finish, due, side="right")
    return OpenLoop(
        finish=finish,
        latency=wait + s,
        wait=wait,
        backlog=np.maximum(backlog, 0),
        load=float(rate * s.sum() / s.size),
    )


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation) of a non-empty sample."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(arr, q))


def capacity(service_s, probe_mask, limit_s: float) -> float:
    """Highest offered rate whose probe-latency :data:`CAPACITY_Q`-th
    percentile stays within ``limit_s`` without a growing backlog
    (offered load < 1).

    Bisection over ``(0, n / busy)``.  Per-line latency never falls as
    the rate rises (Lindley waits are monotone in the arrival gap), so
    the feasible rates form an interval and a fixed iteration count
    makes the answer a pure function of the trace.
    """
    s = np.asarray(service_s, dtype=np.float64)
    mask = np.asarray(probe_mask, dtype=bool)
    if mask.shape != s.shape or not mask.any():
        raise ValueError("probe_mask must select at least one line of the trace")
    busy = float(s.sum())
    if busy <= 0:
        raise ValueError("trace has no busy time")
    lo, hi = 0.0, s.size / busy
    for _ in range(CAPACITY_ITERATIONS):
        mid = 0.5 * (lo + hi)
        run = replay(s, mid)
        if run.load < 1.0 and percentile(run.latency[mask], CAPACITY_Q) <= limit_s:
            lo = mid
        else:
            hi = mid
    return lo
