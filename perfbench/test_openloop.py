"""Tests of the virtual-clock open-loop helper.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_openloop.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from openloop import capacity, percentile, replay


def _loop_reference(service, rate):
    """The recursion written out line by line."""
    finish, out = 0.0, []
    for i, s in enumerate(service):
        finish = max(finish, i / rate) + s
        out.append(finish)
    return np.array(out)


def test_hand_worked_schedule_with_a_stall():
    # One line per second; line 1 stalls the server for 2.5 s.
    run = replay([0.5, 2.5, 0.5, 0.5, 0.5, 0.5], rate=1.0)
    assert run.finish.tolist() == [0.5, 3.5, 4.0, 4.5, 5.0, 5.5]
    assert run.latency.tolist() == [0.5, 2.5, 2.0, 1.5, 1.0, 0.5]
    assert run.wait.tolist() == [0.0, 0.0, 1.5, 1.0, 0.5, 0.0]
    assert run.backlog.tolist() == [0, 0, 1, 2, 1, 0]
    assert run.load == pytest.approx(5.0 / 6.0)


def test_matches_the_line_by_line_recursion():
    rng = np.random.default_rng(3)
    service = rng.exponential(1e-3, 5_000)
    service[::700] = 0.05  # periodic stalls
    for rate in (100.0, 500.0, 900.0):
        np.testing.assert_allclose(
            replay(service, rate).finish, _loop_reference(service, rate), rtol=1e-12
        )


def test_p99_is_monotone_in_offered_rate():
    rng = np.random.default_rng(7)
    service = rng.exponential(2e-4, 20_000)
    service[::2_000] = 0.3
    probes = np.zeros(service.size, dtype=bool)
    probes[::50] = True
    p99 = [
        percentile(replay(service, rate).latency[probes], 99)
        for rate in np.linspace(100.0, 4_500.0, 25)
    ]
    assert all(b >= a for a, b in zip(p99, p99[1:]))


def test_capacity_bisection_is_deterministic_and_feasible():
    rng = np.random.default_rng(11)
    service = rng.exponential(2e-4, 20_000)
    service[::2_000] = 0.3
    probes = np.zeros(service.size, dtype=bool)
    probes[::50] = True
    limit = 0.5
    first = capacity(service, probes, limit)
    assert first == capacity(service.copy(), probes.copy(), limit)
    assert 0.0 < first < service.size / service.sum()
    at = replay(service, first)
    assert at.load < 1.0
    assert percentile(at.latency[probes], 99) <= limit
    above = replay(service, first * 1.01)
    assert above.load >= 1.0 or percentile(above.latency[probes], 99) > limit


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        replay([], 1.0)
    with pytest.raises(ValueError):
        replay([0.1], 0.0)
    with pytest.raises(ValueError):
        replay([-0.1], 1.0)
    with pytest.raises(ValueError):
        capacity([0.1, 0.2], [False, False], 1.0)
