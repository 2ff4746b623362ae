"""EigenTrust's dense and keyed kernels agree on one history.

The rule ``_keyed_kernel_fits`` picks the kernel per update; here each
run forces one kernel through the rule's constants and both ingest the
same intervals.  The keyed kernel sums rows by ``np.bincount`` and
multiplies by the transpose of a CSR built from the sorted keys (SciPy's
CSC product), so it agrees with the dense clip, normalise and GEMV to
rounding, within ``COEFFICIENT_RTOL``.  The histories cover rows with no
ratings and rows with only negative ratings (both fall back to the
pretrust vector), no pretrusted peers, fading memory and a restore
between updates.
"""

import numpy as np
import pytest

import repro.reputation.eigentrust as eigentrust_module
from repro.qa.differential import COEFFICIENT_RTOL
from repro.reputation import EigenTrust
from repro.reputation.base import IntervalRatings
from repro.reputation.ledger import RatingLedger

N = 40


def force(monkeypatch, kernel: str) -> None:
    """Make the rule pick ``kernel`` at every size and fill."""
    if kernel == "keyed":
        monkeypatch.setattr(eigentrust_module, "_KEYED_MIN_NODES", 0)
        monkeypatch.setattr(eigentrust_module, "_KEYED_FILL_PER_NODE", 1.0)
        monkeypatch.setattr(eigentrust_module, "_KEYED_MAX_FILL", 1.0)
    else:
        monkeypatch.setattr(eigentrust_module, "_KEYED_MIN_NODES", 1 << 30)


def intervals(seed: int, count: int = 6):
    """Drained intervals over N nodes: nodes 30-34 never rate (empty
    rows) and nodes 35-39 rate only negatively; one more interval carries
    self-ratings (diagonal cells, which both kernels must ignore)."""
    rng = np.random.default_rng(seed)
    ledger = RatingLedger(N)
    out = []
    for _ in range(count):
        raters = rng.integers(0, 30, 150)
        ratees = (raters + rng.integers(1, N, 150)) % N
        values = np.where(rng.random(150) < 0.8, 1.0, -1.0)
        ledger.record_many(raters, ratees, values, rng.integers(1, 4, 150).astype(float))
        bad = rng.integers(35, 40, 20)
        ledger.record_many(bad, (bad + 1 + rng.integers(0, N - 1, 20)) % N, -np.ones(20))
        out.append(ledger.drain())
    diagonal = np.diag(np.arange(N, dtype=np.float64))
    out.insert(2, IntervalRatings.from_dense(diagonal, diagonal, np.zeros((N, N))))
    return out


def run(monkeypatch, kernel, pretrusted, decay, restore_at=None):
    reputations = []
    with monkeypatch.context() as mp:
        force(mp, kernel)
        system = EigenTrust(N, pretrusted, memory_decay=decay, epsilon=1e-13)
        for step, interval in enumerate(intervals(5)):
            if step == restore_at:
                fresh = EigenTrust(N, pretrusted, memory_decay=decay, epsilon=1e-13)
                fresh.restore_state(system.state_dict())
                system = fresh
            reputations.append(system.update(interval))
    return np.array(reputations), system


@pytest.mark.parametrize("pretrusted", [(0, 3), ()])
@pytest.mark.parametrize("decay", [1.0, 0.9])
def test_keyed_kernel_matches_dense(monkeypatch, pretrusted, decay):
    dense, dense_system = run(monkeypatch, "dense", pretrusted, decay)
    keyed, keyed_system = run(monkeypatch, "keyed", pretrusted, decay, restore_at=3)
    np.testing.assert_allclose(keyed, dense, rtol=COEFFICIENT_RTOL, atol=0)
    # The unnormalised trust vector too: the fallback rows' mass is kept.
    np.testing.assert_allclose(
        keyed_system.state_dict()["t"], dense_system.state_dict()["t"],
        rtol=COEFFICIENT_RTOL, atol=0,
    )
    assert np.array_equal(keyed_system.local_trust, dense_system.local_trust)
    # The fallback rows are there: never-rating and negative-only raters.
    c = dense_system.normalized_local()
    p = np.zeros(N)
    p[list(pretrusted) or slice(None)] = 1.0 / (len(pretrusted) or N)
    for row in (31, 37):
        assert np.array_equal(c[row], p)


def test_restore_keeps_the_dense_kernel_bitwise(monkeypatch):
    straight, _ = run(monkeypatch, "dense", (0, 3), 0.9)
    resumed, _ = run(monkeypatch, "dense", (0, 3), 0.9, restore_at=2)
    assert straight.tobytes() == resumed.tobytes()


def test_rule_keeps_small_worlds_dense_and_serve_keyed():
    fits = eigentrust_module._keyed_kernel_fits
    for n in (30, 200):
        assert not fits(n, 0)
        assert not fits(n, n * n // 50)
    # serve: n=1000, local trust 2-11 % full.
    for fill in (0.02, 0.11, 0.3):
        assert fits(1000, int(fill * 1000**2))
    assert not fits(1000, int(0.31 * 1000**2))
    assert fits(400, int(0.2 * 400**2))
    assert not fits(400, int(0.21 * 400**2))
