"""The two full-rebuild kernels of the dense Ωc computer.

:meth:`ClosenessComputer.closeness_matrix` rebuilds ``A``, ``T1 = A @ F``
and ``T2 = F @ A`` either as two dense GEMMs or with ``A`` as a CSR
(CSR x dense), chosen by ``_sparse_kernel_fits`` on the node count and
``A``'s nonzero count.  The contracts:

* at n=200, the ``paper`` world's size, both kernels give the same bits;
* the sparse kernel sums each entry in ascending common friend, the
  sparse computer's order, so the dense and sparse computers agree
  bitwise wherever the dense one takes it;
* the rule takes the sparse kernel at ``serve``-like size and fill and
  at ``paper``-like size while ``A`` is at most 1/20 full, and the dense
  one on small worlds and above that fill;
* a checkpoint taken between sparse rebuilds resumes bitwise, and dirty-row
  patches on top of a sparse rebuild stay within the cache audit's bound.
"""

import numpy as np
import pytest

import repro.core.closeness as closeness_module
from repro.core.closeness import ClosenessComputer, _sparse_kernel_fits
from repro.core.config import SocialTrustConfig
from repro.core.sparse import SparseClosenessComputer
from repro.qa.cache_audit import DEFAULT_ATOL, DEFAULT_RTOL
from repro.serve import ReputationService, record_scenario_events
from repro.social.generators import paper_social_network
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger
from repro.utils.rng import spawn_rng
from tests.serve.test_service_checkpoint import small_spec

CONFIGS = [
    SocialTrustConfig(),
    SocialTrustConfig(hardened=False, common_friend_aggregate="sum"),
]
IDS = ["hardened-mean", "plain-sum"]

KINDS = [
    [Relationship()],
    [Relationship("colleague", 0.5)],
    [Relationship("kin", 2.0), Relationship()],
]


def random_graph(n: int, degree: float, seed: int) -> SocialGraph:
    """G(n, p) ties of mixed kinds.  At the degrees used here a few hundred
    connected pairs share no friend and walk the path fallback."""
    rng = np.random.default_rng(seed)
    graph = SocialGraph(n)
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < degree / n
    for a, b in zip(i[keep].tolist(), j[keep].tolist()):
        graph.add_friendship(a, b, KINDS[int(rng.integers(0, 3))])
    return graph


def friend_traffic(graph: SocialGraph, rng, per_rater: int, ledger, raters=None) -> None:
    """Each of ``raters`` (every node when None) rates up to ``per_rater``
    random friends and as many random strangers (which ``A`` ignores),
    with counts across two orders of magnitude."""
    n = graph.n_nodes
    src, dst = [], []
    for i in range(n) if raters is None else raters:
        friends = sorted(graph.friends(i))
        if friends:
            for j in rng.choice(friends, min(per_rater, len(friends)), replace=False):
                src.append(i)
                dst.append(int(j))
        for j in rng.integers(0, n, per_rater).tolist():
            if j != i:
                src.append(i)
                dst.append(j)
    counts = rng.choice([1.0, 2.0, 3.0, 17.0, 150.0], len(src))
    ledger.record_many(np.array(src), np.array(dst), counts)


@pytest.fixture
def kernels(monkeypatch):
    """Records which kernel each full rebuild ran."""
    ran = []
    dense, sparse = ClosenessComputer._rebuild_dense, ClosenessComputer._rebuild_sparse

    def spy_dense(self):
        ran.append("dense")
        dense(self)

    def spy_sparse(self, keys):
        ran.append("sparse")
        sparse(self, keys)

    monkeypatch.setattr(ClosenessComputer, "_rebuild_dense", spy_dense)
    monkeypatch.setattr(ClosenessComputer, "_rebuild_sparse", spy_sparse)
    return ran


def force(monkeypatch, kernel: str) -> None:
    """Make the rule pick ``kernel`` at every size and fill."""
    if kernel == "sparse":
        monkeypatch.setattr(closeness_module, "_SPARSE_MIN_NODES", 0)
        monkeypatch.setattr(closeness_module, "_SPARSE_MAX_FILL", 1.0)
    else:
        monkeypatch.setattr(closeness_module, "_SPARSE_MIN_NODES", 1 << 30)


@pytest.fixture(scope="module")
def wide_world():
    """n=600, average degree ~60, A about 1 % full after one interval."""
    graph = random_graph(600, 60.0, seed=3)
    ledger = InteractionLedger(600)
    friend_traffic(graph, np.random.default_rng(3), 6, ledger)
    return graph, ledger


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_both_kernels_give_the_same_bits_at_n200(cfg, monkeypatch, kernels):
    rng = spawn_rng(5, 0)
    graph = paper_social_network(200, (1, 2, 3), rng)
    ledger = InteractionLedger(200)
    friend_traffic(graph, np.random.default_rng(5), 4, ledger)
    results = {}
    for kernel in ("dense", "sparse"):
        force(monkeypatch, kernel)
        cc = ClosenessComputer(graph, ledger, cfg)
        results[kernel] = (
            cc.closeness_matrix(), cc._cached_adj_close, cc._cached_t1, cc._cached_t2,
        )
    assert kernels == ["dense", "sparse"]
    for got, want in zip(results["sparse"], results["dense"]):
        assert np.array_equal(got, want)
    assert results["sparse"][3].flags.c_contiguous


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_sparse_kernel_matches_sparse_computer_bitwise(cfg, wide_world, kernels):
    graph, ledger = wide_world
    dense = ClosenessComputer(graph, ledger, cfg)
    got = dense.closeness_matrix()
    want = SparseClosenessComputer(graph, ledger, cfg).closeness_matrix()
    assert kernels == ["sparse"]
    assert np.array_equal(got, want)
    # Not vacuous: Eq. (3) covers most pairs and the path fallback some.
    assert np.count_nonzero(got) > 0.5 * got.size
    assert dense._structure_extras()[2].size > 100


class TestRule:
    def test_serve_size_and_fill_takes_sparse(self):
        # serve: n=1000, A 0.6 % full after the warm-up, 4.0 % after
        # interval 7.
        for fill in (0.006, 0.04):
            assert _sparse_kernel_fits(1000, int(fill * 1000**2))

    def test_paper_size_takes_sparse_until_a_twentieth_full(self):
        # paper: n=200, A 1.7 % full at cycle 1, up to 15 %.
        for fill in (0.0, 0.017, 0.05):
            assert _sparse_kernel_fits(200, int(fill * 200**2))
        for fill in (0.06, 0.15):
            assert not _sparse_kernel_fits(200, int(fill * 200**2))

    def test_small_world_takes_dense_at_any_fill(self):
        for fill in (0.0, 0.01, 0.05):
            assert not _sparse_kernel_fits(128, int(fill * 128**2))

    def test_full_matrix_takes_dense(self):
        assert not _sparse_kernel_fits(1000, 100_000)

    def test_worlds(self, wide_world, kernels):
        graph, ledger = wide_world
        ClosenessComputer(graph, ledger).closeness_matrix()
        # paper-sized, A about 2 % full.
        paper = paper_social_network(200, (1, 2, 3), spawn_rng(5, 0))
        paper_ledger = InteractionLedger(200)
        friend_traffic(paper, np.random.default_rng(5), 1, paper_ledger)
        ClosenessComputer(paper, paper_ledger).closeness_matrix()
        small = random_graph(100, 30.0, seed=6)
        small_ledger = InteractionLedger(100)
        friend_traffic(small, np.random.default_rng(6), 1, small_ledger)
        ClosenessComputer(small, small_ledger).closeness_matrix()
        # A about 10 % full.
        dense_graph = random_graph(400, 80.0, seed=4)
        busy = InteractionLedger(400)
        friend_traffic(dense_graph, np.random.default_rng(4), 45, busy)
        ClosenessComputer(dense_graph, busy).closeness_matrix()
        assert kernels == ["sparse", "sparse", "dense", "dense"]


def test_resume_between_sparse_rebuilds_is_bitwise(wide_world, kernels):
    graph, seeded = wide_world
    cfg = SocialTrustConfig(cache_rebuild_interval=3)

    def start(state):
        ledger = InteractionLedger(600)
        ledger.restore_state(state)
        return ledger, ClosenessComputer(graph, ledger, cfg)

    def step(ledger, cc, k):
        """Every third step dirties every row (a rebuild); the others
        dirty a dozen rows (a patch)."""
        rng = np.random.default_rng(100 + k)
        raters = None if k % 3 == 0 else np.unique(rng.integers(0, 600, 12)).tolist()
        friend_traffic(graph, rng, 2, ledger, raters)
        return cc.closeness_matrix().copy()

    ledger, cc = start(seeded.state_dict())
    cc.closeness_matrix()
    uninterrupted = [step(ledger, cc, k) for k in range(8)]

    ledger, cc = start(seeded.state_dict())
    cc.closeness_matrix()
    # Checkpoint after a patch, so the restored caches carry its bits.
    resumed = [step(ledger, cc, k) for k in range(5)]
    saved = cc.state_dict()
    ledger, cc = start(ledger.state_dict())
    cc.restore_state(saved)
    resumed += [step(ledger, cc, k) for k in range(5, 8)]

    assert kernels.count("sparse") > 4 and "dense" not in kernels
    for got, want in zip(resumed, uninterrupted):
        assert np.array_equal(got, want)


def test_service_resume_with_sparse_kernel_is_bitwise(monkeypatch, kernels, tmp_path):
    force(monkeypatch, "sparse")
    recorded = record_scenario_events(small_spec())
    uninterrupted = ReputationService(recorded.spec)
    uninterrupted.serve_events(recorded.events)
    split = recorded.n_events * 2 // 3
    first = ReputationService(recorded.spec)
    first.serve_events(recorded.events[:split])
    resumed = ReputationService.from_checkpoint(first.save_snapshot(tmp_path / "s.ck"))
    resumed.serve_events(recorded.events[split:])
    assert kernels and set(kernels) == {"sparse"}
    assert np.array_equal(resumed.history, uninterrupted.history)
    assert np.array_equal(resumed.reputations, uninterrupted.reputations)


def test_patches_after_sparse_rebuild_stay_within_audit_bound(wide_world, kernels):
    graph, seeded = wide_world
    ledger = InteractionLedger(600)
    ledger.restore_state(seeded.state_dict())
    cc = ClosenessComputer(graph, ledger, SocialTrustConfig(cache_rebuild_interval=10**6))
    cc.closeness_matrix()
    rng = np.random.default_rng(7)
    for _ in range(45):
        i, j = (int(v) for v in rng.integers(0, 600, 2))
        if i != j:
            ledger.record(i, j, float(rng.choice([1.0, 17.0, 150.0])))
        if rng.random() < 0.3:
            ledger.decay_nodes(np.unique(rng.integers(0, 600, 3)), 0.5)
        cc.closeness_matrix()
    assert kernels == ["sparse"]
    assert cc._t2_updates > 30
    fresh = ClosenessComputer(graph, ledger).closeness_matrix()
    assert np.allclose(cc.closeness_matrix(), fresh, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
