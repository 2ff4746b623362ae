"""The full rebuild kernels of the Ωc computer.

In the full layout, :class:`ClosenessComputer` rebuilds ``A``,
``T1 = A @ F`` and ``T2 = F @ A`` either as two dense GEMMs or with ``A``
as a CSR (CSR x dense), chosen by ``_sparse_kernel_fits`` on the node
count and ``A``'s nonzero count; in the two-hop layout it sums them over
the two-hop table.  The contracts:

* at n=200, the ``paper`` world's size, all three kernels give the same
  bits;
* the sparse-A kernel sums each entry in ascending common friend, the
  two-hop table's order, so the two layouts agree bitwise wherever the
  full one takes it;
* the rule takes the sparse-A kernel at ``serve``-like size and fill and
  at ``paper``-like size while ``A`` is at most 1/20 full, and the GEMMs
  on small worlds and above that fill; the layout rule takes the two-hop
  layout on a world with fewer two-hop paths than matrix entries;
* a checkpoint taken between rebuilds resumes bitwise, a resumed service
  matches the uninterrupted one bitwise on every kernel, and dirty-row
  patches on top of a sparse-A rebuild stay within the cache audit's
  bound.
"""

import numpy as np
import pytest

from repro.core.closeness import (
    ClosenessComputer,
    _full_layout_fits,
    _sparse_kernel_fits,
)
from repro.core.config import SocialTrustConfig
from repro.qa.cache_audit import DEFAULT_ATOL, DEFAULT_RTOL
from repro.serve import ReputationService, WatermarkEvent, record_scenario_events
from repro.social.generators import paper_social_network
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger
from repro.utils.rng import spawn_rng
from tests.core.kernels import CLOSENESS_KERNELS, closeness_with, force
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
    """Records which kernel each full rebuild ran: "dense" (the GEMMs),
    "sparse" (sparse-A) or "two-hop"."""
    ran = []
    for name, label in (
        ("_rebuild_dense", "dense"),
        ("_rebuild_sparse", "sparse"),
        ("_rebuild_two_hop", "two-hop"),
    ):
        original = getattr(ClosenessComputer, name)

        def spy(self, *args, _original=original, _label=label):
            ran.append(_label)
            _original(self, *args)

        monkeypatch.setattr(ClosenessComputer, name, spy)
    return ran


def fallback_pairs(cc: ClosenessComputer) -> np.ndarray:
    """The ``(i, j)`` pairs of a full-layout computer that walk the path
    fallback: connected, non-adjacent, and without a common friend."""
    cc._structure()
    i, j = np.divmod(np.flatnonzero(~cc._slot_adj & (cc._slot_common == 0)), cc.n_nodes)
    keep = i != j
    i, j = i[keep], j[keep]
    keep = cc._connected(i, j)
    return np.stack([i[keep], j[keep]], axis=1)


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
    for kernel in ("gemm", "sparse-a"):
        force(monkeypatch, kernel)
        cc = ClosenessComputer(graph, ledger, cfg)
        results[kernel] = (cc.closeness_matrix(), cc._a, cc._t1, cc._t2)
    force(monkeypatch, "two-hop")
    two_hop = ClosenessComputer(graph, ledger, cfg).closeness_matrix()
    assert kernels == ["dense", "sparse", "two-hop"]
    for got, want in zip(results["sparse-a"], results["gemm"]):
        assert np.array_equal(got, want)
    assert np.array_equal(two_hop, results["gemm"][0])


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_sparse_kernel_matches_sparse_computer_bitwise(cfg, wide_world, kernels):
    """The full layout's sparse-A kernel against the two-hop layout."""
    graph, ledger = wide_world
    full = ClosenessComputer(graph, ledger, cfg)
    got = full.closeness_matrix()
    want = closeness_with("two-hop", graph, ledger, cfg).closeness_matrix()
    assert kernels == ["sparse", "two-hop"]
    assert np.array_equal(got, want)
    # Not vacuous: Eq. (3) covers most pairs and the path fallback some.
    assert np.count_nonzero(got) > 0.5 * got.size
    assert len(fallback_pairs(full)) > 100


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
        # Average degree 8: 0.16 two-hop paths per matrix entry.
        thin = random_graph(400, 8.0, seed=7)
        thin_ledger = InteractionLedger(400)
        friend_traffic(thin, np.random.default_rng(7), 2, thin_ledger)
        ClosenessComputer(thin, thin_ledger).closeness_matrix()
        assert kernels == ["sparse", "sparse", "dense", "dense", "two-hop"]

    def test_layout_follows_the_two_hop_paths(self):
        # golden worlds 3.2-4.2 paths per entry, paper 25, serve 111.
        for ratio in (3.2, 25.0, 111.0, 1.0):
            assert _full_layout_fits(1000, int(ratio * 1000**2))
        # sparse_1e4: 0.006 paths per entry.
        assert not _full_layout_fits(10_000, int(0.006 * 10_000**2))
        assert not _full_layout_fits(1000, 1000**2 - 1)


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
    force(monkeypatch, "sparse-a")
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


@pytest.mark.parametrize("kernel", CLOSENESS_KERNELS)
def test_service_resume_is_bitwise_on_every_kernel(kernel, monkeypatch, tmp_path):
    """A mid-stream snapshot resumes to the uninterrupted history, and one
    taken right after a watermark carries no Ωc terms, Ωs numerator,
    drained-interval arrays or dense rated/flag history: the restore
    rebuilds the first three from its stores, and the history is keys."""
    from repro.chaos.checkpoint import load_checkpoint

    force(monkeypatch, kernel)
    recorded = record_scenario_events(small_spec())
    uninterrupted = ReputationService(recorded.spec)
    uninterrupted.serve_events(recorded.events)
    for split in (recorded.n_events // 3, recorded.n_events * 2 // 3):
        first = ReputationService(recorded.spec)
        first.serve_events(recorded.events[:split])
        path = first.save_snapshot(tmp_path / f"s{split}.ck")
        resumed = ReputationService.from_checkpoint(path)
        resumed.serve_events(recorded.events[split:])
        assert np.array_equal(resumed.history, uninterrupted.history)
        assert np.array_equal(resumed.reputations, uninterrupted.reputations)
    watermark = next(
        k + 1 for k, event in enumerate(recorded.events) if isinstance(event, WatermarkEvent)
    )
    first = ReputationService(recorded.spec)
    first.serve_events(recorded.events[:watermark])
    _, state = load_checkpoint(first.save_snapshot(tmp_path / "w.ck"))
    system = state["simulation"]["system"]
    assert {system["closeness"][k] is None for k in ("adj_close", "t1", "t2")} == {True}
    assert system["closeness"]["t2_updates"] == 0
    assert system["similarity"]["numer"] is None
    assert set(state["simulation"]["ledger"]) == {"total_recorded"}
    assert not {"rated_mask", "flag_counts"} & set(system)
    resumed = ReputationService.from_checkpoint(tmp_path / "w.ck")
    resumed.serve_events(recorded.events[watermark:])
    assert np.array_equal(resumed.history, uninterrupted.history)


def test_service_resume_from_dense_history_is_bitwise(tmp_path):
    """A snapshot in the older format, whose rated pairs and flag counts
    are dense n x n arrays, resumes to the uninterrupted history."""
    from repro.chaos.checkpoint import load_checkpoint

    recorded = record_scenario_events(small_spec())
    uninterrupted = ReputationService(recorded.spec)
    uninterrupted.serve_events(recorded.events)
    split = recorded.n_events * 2 // 3
    first = ReputationService(recorded.spec)
    first.serve_events(recorded.events[:split])
    _, state = load_checkpoint(first.save_snapshot(tmp_path / "s.ck"))
    system = state["simulation"]["system"]
    n = recorded.spec.world["n_nodes"]
    rated, flags = system.pop("rated"), system.pop("flags")
    assert rated.size and flags["keys"].size
    rated_mask = np.zeros(n * n, dtype=bool)
    rated_mask[rated] = True
    flag_counts = np.zeros(n * n, dtype=np.int64)
    flag_counts[flags["keys"]] = flags["hits"]
    system["rated_mask"] = rated_mask.reshape(n, n)
    system["flag_counts"] = flag_counts.reshape(n, n)
    resumed = ReputationService(recorded.spec)
    resumed.restore(state)
    resumed.serve_events(recorded.events[split:])
    assert np.array_equal(resumed.history, uninterrupted.history)
    assert np.array_equal(resumed.reputations, uninterrupted.reputations)
