"""The full rebuild kernels of the Ωc computer.

In the full layout, :class:`ClosenessComputer` either caches ``A``,
``T1 = A @ F`` and ``T2 = F @ A`` from two dense GEMMs or caches ``A``
alone (CSRs of ``A`` and ``Aᵀ``) and sums ``T1`` and ``T2`` at the asked pairs
(the pair kernel), chosen by ``_sparse_kernel_fits`` on the node count
and ``A``'s nonzero count; in the two-hop layout it sums them over the
two-hop table.  The contracts:

* at n=200, the ``paper`` world's size, all three kernels give the same
  bits;
* the pair kernel sums each entry in ascending common friend, the
  two-hop table's order, so the two layouts agree bitwise wherever the
  full one takes it;
* the rule takes the pair kernel at ``serve``-like size and fill and
  at ``paper``-like size while ``A`` is at most 1/20 full, and the GEMMs
  on small worlds and above that fill; the layout rule takes the two-hop
  layout on a world with fewer two-hop paths than matrix entries;
* a checkpoint taken between rebuilds resumes bitwise, a resumed service
  matches the uninterrupted one bitwise on every kernel, and the pair
  kernel never patches: after any ledger history it is bitwise a fresh
  computer, holds no ``n x n`` term and writes no terms;
* an all-pairs read under the pair kernel gathers in bounded chunks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.closeness import (
    ClosenessComputer,
    _full_layout_fits,
    _sparse_kernel_fits,
)
from repro.core.config import SocialTrustConfig
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
    "pairs" (the pair kernel) or "two-hop"."""
    ran = []
    for name, label in (
        ("_rebuild_dense", "dense"),
        ("_rebuild_pairs", "pairs"),
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


@pytest.fixture(scope="module")
def serve_world():
    """``serve``'s size and social network (n=1000, adjacency a third
    full), with A about 1.7 % full."""
    graph = paper_social_network(1000, (1, 2, 3), spawn_rng(0, 0))
    ledger = InteractionLedger(1000)
    friend_traffic(graph, np.random.default_rng(0), 13, ledger)
    return graph, ledger


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_both_kernels_give_the_same_bits_at_n200(cfg, monkeypatch, kernels):
    rng = spawn_rng(5, 0)
    graph = paper_social_network(200, (1, 2, 3), rng)
    ledger = InteractionLedger(200)
    friend_traffic(graph, np.random.default_rng(5), 4, ledger)
    results = {}
    slot = np.arange(200 * 200)
    i, j = np.divmod(slot, 200)
    for kernel in ("gemm", "sparse-a"):
        force(monkeypatch, kernel)
        cc = ClosenessComputer(graph, ledger, cfg)
        matrix = cc.closeness_matrix()
        # A, T1 and T2 at every pair, cached by the GEMMs, summed by the
        # pair kernel.
        results[kernel] = (matrix, cc._adjacent_at(slot), *cc._eq3_terms_at(slot, i, j))
    force(monkeypatch, "two-hop")
    two_hop = ClosenessComputer(graph, ledger, cfg).closeness_matrix()
    assert kernels == ["dense", "pairs", "two-hop"]
    for got, want in zip(results["sparse-a"], results["gemm"]):
        assert np.array_equal(got, want)
    assert np.array_equal(two_hop, results["gemm"][0])


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_sparse_kernel_matches_sparse_computer_bitwise(cfg, wide_world, kernels):
    """The full layout's pair kernel against the two-hop layout."""
    graph, ledger = wide_world
    full = ClosenessComputer(graph, ledger, cfg)
    got = full.closeness_matrix()
    want = closeness_with("two-hop", graph, ledger, cfg).closeness_matrix()
    assert kernels == ["pairs", "two-hop"]
    assert np.array_equal(got, want)
    # Not vacuous: Eq. (3) covers most pairs and the path fallback some.
    assert np.count_nonzero(got) > 0.5 * got.size
    assert len(fallback_pairs(full)) > 100


class TestRule:
    def test_serve_size_and_fill_takes_sparse(self):
        """The pair kernel."""
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
        for n in (128, 160):
            for fill in (0.0, 0.01, 0.05):
                assert not _sparse_kernel_fits(n, int(fill * n**2))

    def test_full_matrix_takes_dense(self):
        # Above the bound's 20 % cap, up to a full matrix.
        for fill in (0.21, 1.0):
            assert not _sparse_kernel_fits(1000, int(fill * 1000**2))

    def test_fill_bound_grows_with_the_world(self):
        # A serve-sized world keeps the pair kernel at 10 % fill.
        assert _sparse_kernel_fits(1000, int(0.10 * 1000**2))
        assert _sparse_kernel_fits(1000, int(0.20 * 1000**2))
        # 1/20 up to 275 nodes, then (n - 100) / 3500.
        for n in (169, 200, 275):
            assert _sparse_kernel_fits(n, int(n * n / 20))
            assert not _sparse_kernel_fits(n, int(n * n / 20) + 1)
        assert _sparse_kernel_fits(600, int(0.14 * 600**2))
        assert not _sparse_kernel_fits(600, int(0.15 * 600**2))

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
        assert kernels == ["pairs", "pairs", "dense", "dense", "two-hop"]

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

    # Random pairs, every fallback pair and a diagonal one.
    ledger, cc = start(seeded.state_dict())
    rng = np.random.default_rng(9)
    fallback = fallback_pairs(cc)
    asked = (
        np.concatenate([rng.integers(0, 600, 20_000), fallback[:, 0], [5]]),
        np.concatenate([rng.integers(0, 600, 20_000), fallback[:, 1], [5]]),
    )

    def step(ledger, cc, k):
        """Every third step dirties every row; the others dirty a dozen
        rows (a patch under the GEMMs; the pair kernel rebuilds ``A``)."""
        rng = np.random.default_rng(100 + k)
        raters = None if k % 3 == 0 else np.unique(rng.integers(0, 600, 12)).tolist()
        friend_traffic(graph, rng, 2, ledger, raters)
        return cc.pair_values(*asked)

    cc.pair_values(*asked)
    uninterrupted = [step(ledger, cc, k) for k in range(8)]

    ledger, cc = start(seeded.state_dict())
    cc.pair_values(*asked)
    # Checkpoint after a dozen-row step.
    resumed = [step(ledger, cc, k) for k in range(5)]
    saved = cc.state_dict()
    assert saved["adj_close"] is saved["t1"] is saved["t2"] is None
    ledger, cc = start(ledger.state_dict())
    cc.restore_state(saved)
    resumed += [step(ledger, cc, k) for k in range(5, 8)]

    assert kernels.count("pairs") > 4 and "dense" not in kernels
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
    assert kernels and set(kernels) == {"pairs"}
    assert np.array_equal(resumed.history, uninterrupted.history)
    assert np.array_equal(resumed.reputations, uninterrupted.reputations)


def test_pair_kernel_after_few_row_changes_is_bitwise_a_fresh_computer(wide_world, kernels):
    """Single ratings and churn decay, the few-dirty-row steps the GEMMs
    patch: the pair kernel rebuilds ``A`` on each and never patches, so
    its values stay bitwise a fresh computer's (checked every fifth
    step), with no drift to bound."""
    graph, seeded = wide_world
    ledger = InteractionLedger(600)
    ledger.restore_state(seeded.state_dict())
    cfg = SocialTrustConfig(cache_rebuild_interval=10**6)
    cc = ClosenessComputer(graph, ledger, cfg)
    rng = np.random.default_rng(7)
    fallback = fallback_pairs(cc)
    friends = np.flatnonzero(cc._slot_adj)
    for step in range(45):
        i, j = (int(v) for v in rng.integers(0, 600, 2))
        if i != j:
            ledger.record(i, j, float(rng.choice([1.0, 17.0, 150.0])))
        if rng.random() < 0.3:
            ledger.decay_nodes(np.unique(rng.integers(0, 600, 3)), 0.5)
        # Random pairs (mostly common-friend ones), adjacent pairs,
        # fallback pairs and a diagonal one, some asked twice.
        ai, aj = rng.integers(0, 600, (2, 300))
        fi, fj = np.divmod(rng.choice(friends, 100), 600)
        pick = fallback[rng.integers(0, len(fallback), 20)]
        ai = np.concatenate([ai, fi, pick[:, 0], [step], ai[:10]])
        aj = np.concatenate([aj, fj, pick[:, 1], [step], aj[:10]])
        got = cc.pair_values(ai, aj)
        assert cc._t2_updates == 0
        if step % 5 == 4:
            fresh = ClosenessComputer(graph, ledger, cfg)
            assert np.array_equal(got, fresh.pair_values(ai, aj))
    assert set(kernels) == {"pairs"} and len(kernels) > 45


def test_pair_kernel_holds_no_square_term(serve_world, kernels):
    """On a ``serve``-sized world the pair kernel caches ``A`` alone, at
    its nonzeros, and writes no terms, before and after the ledger moves
    past them."""
    graph, seeded = serve_world
    ledger = InteractionLedger(1000)
    ledger.restore_state(seeded.state_dict())
    cc = ClosenessComputer(graph, ledger)
    n = cc.n_nodes
    asked = np.random.default_rng(0).integers(0, n, (2, 17_000))
    cc.pair_values(*asked)
    assert kernels == ["pairs"]
    assert cc._a is None and cc._t1 is None and cc._t2 is None
    assert cc._cached_matrix is None
    nnz = cc._a_keys.size
    assert 0 < nnz < n * n / 20
    for a in (cc._a_rows, cc._a_cols):
        assert a.nnz == nnz and a.indptr.size == n + 1
    for moved in (False, True):
        if moved:
            ledger.record(0, min(graph.friends(0)), 2.0)
        state = cc.state_dict()
        assert state["adj_close"] is None and state["t1"] is None and state["t2"] is None
        assert state["kernel"] == "pairs" and state["t2_updates"] == 0


def test_all_pairs_read_gathers_in_bounded_chunks(serve_world):
    """An all-pairs read at n=1000 under the pair kernel: the sums over
    every pair would gather about 2 * n * nnz(A) entries at once (~270
    MiB of values alone here); in chunks its temporaries stay within 16
    MiB beside the matrix it returns."""
    graph, ledger = serve_world
    cc = ClosenessComputer(graph, ledger)
    # Refresh and label the components outside the trace.
    cc.pair_values([0], [1])
    cc._connected(np.array([0]), np.array([1]))
    assert cc._kernel == "pairs"
    assert 2 * cc.n_nodes * cc._a_keys.size * 8 > 256 * 2**20
    tracemalloc.start()
    try:
        matrix = cc.closeness_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix.nbytes + 16 * 2**20
    i, j = np.divmod(np.random.default_rng(1).integers(0, cc.n_nodes**2, 5000), cc.n_nodes)
    assert np.array_equal(matrix[i, j], cc.pair_values(i, j))


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


def test_service_resume_from_older_sparse_a_terms_is_bitwise(monkeypatch, tmp_path):
    """A snapshot in the older format of a world the pair kernel serves
    carries the n x n terms of the sparse-A kernel it replaced, patched
    (``t2_updates > 0``) and without a kernel: the resume accepts them,
    does not read them, and matches the uninterrupted history."""
    from repro.chaos.checkpoint import load_checkpoint

    force(monkeypatch, "sparse-a")
    recorded = record_scenario_events(small_spec())
    uninterrupted = ReputationService(recorded.spec)
    uninterrupted.serve_events(recorded.events)
    split = recorded.n_events * 2 // 3
    first = ReputationService(recorded.spec)
    first.serve_events(recorded.events[:split])
    _, state = load_checkpoint(first.save_snapshot(tmp_path / "s.ck"))
    closeness = state["simulation"]["system"]["closeness"]
    assert closeness.pop("kernel") == "pairs"
    n = recorded.spec.world["n_nodes"]
    closeness.update({name: np.full(n * n, 7.0) for name in ("adj_close", "t1", "t2")})
    closeness["t2_updates"] = 3
    resumed = ReputationService(recorded.spec)
    resumed.restore(state)
    restored = resumed._system.closeness_computer
    assert restored._a is None and restored._kernel in (None, "pairs")
    resumed.serve_events(recorded.events[split:])
    assert np.array_equal(resumed.history, uninterrupted.history)
    assert np.array_equal(resumed.reputations, uninterrupted.reputations)
