"""The two-hop Ωc layout against the CSR-cache algorithm it replaced.

In its two-hop layout :class:`ClosenessComputer` keeps ``A``/``T1``/``T2``
as arrays aligned to the static union pattern and patches dirty rows in
place; :class:`tests.core.csr_reference.CsrCacheClosenessComputer` is the
CSR-matrix layout it replaced.  Both read one ledger through the same
history (cold build, small and large patches, churn decay, the periodic
rebuild, a restore from a CSR-layout checkpoint), and every step must
agree bitwise — ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.closeness as closeness_module
from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.detector import _merge_sorted
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger, SparseInteractionLedger
from tests.core.csr_reference import CsrCacheClosenessComputer
from tests.core.kernels import closeness_with, force

N = 240
COMMUNITY = 12
ISOLATED = 20
CLUSTER = 24

CONFIGS = [
    SocialTrustConfig(cache_rebuild_interval=3),
    SocialTrustConfig(
        cache_rebuild_interval=3, hardened=False, common_friend_aggregate="sum"
    ),
]


def two_hop(graph, ledger, cfg) -> ClosenessComputer:
    return closeness_with("two-hop", graph, ledger, cfg)


def make_graph(seed: int = 0) -> SocialGraph:
    """Communities around a hub with random chords and mixed tie types,
    a few bridges between non-hub members (so some connected pairs share
    no friend and take the path fallback), and a last community that
    nothing reaches (pairs with no path at all)."""
    rng = np.random.default_rng(seed)
    graph = SocialGraph(N)
    kinds = [
        [Relationship()],
        [Relationship("colleague", 0.5)],
        [Relationship("kin", 2.0), Relationship()],
    ]
    for hub in range(0, N, COMMUNITY):
        for member in range(hub + 1, hub + COMMUNITY):
            graph.add_friendship(hub, member, kinds[int(rng.integers(0, 3))])
        for _ in range(COMMUNITY // 2):
            i, j = hub + rng.choice(np.arange(1, COMMUNITY), 2, replace=False)
            graph.add_friendship(int(i), int(j), kinds[int(rng.integers(0, 3))])
    for hub in range(0, N - 2 * COMMUNITY, 2 * COMMUNITY):
        graph.add_friendship(hub + 1, hub + COMMUNITY + 1)
    return graph


def make_hub_graph(seed: int = 0) -> SocialGraph:
    """One hub befriending half the nodes (its row and column dominate
    the two-hop table), a dense cluster on nodes ``1..CLUSTER`` (its pairs
    share many friends), sparse random ties among the rest, and the last
    :data:`ISOLATED` nodes with no friend at all."""
    rng = np.random.default_rng(seed)
    graph = SocialGraph(N)
    linked = N - ISOLATED
    for member in rng.choice(np.arange(1, linked), linked // 2, replace=False):
        graph.add_friendship(0, int(member), [Relationship("kin", 2.0)])
    for i in range(1, CLUSTER + 1):
        for j in range(i + 1, CLUSTER + 1):
            if rng.random() < 0.5:
                graph.add_friendship(i, j)
    for _ in range(linked):
        i, j = rng.choice(np.arange(1, linked), 2, replace=False)
        graph.add_friendship(int(i), int(j))
    return graph


def edge_traffic(graph: SocialGraph, rng, raters=None):
    """Interaction batch along friendship edges, from ``raters`` (all
    nodes when None) to random friends.  Counts span two orders of
    magnitude so a patch moves shares by more than 2x, where
    ``a + (new - a)`` and ``new`` round differently."""
    rows = np.arange(N) if raters is None else np.asarray(raters)
    src, dst = [], []
    for i in rows.tolist():
        friends = sorted(graph.friends(i))
        if friends:
            for j in rng.choice(friends, min(3, len(friends)), replace=False):
                src.append(i)
                dst.append(int(j))
    counts = rng.choice([1.0, 2.0, 3.0, 17.0, 150.0], len(src))
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), counts


def probe_pairs(rng) -> tuple[np.ndarray, np.ndarray]:
    """A fixed mix of random pairs (on and off the union pattern, some
    on the diagonal) plus every pair inside the first two communities."""
    block = np.arange(2 * COMMUNITY)
    i = np.concatenate([rng.integers(0, N, 3000), np.repeat(block, block.size)])
    j = np.concatenate([rng.integers(0, N, 3000), np.tile(block, block.size)])
    return i, j


def assert_bitwise(new, ref, pairs) -> None:
    """The probe pairs, and every pair of the union pattern."""
    i, j = pairs
    got, want = new.pair_values(i, j), ref.pair_values(i, j)
    assert np.array_equal(got, want)
    pi, pj = np.divmod(new._pu_keys[:-1], N)
    want = np.asarray(ref.matrix_csr()[pi, pj]).ravel()
    assert np.array_equal(new.pair_values(pi, pj), want)


def check_history(graph: SocialGraph, cfg) -> None:
    """Drive both caches through one ledger history -- cold build, small
    and large patches, an exact rebuild, churn decay, the periodic
    rebuild -- asserting bitwise agreement at every step."""
    rng = np.random.default_rng(5)
    ledger = SparseInteractionLedger(N)
    ledger.record_many(*edge_traffic(graph, rng))
    new = two_hop(graph, ledger, cfg)
    ref = CsrCacheClosenessComputer(graph, ledger, cfg)
    pairs = probe_pairs(rng)
    assert np.any(pairs[0] == pairs[1])

    # Cold rebuild.
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 0
    # One dirty row.
    ledger.record(3, 0, 90.0)
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 1
    # ~10% dirty rows.
    tenth = rng.choice(N, N // 10, replace=False)
    ledger.record_many(*edge_traffic(graph, rng, tenth))
    assert_bitwise(new, ref, pairs)
    # Rows 1..CLUSTER at once: a slot there sums the deltas of several
    # dirty common friends, so the order of the correction's sum shows.
    ledger.record_many(*edge_traffic(graph, rng, np.arange(1, CLUSTER + 1)))
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 3
    # More than half the rows dirty: exact rebuild.
    most = rng.choice(N, 3 * N // 5, replace=False)
    ledger.record_many(*edge_traffic(graph, rng, most))
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 0
    # Node 0's row alone (the hub of either graph).
    ledger.record_many(*edge_traffic(graph, rng, [0]))
    assert_bitwise(new, ref, pairs)
    # Churn decay marks the decayed rows and every row pointing at them.
    ledger.decay_nodes(np.array([0, 13, 40, N - 1]), 0.5)
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 2
    # Corrections up to cache_rebuild_interval, then a forced rebuild on
    # an otherwise patchable step.
    for k in range(cfg.cache_rebuild_interval - new._t2_updates):
        ledger.record(20 + k, 12, 1.0)
        assert_bitwise(new, ref, pairs)
    assert new._t2_updates == cfg.cache_rebuild_interval
    ledger.record(30, 24, 1.0)
    assert_bitwise(new, ref, pairs)
    assert new._t2_updates == 0


class TestAlignedCacheParity:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["mean", "sum"])
    def test_history_matches_csr_cache_bitwise(self, cfg):
        check_history(make_graph(1), cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["mean", "sum"])
    def test_hub_and_isolated_nodes_match_bitwise(self, cfg):
        check_history(make_hub_graph(7), cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["mean", "sum"])
    def test_restore_from_csr_layout_state(self, cfg):
        """A checkpoint of the CSR-cache layout (patterns pruned by sparse
        adds, explicit zeros kept by the rebuild) restores bitwise, and
        so does the aligned cache's own state."""
        check_restore(make_graph(2), cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["mean", "sum"])
    def test_hub_graph_restores_bitwise(self, cfg):
        check_restore(make_hub_graph(8), cfg)


def check_restore(graph: SocialGraph, cfg) -> None:
    """Patch both caches, restore fresh computers from either's state,
    and patch on: every step agrees bitwise with the CSR-cache layout."""
    rng = np.random.default_rng(9)
    ledger = SparseInteractionLedger(N)
    ledger.record_many(*edge_traffic(graph, rng))
    ref = CsrCacheClosenessComputer(graph, ledger, cfg)
    new = two_hop(graph, ledger, cfg)
    pairs = probe_pairs(rng)
    for rows in ([5], [7, 8, 9], [60, 61]):
        ledger.record_many(*edge_traffic(graph, rng, rows))
        assert_bitwise(new, ref, pairs)
    from_ref = two_hop(graph, ledger, cfg)
    from_ref.restore_state(ref.state_dict())
    from_new = two_hop(graph, ledger, cfg)
    from_new.restore_state(new.state_dict())
    for restored in (from_ref, from_new):
        assert restored._t2_updates == new._t2_updates
        assert_bitwise(restored, ref, pairs)
    for rows in ([100, 101, 150], [0]):
        ledger.record_many(*edge_traffic(graph, rng, rows))
        for restored in (from_ref, from_new):
            assert_bitwise(restored, ref, pairs)


class TestPatchCost:
    def test_patch_never_aligns_over_all_of_pu(self, monkeypatch):
        """A warm patch sums over the two-hop table: no SciPy sparse
        product, no rebuild, no search of ``Pu`` beyond the asked pairs,
        and it moves fewer term slots than a share of ``Pu`` that shrinks
        with the dirty rows."""
        rng = np.random.default_rng(3)
        graph = make_graph(3)
        ledger = SparseInteractionLedger(N)
        ledger.record_many(*edge_traffic(graph, rng))
        cc = two_hop(graph, ledger, CONFIGS[0])
        asked = (np.array([0, 1]), np.array([1, 2]))
        cc.pair_values(*asked)  # cold rebuild
        pu = cc._pu_keys.size

        products, located, searched, rebuilt, moved = [], [], [], [], []
        real_matmul = sparse.csr_matrix.__matmul__
        real_locate, real_slots = closeness_module._locate, cc._slots
        real_patch = cc._patch_two_hop
        monkeypatch.setattr(
            sparse.csr_matrix,
            "__matmul__",
            lambda a, b: products.append(b) or real_matmul(a, b),
        )
        monkeypatch.setattr(
            closeness_module,
            "_locate",
            lambda hay, keys: located.append(keys.size) or real_locate(hay, keys),
        )
        monkeypatch.setattr(
            cc, "_slots", lambda i, j: searched.append(i.size) or real_slots(i, j)
        )
        monkeypatch.setattr(cc, "_rebuild", lambda: rebuilt.append(True))

        def patch(dirty):
            before = [term.copy() for term in (cc._a, cc._t1, cc._t2)]
            real_patch(dirty)
            after = (cc._a, cc._t1, cc._t2)
            moved.append(
                sum(np.count_nonzero(b != a) for b, a in zip(before, after))
            )

        monkeypatch.setattr(cc, "_patch_two_hop", patch)
        # A member with a few friends, so its shares move.
        member = next(v for v in range(1, N) if v % COMMUNITY and len(graph.friends(v)) >= 3)
        for rows, share in (([member], 0.05), (rng.choice(N, N // 10, replace=False), 0.5)):
            moved.clear()
            ledger.record_many(*edge_traffic(graph, rng, rows))
            cc.pair_values(*asked)
            assert cc._t2_updates >= 1  # took the patch path
            assert products == [] and located == [] and rebuilt == []
            assert searched[-1] == asked[0].size
            assert len(moved) == 1 and 0 < moved[0] < share * pu


class TestPathCache:
    @pytest.mark.parametrize(
        "layout",
        ["full", "two-hop"],
        ids=["ClosenessComputer", "SparseClosenessComputer"],
    )
    def test_paths_walked_once_until_invalidate(self, layout, monkeypatch):
        """Both layouts, the full one over the dense ledger and the
        two-hop one over the sparse ledger (the ids name the classes each
        case tested before the two were one)."""
        force(monkeypatch, "gemm" if layout == "full" else "two-hop")
        graph = make_graph(4)
        ledger = InteractionLedger(N) if layout == "full" else SparseInteractionLedger(N)
        rng = np.random.default_rng(4)
        ledger.record_many(*edge_traffic(graph, rng))
        cfg = SocialTrustConfig()
        cc = ClosenessComputer(graph, ledger, cfg)
        # 2 and 14 sit in bridged communities (1 -- 13), share no friend.
        i, j = 2, COMMUNITY + 2
        assert not graph.are_adjacent(i, j) and not graph.friends(i) & graph.friends(j)
        path = graph.path(i, j)
        ledger.record_many(np.array(path[:-1]), np.array(path[1:]))
        detour = min(graph.friends(i) - set(path))
        walks = []
        real_path = graph.path
        monkeypatch.setattr(
            graph, "path", lambda a, b: walks.append((a, b)) or real_path(a, b)
        )
        first = cc.pair_values(np.array([i]), np.array([j]))[0]
        assert first > 0.0
        assert walks.count((i, j)) == 1
        ledger.record(i, detour, 1e4)  # moves the edge values, not the path
        second = cc.pair_values(np.array([i]), np.array([j]))[0]
        assert walks.count((i, j)) == 1
        assert second != first
        assert second == ClosenessComputer(graph, ledger, cfg).pair_values(
            np.array([i]), np.array([j])
        )[0]
        walks.clear()
        cc.invalidate_cache()
        assert cc._paths == {}
        assert cc.pair_values(np.array([i]), np.array([j]))[0] == second
        assert walks.count((i, j)) == 1


def _sorted_keys(values) -> np.ndarray:
    return np.array(sorted(values), dtype=np.int64)


class TestMergeSorted:
    @settings(max_examples=200, deadline=None)
    @given(
        a=st.sets(st.integers(0, 2**40)).map(_sorted_keys),
        b=st.sets(st.integers(0, 2**40)).map(_sorted_keys),
    )
    @example(a=_sorted_keys([]), b=_sorted_keys([]))
    @example(a=_sorted_keys([]), b=_sorted_keys([3, 9]))
    @example(a=_sorted_keys([1, 4]), b=_sorted_keys([]))
    @example(a=_sorted_keys([1, 4, 7]), b=_sorted_keys([1, 4, 7]))
    def test_matches_union1d(self, a, b):
        got = _merge_sorted(a, b)
        want = np.union1d(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
