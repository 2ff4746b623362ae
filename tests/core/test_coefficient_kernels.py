"""Every coefficient kernel against the others, over one churn history.

Each coefficient has one computer whose kernels follow the world: Ωc
takes the full layout's GEMMs or sparse-A rebuild, or the two-hop layout;
Ωs takes the cached product or row dot products.  Forced through their
private rules on one small world, every kernel must give the same values
within ``COEFFICIENT_RTOL``/``COEFFICIENT_ATOL`` after every step of a
history of rating bursts (patches), churn decay, bulk traffic (rebuilds),
request traffic and declared-profile edits, agree with the scalar
reference paths, and drive a SocialTrust scenario to the same history.
"""

import numpy as np
import pytest

from repro.api import build_scenario
from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.similarity import SimilarityComputer
from repro.qa.differential import COEFFICIENT_ATOL, COEFFICIENT_RTOL
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from tests.core.kernels import CLOSENESS_KERNELS, SIMILARITY_KERNELS, force

N = 60
COMMUNITY = 10
K = 6
STEPS = 9

CONFIGS = [
    SocialTrustConfig(cache_rebuild_interval=3),
    SocialTrustConfig(
        cache_rebuild_interval=3, hardened=False, common_friend_aggregate="sum"
    ),
]
IDS = ["hardened-mean", "plain-sum"]

ALL_I, ALL_J = np.divmod(np.arange(N * N), N)


def make_graph() -> SocialGraph:
    """Communities around a hub with chords of mixed kinds, bridges
    between every other pair of communities (connected pairs with no
    common friend walk the path fallback), and the rest unreachable."""
    rng = np.random.default_rng(0)
    graph = SocialGraph(N)
    kinds = [[Relationship()], [Relationship("kin", 2.0), Relationship()]]
    for hub in range(0, N, COMMUNITY):
        for member in range(hub + 1, hub + COMMUNITY):
            graph.add_friendship(hub, member, kinds[int(rng.integers(0, 2))])
        for _ in range(COMMUNITY // 2):
            i, j = hub + rng.choice(np.arange(1, COMMUNITY), 2, replace=False)
            graph.add_friendship(int(i), int(j))
    for hub in range(0, N - COMMUNITY, 2 * COMMUNITY):
        graph.add_friendship(hub + 1, hub + COMMUNITY + 1)
    return graph


def make_profiles() -> InterestProfiles:
    rng = np.random.default_rng(1)
    profiles = InterestProfiles(N, K)
    for node in range(N):
        size = int(rng.integers(1, K + 1))
        profiles.set_declared(node, rng.choice(K, size, replace=False).tolist())
    return profiles


def friend_traffic(graph, ledger, rng, raters) -> None:
    src, dst = [], []
    for i in raters:
        friends = sorted(graph.friends(int(i)))
        for j in rng.choice(friends, min(3, len(friends)), replace=False):
            src.append(int(i))
            dst.append(int(j))
    counts = rng.choice([1.0, 2.0, 17.0, 150.0], len(src))
    ledger.record_many(np.array(src), np.array(dst), counts)


def churn(step: int, graph, ledger, profiles, rng) -> None:
    """Bursts on a few rows, churn decay, and bulk traffic in turn, with
    request traffic on a few nodes and, now and then, a declared edit."""
    kind = step % 3
    if kind == 0:
        friend_traffic(graph, ledger, rng, rng.choice(N, 4, replace=False))
    elif kind == 1:
        ledger.decay_nodes(np.unique(rng.integers(0, N, 3)), 0.5)
    else:
        friend_traffic(graph, ledger, rng, range(N))
    nodes = rng.choice(N, 5, replace=False)
    profiles.record_requests(np.repeat(nodes, 2), rng.integers(0, K, 2 * nodes.size))
    if step % 4 == 3:
        profiles.set_declared(int(rng.integers(0, N)), [int(rng.integers(0, K))])


def history(kernel: str, cfg, monkeypatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Ωc, Ωs) at every pair after each churn step, with ``kernel``
    forced on the coefficient it names."""
    with monkeypatch.context() as mp:
        force(mp, kernel)
        graph, profiles = make_graph(), make_profiles()
        ledger = InteractionLedger(N)
        rng = np.random.default_rng(2)
        friend_traffic(graph, ledger, rng, range(N))
        closeness = ClosenessComputer(graph, ledger, cfg)
        similarity = SimilarityComputer(profiles, cfg)
        out = []
        for step in range(STEPS):
            out.append(
                (closeness.pair_values(ALL_I, ALL_J), similarity.pair_values(ALL_I, ALL_J))
            )
            churn(step, graph, ledger, profiles, rng)
        # The scalar reference paths, on the last state.
        i, j = np.divmod(np.arange(1, N * N, 7), N)
        i, j = i[i != j], j[i != j]
        for computer, scalar in ((closeness, closeness.closeness), (similarity, similarity.similarity)):
            want = [scalar(int(a), int(b)) for a, b in zip(i, j)]
            np.testing.assert_allclose(
                computer.pair_values(i, j), want, rtol=COEFFICIENT_RTOL, atol=COEFFICIENT_ATOL
            )
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_every_kernel_gives_the_same_coefficients(cfg, monkeypatch):
    ran = []
    for name in ("_rebuild_dense", "_rebuild_sparse", "_rebuild_two_hop",
                 "_patch_full", "_patch_two_hop", "_row_dots"):
        original = getattr(
            SimilarityComputer if name == "_row_dots" else ClosenessComputer, name
        )

        def spy(self, *args, _original=original, _name=name):
            ran.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(
            SimilarityComputer if name == "_row_dots" else ClosenessComputer, name, spy
        )
    results = {}
    for kernel in CLOSENESS_KERNELS + SIMILARITY_KERNELS:
        ran.clear()
        results[kernel] = history(kernel, cfg, monkeypatch)
        took = {
            "gemm": {"_rebuild_dense", "_patch_full"},
            "sparse-a": {"_rebuild_sparse", "_patch_full"},
            "two-hop": {"_rebuild_two_hop", "_patch_two_hop"},
            "product": set(),
            "row-dots": {"_row_dots"},
        }[kernel]
        assert took <= set(ran), kernel
        if kernel == "product":
            assert "_row_dots" not in ran

    reference = results["gemm"]
    assert np.count_nonzero(reference[-1][0]) > 0.2 * N * N  # not vacuous
    for kernel in CLOSENESS_KERNELS + SIMILARITY_KERNELS:
        for (got_c, got_s), (want_c, want_s) in zip(results[kernel], reference):
            np.testing.assert_allclose(
                got_c, want_c, rtol=COEFFICIENT_RTOL, atol=COEFFICIENT_ATOL
            )
            if cfg.hardened:
                np.testing.assert_allclose(
                    got_s, want_s, rtol=COEFFICIENT_RTOL, atol=COEFFICIENT_ATOL
                )
            else:  # whole-number overlap counts: the same bits
                assert np.array_equal(got_s, want_s)


@pytest.mark.parametrize("collusion", ["pcm", "mcm"])
def test_every_kernel_drives_socialtrust_to_the_same_history(collusion, monkeypatch):
    """What ``qa diff --sparse`` checked across backends: a SocialTrust
    scenario on the dense kernels and on the sparse ones."""
    histories = []
    for kernels in (("gemm", "product"), ("two-hop", "row-dots")):
        with monkeypatch.context() as mp:
            for kernel in kernels:
                force(mp, kernel)
            scenario = build_scenario(
                seed=4,
                system="EigenTrust+SocialTrust",
                collusion=collusion,
                n_nodes=24,
                n_pretrusted=2,
                n_colluders=5,
                n_interests=6,
                interests_per_node=(1, 3),
                query_cycles=4,
                simulation_cycles=3,
            )
            histories.append(scenario.run(3).history)
    dense, sparse = histories
    assert dense.shape == sparse.shape and dense.size
    np.testing.assert_allclose(sparse, dense, rtol=COEFFICIENT_RTOL, atol=COEFFICIENT_ATOL)
