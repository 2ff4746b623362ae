"""Sparse vs dense coefficient kernels: the detector-interval scaling benchmark.

Synthesizes a sparse social world (ring + random chords, average degree
~8, interactions and ratings concentrated on social edges plus a
high-frequency collusive pair set) at each target size, runs one full
detector interval per kernel set, and records wall-clock and peak-RSS.
Each coefficient has one computer; the run forces its kernels through
the private rules.  The dense run (the full Ωc layout and the Ωs product,
what the seed worlds take) materialises ``n x n`` matrices so it stops
being practical past ``n ~ 10^4``; the sparse run (the two-hop Ωc layout
and Ωs row dot products, what such a world takes on its own) runs the
same interval at ``n = 10^5`` inside a documented memory budget.  At the
smallest shared size the two runs' damping weights are asserted equal
within float tolerance (``tests/core/test_coefficient_kernels.py`` holds
every kernel to the others over a churn history).

Results land in ``BENCH_sparse.json`` at the repo root (override with
``BENCH_SPARSE_OUT``) using the shared ``{"name", "config", "results",
"timestamp"}`` artifact schema.

Profiles (``BENCH_SPARSE_PROFILE`` environment variable):

* ``full`` (default) — sparse at n ∈ {10^3, 10^4, 10^5}, dense at
  {10^3, 10^4}, speedup floor 10x at n = 10^4, sparse 10^5 peak-RSS
  budget 8 GiB; takes a few minutes (the dense 10^4 interval alone is
  ~2 matmuls at 10^12 flops).
* ``smoke``          — both runs at n = 2000, floor 2x (used by the
  CI smoke job; finishes in well under a minute).

``ru_maxrss`` is a process-lifetime high-water mark, so the sparse runs
execute **before** any dense ``n x n`` allocation; the recorded sparse
peaks are honest, the dense ones are lower bounds.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
from scipy import sparse

import repro.core.closeness as closeness_module
import repro.core.similarity as similarity_module
from repro.core import (
    ClosenessComputer,
    CollusionDetector,
    SimilarityComputer,
    SocialTrustConfig,
)
from repro.reputation.base import IntervalRatings
from repro.social import (
    InteractionLedger,
    InterestProfiles,
    SocialGraph,
    SparseInteractionLedger,
)

PROFILES = {
    "full": {
        "sparse_sizes": (1_000, 10_000, 100_000),
        "dense_sizes": (1_000, 10_000),
        "speedup_at": 10_000,
        "min_speedup": 10.0,
        "memory_budget_mb": 8192,
    },
    "smoke": {
        "sparse_sizes": (2_000,),
        "dense_sizes": (2_000,),
        "speedup_at": 2_000,
        "min_speedup": 2.0,
        "memory_budget_mb": 8192,
    },
}

N_INTERESTS = 32
_EQUIV_RTOL = 1e-9
_EQUIV_ATOL = 1e-12


def _profile() -> tuple[str, dict]:
    name = os.environ.get("BENCH_SPARSE_PROFILE", "full")
    if name not in PROFILES:
        raise ValueError(f"BENCH_SPARSE_PROFILE must be one of {sorted(PROFILES)}")
    return name, PROFILES[name]


def _peak_rss_mb() -> float:
    """Process high-water RSS in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _synthesize(n: int, seed: int = 0) -> dict:
    """One synthetic sparse world, as plain arrays both backends consume.

    Friendships: communities of 25 nodes around a local hub plus random
    intra-community chords — average degree ~8, and every non-adjacent
    same-community pair shares the hub as a common friend.  That keeps
    the dense reference on its vectorised matmul core (its
    no-common-friend fallback walks pairs one by one in Python, which on
    an arbitrary sparse graph would dominate the timing and overstate
    the sparse win).  Interactions run along friendship edges in both
    directions.  Ratings: one positive rating per edge direction on a
    sampled majority of edges (the organic baseline the median frequency
    threshold anchors to), plus a colluding clique of
    ``max(4, n // 1000)`` nodes — mostly cross-community, so their
    coefficients sit far below band — rating each other at ~12x that
    frequency, plus a thin stream of negatives.
    """
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    comm = 25
    base = (ids // comm) * comm  # each community's hub is its first node
    hub_i, hub_j = base[ids != base], ids[ids != base]
    ri = np.repeat(ids, 3)
    rj = base[ri] + rng.integers(0, comm, ri.size)
    keep = (rj < n) & (ri != rj)
    ei = np.concatenate([hub_i, ri[keep]])
    ej = np.concatenate([hub_j, rj[keep]])
    lo, hi = np.minimum(ei, ej), np.maximum(ei, ej)
    keys = np.unique(lo * n + hi)
    ei, ej = keys // n, keys % n

    # Interactions both directions along each edge, integer counts 1..4.
    int_i = np.concatenate([ei, ej])
    int_j = np.concatenate([ej, ei])
    int_c = rng.integers(1, 5, int_i.size).astype(np.float64)

    # Honest ratings: one positive per direction on ~80% of edges.
    mask = rng.random(ei.size) < 0.8
    hi_, hj_ = ei[mask], ej[mask]
    pos_i = np.concatenate([hi_, hj_])
    pos_j = np.concatenate([hj_, hi_])
    pos_c = np.ones(pos_i.size, dtype=np.float64)

    # Colluders: a small set rating each other at ~12x the honest rate.
    n_coll = max(4, n // 1000)
    coll = rng.choice(n, size=n_coll, replace=False)
    gi, gj = np.meshgrid(coll, coll, indexing="ij")
    gmask = gi != gj
    coll_i, coll_j = gi[gmask], gj[gmask]
    coll_c = rng.integers(10, 15, coll_i.size).astype(np.float64)

    pos_i = np.concatenate([pos_i, coll_i])
    pos_j = np.concatenate([pos_j, coll_j])
    pos_c = np.concatenate([pos_c, coll_c])

    # A thin stream of honest negatives on a 5% edge sample.
    nmask = rng.random(ei.size) < 0.05
    neg_i, neg_j = ei[nmask], ej[nmask]
    neg_c = np.ones(neg_i.size, dtype=np.float64)

    reputations = rng.random(n)
    reputations /= reputations.sum()

    declared = rng.integers(0, N_INTERESTS, (n, 3))
    req_nodes = rng.integers(0, n, 4 * n)
    req_interests = rng.integers(0, N_INTERESTS, 4 * n)

    return {
        "n": n,
        "edges": (ei, ej),
        "interactions": (int_i, int_j, int_c),
        "pos": (pos_i, pos_j, pos_c),
        "neg": (neg_i, neg_j, neg_c),
        "reputations": reputations,
        "declared": declared,
        "requests": (req_nodes, req_interests),
    }


def _build_shared(world: dict) -> tuple[SocialGraph, InterestProfiles]:
    n = world["n"]
    graph = SocialGraph(n)
    ei, ej = world["edges"]
    for i, j in zip(ei.tolist(), ej.tolist()):
        graph.add_friendship(i, j)
    profiles = InterestProfiles(n, N_INTERESTS)
    for node, interests in enumerate(world["declared"]):
        profiles.set_declared(node, interests)
    profiles.record_requests(*world["requests"])
    return graph, profiles


def _coo(i: np.ndarray, j: np.ndarray, c: np.ndarray, n: int) -> sparse.csr_matrix:
    return sparse.coo_matrix((c, (i, j)), shape=(n, n)).tocsr()


def _force(monkeypatch, dense: bool) -> None:
    """Force the dense kernels (full Ωc layout, Ωs product) or the sparse
    ones (two-hop Ωc layout, Ωs row dots) through the private rules."""
    monkeypatch.setattr(
        closeness_module, "_FULL_LAYOUT_MIN_PATHS", 0.0 if dense else float("inf")
    )
    monkeypatch.setattr(similarity_module, "_PRODUCT_MAX_NODES", (1 << 30) if dense else 0)


def _run_sparse(world, graph, profiles):
    n = world["n"]
    cfg = SocialTrustConfig()
    ledger = SparseInteractionLedger(n)
    ledger.record_many(*world["interactions"])
    pos = _coo(*world["pos"], n)
    neg = _coo(*world["neg"], n)
    rated = ((pos + neg) > 0).tocsr()
    detector = CollusionDetector(
        ClosenessComputer(graph, ledger, cfg), SimilarityComputer(profiles, cfg), cfg
    )
    start = time.perf_counter()
    result = detector.analyze_sparse(pos, neg, world["reputations"], rated)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    detector.analyze_sparse(pos, neg, world["reputations"], rated)
    warm_s = time.perf_counter() - start
    stats = {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "findings": len(result.findings),
        "flagged_pairs": int(result.pairs.shape[0]),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    return stats, result


def _run_dense(world, graph, profiles):
    n = world["n"]
    cfg = SocialTrustConfig()
    ledger = InteractionLedger(n)
    ledger.record_many(*world["interactions"])
    value_sum, pos_counts, neg_counts = (np.zeros((n, n)) for _ in range(3))
    pi, pj, pc = world["pos"]
    np.add.at(pos_counts, (pi, pj), pc)
    np.add.at(value_sum, (pi, pj), pc)
    ni, nj, nc = world["neg"]
    np.add.at(neg_counts, (ni, nj), nc)
    np.add.at(value_sum, (ni, nj), -nc)
    interval = IntervalRatings.from_dense(value_sum, pos_counts, neg_counts)
    rated = np.flatnonzero(interval.counts)
    detector = CollusionDetector(
        ClosenessComputer(graph, ledger, cfg),
        SimilarityComputer(profiles, cfg),
        cfg,
    )
    start = time.perf_counter()
    result = detector.analyze(interval, world["reputations"], rated)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    detector.analyze(interval, world["reputations"], rated)
    warm_s = time.perf_counter() - start
    stats = {
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "findings": len(result.findings),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    return stats, result


def test_sparse_detector_scaling(bench_artifact, monkeypatch):
    name, profile = _profile()
    sparse_sizes = profile["sparse_sizes"]
    dense_sizes = profile["dense_sizes"]
    results: dict = {"sparse": {}, "dense": {}, "speedup_cold": {}}
    sparse_results: dict[int, object] = {}

    # Sparse first: ru_maxrss is a high-water mark, and the dense n x n
    # allocations would otherwise mask the sparse peaks.
    _force(monkeypatch, dense=False)
    for n in sparse_sizes:
        world = _synthesize(n)
        graph, profiles = _build_shared(world)
        stats, result = _run_sparse(world, graph, profiles)
        results["sparse"][str(n)] = stats
        sparse_results[n] = result
        print(f"\n[{name}] sparse n={n}: {stats}")

    equiv_n = min(set(sparse_sizes) & set(dense_sizes))
    max_diff = None
    _force(monkeypatch, dense=True)
    for n in dense_sizes:
        world = _synthesize(n)
        graph, profiles = _build_shared(world)
        stats, result = _run_dense(world, graph, profiles)
        results["dense"][str(n)] = stats
        print(f"[{name}] dense  n={n}: {stats}")
        if n == equiv_n:
            dense_w = result.weights
            sparse_w = sparse_results[n].weights
            max_diff = float(np.abs(dense_w - sparse_w).max())
            assert np.allclose(
                dense_w, sparse_w, rtol=_EQUIV_RTOL, atol=_EQUIV_ATOL
            ), f"kernels diverge at n={n}: max |delta| = {max_diff:.3e}"

    target = profile["speedup_at"]
    dense_cold = results["dense"][str(target)]["cold_seconds"]
    sparse_cold = results["sparse"][str(target)]["cold_seconds"]
    speedup = dense_cold / max(sparse_cold, 1e-9)
    results["speedup_cold"][str(target)] = round(speedup, 2)
    results["equivalence"] = {
        "n": equiv_n,
        "max_abs_diff": max_diff,
        "rtol": _EQUIV_RTOL,
        "atol": _EQUIV_ATOL,
    }

    largest = max(sparse_sizes)
    sparse_peak = results["sparse"][str(largest)]["peak_rss_mb"]
    bench_artifact(
        "sparse",
        config={
            "profile": name,
            "sparse_sizes": list(sparse_sizes),
            "dense_sizes": list(dense_sizes),
            "speedup_at": target,
            "min_speedup": profile["min_speedup"],
            "memory_budget_mb": profile["memory_budget_mb"],
            "avg_degree": 8,
            "n_interests": N_INTERESTS,
        },
        results=results,
        out=os.environ.get("BENCH_SPARSE_OUT"),
    )
    print(
        f"[{name}] speedup at n={target}: {speedup:.1f}x "
        f"(dense {dense_cold}s / sparse {sparse_cold}s); "
        f"sparse n={largest} peak RSS {sparse_peak} MiB"
    )
    assert speedup >= profile["min_speedup"], (
        f"cold detector-interval speedup {speedup:.2f}x at n={target} is "
        f"below the {profile['min_speedup']}x floor"
    )
    assert sparse_peak <= profile["memory_budget_mb"], (
        f"sparse n={largest} peak RSS {sparse_peak} MiB exceeds the "
        f"{profile['memory_budget_mb']} MiB budget"
    )
