"""Ωc assembled at the asked pairs.

:meth:`ClosenessComputer.pair_values` refreshes the Eq. (3) terms and
applies the full assembly's element-wise formula at the asked pairs only;
:meth:`ClosenessComputer.closeness_matrix` is the one place that assembles
every pair.  The contracts:

* ``pair_values(i, j)`` is bitwise ``closeness_matrix()[i, j]`` on small
  worlds (the dense GEMMs), on large sparse worlds (the pair kernel),
  under ``MEAN`` and ``SUM``, after dirty-row patches and ``decay_nodes``,
  and at the no-common-friend fallback pairs;
* the detector's reads never assemble the full matrix;
* a checkpoint never carries the assembled matrix, and carries the terms
  only when a restore could not rebuild them; both resume bitwise, and so
  does the older format that still holds the matrix;
* the computer publishes its rebuilds and patches.
"""

import numpy as np
import pytest

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.core.socialtrust import SocialTrust
from repro.obs import Observability
from repro.reputation import EigenTrust
from repro.reputation.ledger import RatingLedger
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from tests.core.kernels import closeness_with, force
from tests.core.test_closeness_kernels import fallback_pairs, friend_traffic, random_graph

CONFIGS = [
    SocialTrustConfig(),
    SocialTrustConfig(hardened=False, common_friend_aggregate="sum"),
]
IDS = ["hardened-mean", "plain-sum"]


def world(n: int, degree: float, seed: int):
    graph = random_graph(n, degree, seed)
    ledger = InteractionLedger(n)
    friend_traffic(graph, np.random.default_rng(seed), 3, ledger)
    return graph, ledger


def asked_pairs(cc: ClosenessComputer, rng, size: int):
    """Random pairs plus every fallback pair and a few diagonal ones."""
    n = cc.n_nodes
    fallback = fallback_pairs(closeness_with("full", cc.view, cc.interactions))
    diag = np.arange(0, n, max(1, n // 7))
    i = np.concatenate([rng.integers(0, n, size), fallback[:, 0], diag])
    j = np.concatenate([rng.integers(0, n, size), fallback[:, 1], diag])
    return i, j


def mutate(ledger: InteractionLedger, graph, rng, step: int) -> None:
    """Alternate dirty-row traffic (a patch), churn decay and bulk traffic
    (a rebuild)."""
    n = ledger.n_nodes
    kind = step % 3
    if kind == 0:
        raters = np.unique(rng.integers(0, n, 4)).tolist()
        friend_traffic(graph, rng, 2, ledger, raters)
    elif kind == 1:
        ledger.decay_nodes(np.unique(rng.integers(0, n, 3)), 0.5)
    else:
        friend_traffic(graph, rng, 1, ledger)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
@pytest.mark.parametrize(
    "n, degree, kernel",
    [(90, 24.0, "dense"), (300, 42.0, "pairs"), (300, 42.0, "two_hop")],
    ids=["gemm-n90", "sparse-a-n300", "two-hop-n300"],
)
def test_pair_values_are_the_matrix_bits(cfg, n, degree, kernel, monkeypatch):
    if kernel == "two_hop":
        force(monkeypatch, "two-hop")
    ran = []
    for name in ("_rebuild_dense", "_rebuild_pairs", "_rebuild_two_hop"):
        original = getattr(ClosenessComputer, name)

        def spy(self, *args, _original=original, _name=name):
            ran.append(_name)
            _original(self, *args)

        monkeypatch.setattr(ClosenessComputer, name, spy)
    graph, ledger = world(n, degree, seed=n)
    cc = ClosenessComputer(graph, ledger, cfg)
    rng = np.random.default_rng(1)
    # Not vacuous: the world has fallback pairs.
    assert len(asked_pairs(cc, rng, 0)[0]) > n // 7 + 1
    patched = False
    for step in range(7):
        i, j = asked_pairs(cc, rng, 4 * n)
        got = cc.pair_values(i, j)
        assert cc._cached_matrix is None  # no full assembly for the pairs
        want = cc.closeness_matrix()[i, j]
        assert np.array_equal(got, want)
        # Asked again at the same version, after the assembly.
        assert np.array_equal(cc.pair_values(i, j), want)
        patched |= cc._t2_updates > 0
        mutate(ledger, graph, rng, step)
    # The pair kernel rebuilds A on every ledger change, never patches.
    assert patched == (kernel != "pairs")
    assert set(ran) == {f"_rebuild_{kernel}"}


def test_every_pair_of_a_small_world():
    graph, ledger = world(60, 20.0, seed=4)
    cc = ClosenessComputer(graph, ledger)
    i, j = np.divmod(np.arange(60 * 60), 60)
    assert np.array_equal(cc.pair_values(i, j), cc.closeness_matrix().ravel())


def test_detector_reads_do_not_assemble_the_matrix():
    graph, ledger = world(150, 30.0, seed=2)
    n = graph.n_nodes
    profiles = InterestProfiles(n, 4)
    for node in range(n):
        profiles.set_declared(node, {node % 4})
    # Pinned closeness bands: every frequency-flagged pair matches B1, so
    # the bands read the raters' past pairs too.
    cfg = SocialTrustConfig(closeness_low=1.0, closeness_high=2.0)
    system = SocialTrust(EigenTrust(n, [0, 1]), graph, ledger, profiles, cfg)
    ratings = RatingLedger(n)
    rng = np.random.default_rng(0)
    for _ in range(3):
        raters = rng.integers(0, n, 2000)
        ratees = (raters + rng.integers(1, n, 2000)) % n
        ratings.record_many(raters, ratees, np.ones(2000))
        ratings.record_many(np.array([3, 4]), np.array([4, 3]), np.ones(2), 40.0)
        ledger.record_many(raters, ratees, np.ones(2000))
        system.update(ratings.drain())
        assert system.last_detection.n_adjusted
        cc = system.closeness_computer
        assert cc._cached_version == ledger.version
        assert cc._cached_matrix is None


class TestCheckpoint:
    @pytest.mark.parametrize("layout", ["full", "two-hop"])
    def test_rebuilt_terms_are_not_written_and_resume_bitwise(self, layout):
        graph, seeded = world(200, 35.0, seed=8)
        cfg = SocialTrustConfig(cache_rebuild_interval=4)

        def start(ledger_state):
            ledger = InteractionLedger(200)
            ledger.restore_state(ledger_state)
            return ledger, closeness_with(layout, graph, ledger, cfg)

        def run(ledger, cc, steps):
            out = []
            for step in steps:
                mutate(ledger, graph, np.random.default_rng(70 + step), step)
                out.append(cc.closeness_matrix().copy())
            return out

        ledger, cc = start(seeded.state_dict())
        cc.closeness_matrix()
        uninterrupted = run(ledger, cc, range(6))

        ledger, cc = start(seeded.state_dict())
        cc.closeness_matrix()
        resumed = run(ledger, cc, range(3))  # step 2 is a bulk rebuild
        saved = cc.state_dict()
        assert cc._t2_updates == 0 and saved["version"] == ledger.version
        assert saved["adj_close"] is saved["t1"] is saved["t2"] is None
        ledger, cc = start(ledger.state_dict())
        cc.restore_state(saved)
        resumed += run(ledger, cc, range(3, 6))  # patches on rebuilt terms
        for got, want in zip(resumed, uninterrupted):
            assert np.array_equal(got, want)
        # Once the ledger moves past the terms, they are written, except
        # by the pair kernel (what this world takes in the full layout),
        # whose next read rebuilds A from the ledger.
        ledger.record(0, min(graph.friends(0)), 2.0)
        saved = cc.state_dict()
        assert saved["kernel"] == ("pairs" if layout == "full" else "two-hop")
        assert (saved["adj_close"] is None) == (layout == "full")

    def test_state_has_no_assembled_matrix(self):
        graph, ledger = world(60, 20.0, seed=5)
        cc = ClosenessComputer(graph, ledger)
        cc.closeness_matrix()
        assert set(cc.state_dict()) == {
            "adj_close", "t1", "t2", "version", "t2_updates", "kernel",
        }

    @pytest.mark.parametrize("garbage", [False, True], ids=["matrix", "stale-matrix"])
    def test_older_format_with_matrix_resumes_bitwise(self, garbage, monkeypatch):
        force(monkeypatch, "gemm")
        graph, seeded = world(200, 35.0, seed=6)
        cfg = SocialTrustConfig(cache_rebuild_interval=4)

        def start(ledger_state):
            ledger = InteractionLedger(200)
            ledger.restore_state(ledger_state)
            return ledger, ClosenessComputer(graph, ledger, cfg)

        def run(ledger, cc, steps):
            out = []
            for step in steps:
                mutate(ledger, graph, np.random.default_rng(50 + step), step)
                out.append(cc.closeness_matrix().copy())
            return out

        ledger, cc = start(seeded.state_dict())
        cc.closeness_matrix()
        uninterrupted = run(ledger, cc, range(6))

        ledger, cc = start(seeded.state_dict())
        cc.closeness_matrix()
        resumed = run(ledger, cc, range(2))
        assert cc._t2_updates == 2  # checkpoint between patches
        saved = cc.state_dict()
        # The older checkpoint format also stored the assembled matrix,
        # and no kernel.
        del saved["kernel"]
        matrix = cc.closeness_matrix().copy()
        saved["matrix"] = np.full_like(matrix, 7.0) if garbage else matrix
        ledger, cc = start(ledger.state_dict())
        cc.restore_state(saved)
        assert np.array_equal(cc.closeness_matrix(), resumed[-1])
        resumed += run(ledger, cc, range(2, 6))
        for got, want in zip(resumed, uninterrupted):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("garbage", [False, True], ids=["patched", "garbage"])
    def test_older_sparse_a_terms_are_not_read(self, garbage, monkeypatch):
        """An older checkpoint of a world the pair kernel serves holds the
        n x n terms of the sparse-A kernel it replaced, patched
        (``t2_updates > 0``): they load, are not read, and the resume
        matches the uninterrupted pair-kernel run bitwise."""
        graph, seeded = world(200, 35.0, seed=6)
        cfg = SocialTrustConfig(cache_rebuild_interval=4)

        def start(ledger_state):
            ledger = InteractionLedger(200)
            ledger.restore_state(ledger_state)
            return ledger, ClosenessComputer(graph, ledger, cfg)

        def run(ledger, cc, steps):
            out = []
            for step in steps:
                mutate(ledger, graph, np.random.default_rng(50 + step), step)
                i, j = asked_pairs(cc, np.random.default_rng(step), 2000)
                out.append(cc.pair_values(i, j))
            return out

        ledger, cc = start(seeded.state_dict())
        uninterrupted = run(ledger, cc, range(6))
        assert cc._kernel == "pairs"

        # The older file: flat n x n terms after two patches, no kernel.
        with monkeypatch.context() as mp:
            force(mp, "gemm")
            ledger, old = start(seeded.state_dict())
            old.pair_values([0], [1])  # cold rebuild
            run(ledger, old, range(2))
            saved = old.state_dict()
        assert old._t2_updates == 2 and saved["adj_close"].shape == (200 * 200,)
        del saved["kernel"]
        if garbage:
            saved = {**saved, **{k: np.full(200 * 200, 7.0) for k in ("adj_close", "t1", "t2")}}
        ledger, cc = start(ledger.state_dict())
        cc.restore_state(saved)
        assert cc._kernel == "pairs" and cc._t2_updates == 0
        assert cc._a is cc._t1 is cc._t2 is None
        resumed = run(ledger, cc, range(2, 6))
        for got, want in zip(resumed, uninterrupted[2:]):
            assert np.array_equal(got, want)


def test_dense_cache_health_is_published():
    """A traced dense world: the cold evaluation counts one rebuild, a
    one-row change one patch, and the drift gauge follows the patch."""
    graph, ledger = world(100, 25.0, seed=7)
    n = graph.n_nodes
    profiles = InterestProfiles(n, 4)
    obs = Observability()
    system = SocialTrust(
        EigenTrust(n, [0]), graph, ledger, profiles, observability=obs
    )
    cc = system.closeness_computer
    assert type(cc) is ClosenessComputer
    pairs = (np.arange(n), (np.arange(n) + 1) % n)
    cc.pair_values(*pairs)
    cc.pair_values(*pairs)  # same version: no refresh
    friend = min(graph.friends(0))
    ledger.record(0, friend, 3.0)
    cc.pair_values(*pairs)
    metrics = obs.metrics.as_dict()
    assert metrics["sparse.cache.rebuilds"]["value"] == 1
    assert metrics["sparse.cache.patches"]["value"] == 1
    assert metrics["sparse.cache.drift"]["value"] == 1
