"""The full layout's pair kernel against the two-hop layout, bit for bit.

The pair kernel caches only ``A`` and sums Eq. (3)'s ``T1`` and ``T2`` at
the asked pairs, in ascending common friend from 0.0 -- the order the
two-hop layout's table sums them in.  It rebuilds ``A`` on every ledger
change and never patches, so after any interleaving of ratings (single
rows, a few rows, every row, strangers) and ``decay_nodes`` (a factor of
0 included, which drops ``A``'s entries) its values are bitwise a fresh
two-hop computer's at every kind of pair: adjacent, common-friend, path
fallback, unreachable, diagonal and repeated pairs, under both
``CommonFriendAggregate`` values, plain and hardened, over the dense and
the sparse interaction ledger.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closeness import ClosenessComputer
from repro.core.config import SocialTrustConfig
from repro.social.graph import Relationship, SocialGraph
from repro.social.interactions import InteractionLedger, SparseInteractionLedger
from tests.core.kernels import closeness_with, force

N = 40
COMMUNITY = 10
NODES = st.lists(st.integers(0, N - 1), min_size=1, max_size=4, unique=True)
COUNT = st.sampled_from([1.0, 2.0, 17.0, 150.0])

OP = st.one_of(
    st.tuples(st.just("rows"), NODES, COUNT),
    st.tuples(st.just("every-row"), COUNT),
    st.tuples(st.just("stranger"), st.integers(0, N - 1), st.integers(0, N - 1), COUNT),
    st.tuples(st.just("decay"), NODES, st.sampled_from([0.0, 0.25, 0.5])),
)


def make_graph(seed: int) -> SocialGraph:
    """Four communities around hubs, with chords of mixed kinds; bridges
    join communities 0-1 and 2-3 (connected pairs with no common friend
    walk the path fallback), and the two halves never meet."""
    rng = np.random.default_rng(seed)
    graph = SocialGraph(N)
    kinds = [[Relationship()], [Relationship("kin", 2.0), Relationship()]]
    for hub in range(0, N, COMMUNITY):
        for member in range(hub + 1, hub + COMMUNITY):
            graph.add_friendship(hub, member, kinds[int(rng.integers(0, 2))])
        for _ in range(COMMUNITY // 2):
            i, j = hub + rng.choice(np.arange(1, COMMUNITY), 2, replace=False)
            graph.add_friendship(int(i), int(j))
    for hub in (0, 2 * COMMUNITY):
        graph.add_friendship(hub + 1, hub + COMMUNITY + 1)
    return graph


def rate_friends(graph: SocialGraph, ledger, rng, raters, count: float) -> None:
    """Each rater rates up to five friends, ``count`` times one of three
    weights: rows of ``A`` with several terms whose shares round, so an
    Eq. (3) sum in another order shows in the last bits."""
    src, dst = [], []
    for i in raters:
        friends = sorted(graph.friends(int(i)))
        for j in rng.choice(friends, min(5, len(friends)), replace=False):
            src.append(int(i))
            dst.append(int(j))
    counts = count * rng.choice([1.0, 3.0, 7.0], len(src))
    ledger.record_many(np.array(src), np.array(dst), counts)


def asked_pairs(graph, ledger, rng) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (the diagonal included) but samples of the connected
    and the unreachable pairs with no common friend, whose walks are
    scalar, then some pairs again."""
    cc = closeness_with("full", graph, ledger)
    i, j = np.divmod(np.arange(N * N), N)
    walked = ~cc._slot_adj & (cc._slot_common == 0) & (i != j)
    connected = cc._connected(i, j)
    keep = [np.flatnonzero(~walked)]
    for kind in (walked & connected, walked & ~connected):
        keep.append(rng.choice(np.flatnonzero(kind), 30, replace=False))
    keep = np.concatenate(keep)
    keep = np.concatenate([keep, rng.choice(keep, 200)])
    return i[keep], j[keep]


def apply(op, graph, ledger, rng) -> None:
    kind = op[0]
    if kind == "rows":
        rate_friends(graph, ledger, rng, op[1], op[2])
    elif kind == "every-row":
        rate_friends(graph, ledger, rng, range(N), op[1])
    elif kind == "stranger":
        if op[1] != op[2]:
            ledger.record(op[1], op[2], op[3])
    else:
        ledger.decay_nodes(np.array(op[1]), op[2])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    hardened=st.booleans(),
    aggregate=st.sampled_from(["mean", "sum"]),
    sparse_ledger=st.booleans(),
    ops=st.lists(OP, min_size=1, max_size=8),
)
def test_pair_kernel_is_the_two_hop_layout_bitwise(seed, hardened, aggregate, sparse_ledger, ops):
    cfg = SocialTrustConfig(hardened=hardened, common_friend_aggregate=aggregate)
    graph = make_graph(seed)
    ledger = SparseInteractionLedger(N) if sparse_ledger else InteractionLedger(N)
    rng = np.random.default_rng(seed)
    rate_friends(graph, ledger, rng, range(N), 3.0)
    i, j = asked_pairs(graph, ledger, rng)
    with pytest.MonkeyPatch.context() as mp:
        force(mp, "sparse-a")
        pairs = ClosenessComputer(graph, ledger, cfg)
        for op in [("rows", [0], 1.0), *ops]:
            got = pairs.pair_values(i, j)
            want = closeness_with("two-hop", graph, ledger, cfg).pair_values(i, j)
            assert np.array_equal(got, want)
            assert pairs._kernel == "pairs" and pairs._t2_updates == 0
            apply(op, graph, ledger, rng)
        got = pairs.pair_values(i, j)
    assert np.array_equal(got, closeness_with("two-hop", graph, ledger, cfg).pair_values(i, j))


def test_the_world_has_every_kind_of_pair():
    """Not vacuous: the property's world holds adjacent, common-friend,
    path-fallback and unreachable pairs."""
    graph = make_graph(0)
    ledger = InteractionLedger(N)
    rate_friends(graph, ledger, np.random.default_rng(0), range(N), 3.0)
    cc = closeness_with("full", graph, ledger)
    i, j = np.divmod(np.arange(N * N), N)
    off = i != j
    adjacent = cc._slot_adj & off
    common = ~cc._slot_adj & (cc._slot_common > 0) & off
    none = ~cc._slot_adj & (cc._slot_common == 0) & off
    connected = cc._connected(i, j)
    assert adjacent.sum() > N and common.sum() > N
    assert (none & connected).sum() > N and (none & ~connected).sum() > N
    values = cc.pair_values(i, j)
    assert np.any(values[none & connected] > 0)
