"""The Ωs pair cache against a fresh computer.

On its row-dots kernel :class:`SimilarityComputer` keeps the pair values
it computed, keyed on the profile store's versions.  Whatever pairs are asked (unsorted,
repeated, on the diagonal, pairs no closeness pattern covers) and however
requests and declared sets move in between, a cached answer must equal a
fresh computer's bitwise -- ``np.array_equal``, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SocialTrustConfig
from repro.core.similarity import SimilarityComputer
from repro.social.interests import InterestProfiles
from tests.core.kernels import similarity_with

N = 30
K = 7

CONFIGS = [SocialTrustConfig(), SocialTrustConfig(hardened=False)]
IDS = ["hardened", "plain"]


def make_profiles(seed: int = 0) -> InterestProfiles:
    """Random declared sets, and requests on some nodes only, so the
    hardened weights mix zero rows with fractional ones."""
    rng = np.random.default_rng(seed)
    profiles = InterestProfiles(N, K)
    for node in range(N):
        size = int(rng.integers(1, K + 1))
        profiles.set_declared(node, rng.choice(K, size, replace=False).tolist())
    active = rng.choice(N, N // 2, replace=False)
    profiles.record_requests(
        np.repeat(active, 3), rng.integers(0, K, 3 * active.size)
    )
    return profiles


def row_dots(profiles, cfg) -> SimilarityComputer:
    return similarity_with("row-dots", profiles, cfg)


def cached_keys(sc: SimilarityComputer) -> set[int]:
    return set(sc._pair_keys.tolist())


def keys_of(i, j) -> set[int]:
    return set((np.asarray(i) * N + np.asarray(j)).tolist())


pair_arrays = st.integers(1, 40).flatmap(
    lambda size: st.tuples(
        st.lists(st.integers(0, N - 1), min_size=size, max_size=size),
        st.lists(st.integers(0, N - 1), min_size=size, max_size=size),
    )
)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("query"), pair_arrays),
        st.tuples(
            st.just("requests"),
            st.lists(
                st.tuples(st.integers(0, N - 1), st.integers(0, K - 1)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(
            st.just("declare"),
            st.tuples(
                st.integers(0, N - 1),
                st.sets(st.integers(0, K - 1), min_size=1, max_size=K),
            ),
        ),
    ),
    min_size=1,
    max_size=12,
)


class TestPairCache:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    @settings(max_examples=60, deadline=None)
    @given(history=steps)
    def test_cached_values_match_fresh_bitwise(self, cfg, history):
        profiles = make_profiles()
        sc = row_dots(profiles, cfg)
        before: set[int] = set()
        moved = False
        for kind, arg in history:
            if kind == "query":
                i, j = (np.array(side, dtype=np.int64) for side in arg)
                got = sc.pair_values(i, j)
                want = row_dots(profiles, cfg).pair_values(i, j)
                assert np.array_equal(got, want)
                assert np.all(got[i == j] == 0.0)
                # A move of the versions Ωs reads drops every older pair.
                expected = keys_of(i, j) | (set() if moved else before)
                assert cached_keys(sc) == expected
                assert np.all(np.diff(sc._pair_keys) > 0)
                before, moved = expected, False
            elif kind == "requests":
                nodes, interests = zip(*arg)
                profiles.record_requests(np.array(nodes), np.array(interests))
                moved = moved or cfg.hardened
            else:
                node, interests = arg
                profiles.set_declared(node, interests)
                moved = True

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_version_moves_drop_the_cache(self, cfg):
        profiles = make_profiles(1)
        sc = row_dots(profiles, cfg)
        i, j = np.array([3, 0, 5, 3]), np.array([4, 9, 5, 4])
        sc.pair_values(i, j)
        assert cached_keys(sc) == keys_of(i, j)
        profiles.set_declared(0, [1, 2])
        sc.pair_values(np.array([1]), np.array([2]))
        assert cached_keys(sc) == {1 * N + 2}
        profiles.record_request(1, 3)
        sc.pair_values(np.array([6]), np.array([7]))
        if cfg.hardened:
            assert cached_keys(sc) == {6 * N + 7}
        else:  # plain Ωs reads no request counter
            assert cached_keys(sc) == {1 * N + 2, 6 * N + 7}

    @pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
    def test_restore_starts_empty(self, cfg):
        profiles = make_profiles(2)
        sc = row_dots(profiles, cfg)
        i, j = np.arange(N - 1), np.arange(1, N)
        want = sc.pair_values(i, j)
        assert sc._pair_keys.size == N - 1
        sc.restore_state(sc.state_dict())
        assert sc._pair_keys.size == 0
        assert np.array_equal(sc.pair_values(i, j), want)

    def test_ids_off_range_refused(self):
        sc = row_dots(make_profiles(), CONFIGS[0])
        # (0, N) and (1, 0) would share the key N.
        for i, j in (([0], [N]), ([-1], [2]), ([N], [0])):
            with pytest.raises(IndexError):
                sc.pair_values(np.array(i), np.array(j))
        assert sc._pair_keys.size == 0
