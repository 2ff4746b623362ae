"""Tests for the seeded RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import WordReplay, spawn_rng


class TestSpawnRng:
    def test_same_key_same_stream(self):
        a = spawn_rng(42, 1, 2)
        b = spawn_rng(42, 1, 2)
        assert np.array_equal(a.random(16), b.random(16))

    def test_different_key_different_stream(self):
        a = spawn_rng(42, 1, 2)
        b = spawn_rng(42, 1, 3)
        assert not np.array_equal(a.random(16), b.random(16))

    def test_different_seed_different_stream(self):
        a = spawn_rng(42, 1)
        b = spawn_rng(43, 1)
        assert not np.array_equal(a.random(16), b.random(16))

    def test_none_seed_gives_entropy(self):
        a = spawn_rng(None)
        b = spawn_rng(None)
        # Astronomically unlikely to collide.
        assert not np.array_equal(a.random(16), b.random(16))

    def test_tuple_key_parts_flattened(self):
        a = spawn_rng(7, (1, 2), 3)
        b = spawn_rng(7, 1, 2, 3)
        assert np.array_equal(a.random(8), b.random(8))

    def test_returns_generator(self):
        assert isinstance(spawn_rng(0), np.random.Generator)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        key=st.lists(st.integers(min_value=0, max_value=1000), max_size=4),
    )
    def test_determinism_property(self, seed, key):
        a = spawn_rng(seed, *key)
        b = spawn_rng(seed, *key)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)

    def test_key_order_matters(self):
        a = spawn_rng(5, 1, 2)
        b = spawn_rng(5, 2, 1)
        assert not np.array_equal(a.random(16), b.random(16))


#: Bounds for ``integers``: no draw (1), tiny, a population-sized bound,
#: and the large ones whose Lemire rejection threshold is hit often.
BOUNDS = [1, 2, 7, 200, 2**31 + 5, 2**32 - 1]

draw_ops = st.lists(
    st.one_of(
        st.just(("random", None)),
        st.tuples(st.just("integers"), st.sampled_from(BOUNDS)),
    ),
    max_size=60,
)


class TestWordReplay:
    @given(
        seed=st.integers(0, 2**32 - 1),
        carry_in=st.booleans(),
        block=st.integers(1, 9),
        ops=draw_ops,
    )
    def test_draws_and_final_state_match_generator(
        self, seed, carry_in, block, ops
    ):
        live = np.random.default_rng(seed)
        replayed = np.random.default_rng(seed)
        if carry_in:
            # One bounded draw leaves the high half word buffered.
            assert live.integers(0, 5) == replayed.integers(0, 5)
            assert live.bit_generator.state["has_uint32"] == 1
        replay = WordReplay(replayed, block=block)
        replay.begin()
        for op, m in ops:
            if op == "random":
                assert replay.random() == live.random()
            else:
                assert replay.integers(m) == int(live.integers(0, m))
        replay.end()
        assert replayed.bit_generator.state == live.bit_generator.state
        # The generator carries on from the same stream position.
        assert replayed.integers(0, 2**31 + 5) == live.integers(0, 2**31 + 5)
        assert replayed.random() == live.random()

    def test_reusable_across_cycles(self):
        live = np.random.default_rng(3)
        replayed = np.random.default_rng(3)
        replay = WordReplay(replayed, block=4)
        for _ in range(5):
            assert np.array_equal(replayed.permutation(9), live.permutation(9))
            replay.begin()
            for m in (3, 1, 2**32 - 1, 11):
                assert replay.integers(m) == int(live.integers(0, m))
                assert replay.random() == live.random()
            replay.end()
        assert replayed.bit_generator.state == live.bit_generator.state

    def test_bound_one_consumes_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        replay = WordReplay(rng)
        replay.begin()
        assert replay.integers(1) == 0
        replay.end()
        assert rng.bit_generator.state == before

    def test_non_pcg64_rejected(self):
        with pytest.raises(TypeError, match="PCG64"):
            WordReplay(np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize("m", [0, -3, 2**32, 2**40])
    def test_out_of_range_bound_rejected(self, m):
        replay = WordReplay(np.random.default_rng(0))
        replay.begin()
        with pytest.raises(ValueError, match="bound"):
            replay.integers(m)
        replay.end()

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError, match="block"):
            WordReplay(np.random.default_rng(0), block=0)
