"""Collusion schedules consume the RNG stream exactly like ``rng.choice``.

The schedules pick interests, victims, boosted targets and conspiring
colluders with one bounded ``integers`` draw over a pre-sorted pool.  The
references below spell out the original ``Generator.choice`` formulation;
every burst and the final generator state must agree with them, both for
``bursts(rng)`` and for the columns ``draw_cycle`` draws through a
:class:`~repro.utils.rng.WordReplay`, which is how the batched engine
draws them.  The scalar and batched engines share these schedules, so
their equivalence tests cannot see a drift here.
"""

import numpy as np
import pytest

from repro.collusion import (
    BadmouthingCollusion,
    CompositeCollusion,
    CompromisedPretrustedCollusion,
    MultiNodeCollusion,
    MutualMultiNodeCollusion,
    NoCollusion,
    PairwiseCollusion,
)
from repro.utils.rng import WordReplay

N = 24
CYCLES = 50
COLLUDERS = list(range(8, 20))
RANGE = (3, 7)


def make_interests(seed):
    """Declared interests for all but the last two nodes (so some ratees
    fall off the end of the list); every fifth node declares none."""
    rng = np.random.default_rng(seed)
    out = []
    for node in range(N - 2):
        size = 0 if node % 5 == 0 else int(rng.integers(1, 6))
        picked = rng.choice(20, size=size, replace=False)
        out.append(frozenset(int(x) for x in picked))
    return out


def ref_interest(interests, ratee, rng):
    pool = sorted(interests[ratee]) if ratee < len(interests) else []
    if not pool:
        return None
    return int(rng.choice(pool))


def ref_pcm(schedule, interests, rng):
    for a, b in schedule.pairs:
        for rater, ratee in ((a, b), (b, a)):
            yield rater, ratee, 1.0, 20, ref_interest(interests, ratee, rng)


def ref_mcm(schedule, interests, rng):
    lo, hi = RANGE
    for rater in schedule.boosting:
        ratee = schedule.target_of(rater)
        count = int(rng.integers(lo, hi + 1))
        yield rater, ratee, 1.0, count, ref_interest(interests, ratee, rng)


def ref_mmm(schedule, interests, rng):
    for rater in schedule.boosting:
        ratee = schedule.target_of(rater)
        yield rater, ratee, 1.0, 20, ref_interest(interests, ratee, rng)
    boosters_of = {b: [] for b in schedule.boosted}
    for booster in schedule.boosting:
        boosters_of[schedule.target_of(booster)].append(booster)
    for boosted, boosters in boosters_of.items():
        for booster in boosters:
            yield boosted, booster, 1.0, 5, ref_interest(interests, booster, rng)


def ref_badmouthing(paired):
    def bursts(schedule, interests, rng):
        victims = schedule.victims
        for k, rater in enumerate(schedule.colluders):
            if paired:
                ratee = victims[k % len(victims)]
            else:
                ratee = int(rng.choice(victims))
            yield rater, ratee, -1.0, 20, ref_interest(interests, ratee, rng)

    return bursts


def ref_compromise(schedule, interests, rng):
    for pretrusted, colluder in schedule.partners:
        for rater, ratee in ((pretrusted, colluder), (colluder, pretrusted)):
            yield rater, ratee, 1.0, 20, ref_interest(interests, ratee, rng)


def ref_composite(schedule, interests, rng):
    mcm, compromise, badmouthing = schedule.parts
    yield from ref_mcm(mcm, interests, rng)
    yield from ref_compromise(compromise, interests, rng)
    yield from ref_badmouthing(paired=False)(badmouthing, interests, rng)


def ref_none(schedule, interests, rng):
    return iter(())


def build(kind, interests, rng):
    if kind == "pcm":
        return PairwiseCollusion(COLLUDERS, interests)
    if kind == "mcm":
        return MultiNodeCollusion(
            COLLUDERS, interests, rng, n_boosted=4, ratings_range=RANGE
        )
    if kind == "mmm":
        return MutualMultiNodeCollusion(COLLUDERS, interests, rng, n_boosted=4)
    if kind.startswith("badmouthing"):
        return BadmouthingCollusion(
            COLLUDERS[:5],
            [0, 3, 5, 21, 22, 23],
            interests,
            paired=kind == "badmouthing_paired",
        )
    if kind == "composite":
        parts = (
            build("mcm", interests, rng),
            build("compromise", interests, rng),
            build("badmouthing_unpaired", interests, rng),
        )
        schedule = CompositeCollusion(parts)
        schedule.parts = parts
        return schedule
    if kind == "none":
        return NoCollusion()
    return CompromisedPretrustedCollusion([0, 1, 2, 3], COLLUDERS, interests, rng)


REFERENCES = {
    "pcm": ref_pcm,
    "mcm": ref_mcm,
    "mmm": ref_mmm,
    "badmouthing_paired": ref_badmouthing(paired=True),
    "badmouthing_unpaired": ref_badmouthing(paired=False),
    "compromise": ref_compromise,
    "composite": ref_composite,
    "none": ref_none,
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", list(REFERENCES))
def test_bursts_match_choice_reference(kind, seed):
    interests = make_interests(seed)
    schedule = build(kind, interests, np.random.default_rng(seed + 100))
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    reference = REFERENCES[kind]
    for _ in range(CYCLES):
        got = [
            (b.rater, b.ratee, b.value, b.count, b.interest)
            for b in schedule.bursts(rng)
        ]
        assert got == list(reference(schedule, interests, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", list(REFERENCES))
def test_columns_through_word_replay_match_choice_reference(kind, seed, block):
    """Small blocks make the replay refetch mid-cycle; the odd-bound
    ``integers`` before each cycle sometimes leaves a half word buffered,
    which the replay must pick up on ``begin`` and hand back on ``end``."""
    interests = make_interests(seed)
    schedule = build(kind, interests, np.random.default_rng(seed + 100))
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    replay = WordReplay(rng, block=block)
    reference = REFERENCES[kind]
    for cycle in range(CYCLES):
        for gen in (rng, ref_rng):
            gen.integers(0, 3, size=cycle % 3)
        replay.begin()
        columns = schedule.draw_cycle(replay.integers)
        replay.end()
        assert len({len(column) for column in columns}) == 1
        assert list(zip(*columns)) == list(reference(schedule, interests, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(20))
def test_multinode_targets_match_choice_reference(seed):
    rng = np.random.default_rng(seed)
    schedule = MultiNodeCollusion(COLLUDERS, make_interests(seed), rng, n_boosted=4)
    ref_rng = np.random.default_rng(seed)
    picked = ref_rng.choice(len(COLLUDERS), size=4, replace=False)
    boosted = tuple(sorted(COLLUDERS[int(k)] for k in picked))
    assert schedule.boosted == boosted
    for booster in schedule.boosting:
        assert schedule.target_of(booster) == int(ref_rng.choice(boosted))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(20))
def test_compromise_partners_match_choice_reference(seed):
    rng = np.random.default_rng(seed)
    schedule = CompromisedPretrustedCollusion(
        [0, 1, 2, 3], COLLUDERS, make_interests(seed), rng
    )
    ref_rng = np.random.default_rng(seed)
    expected = tuple((p, int(ref_rng.choice(COLLUDERS))) for p in (0, 1, 2, 3))
    assert schedule.partners == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state
