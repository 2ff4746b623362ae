"""The paper's three collusion structures: PCM, MCM and MMM.

A collusion model is a *schedule*: once per query cycle the simulator asks
it for the :class:`RatingBurst`\\ s the colluders inject — batches of
identical positive (or negative) ratings from one colluder to another, each
tagged with an interest drawn from the ratee's declared interests ("a
boosting node rates a boosted node ... on an interest randomly selected
from the interests of the boosted node").

The query engine takes a cycle's bursts as columns from
:meth:`CollusionSchedule.draw_cycle`, drawing on its open word replay;
:meth:`CollusionSchedule.bursts` wraps the same draw as
:class:`RatingBurst` records for the scalar oracle and callers that want
objects.  Each schedule builds its fixed columns (pairs, values, counts,
sorted interest pools) once at construction.

Bursts count toward the rater's *interaction frequency* (the paper equates
interaction frequency with rating frequency) but **not** toward its
behavioural interest-request weights: a collusion rating is not a genuine
resource transfer, so the system never observes a real request behind it.
This asymmetry is what lets the hardened interest similarity (Eq. (11))
expose profile falsification in Section 5.8.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.utils.rng import RngStream

__all__ = [
    "BurstColumns",
    "RatingBurst",
    "CollusionSchedule",
    "NoCollusion",
    "PairwiseCollusion",
    "MultiNodeCollusion",
    "MutualMultiNodeCollusion",
    "CompositeCollusion",
]

#: ``integers(m)`` draws like ``int(rng.integers(0, m))`` for ``m >= 1``.
Integers = Callable[[int], int]

#: One query cycle's bursts as five parallel columns: raters, ratees,
#: values, counts and interests (``None`` where the ratee declares none).
BurstColumns = tuple[
    Sequence[int], Sequence[int], Sequence[float], Sequence[int], Sequence["int | None"]
]

_NO_BURSTS: BurstColumns = ((), (), (), (), ())


@dataclass(frozen=True)
class RatingBurst:
    """A batch of ``count`` identical ratings injected in one query cycle."""

    rater: int
    ratee: int
    value: float
    count: int
    interest: int | None = None

    def __post_init__(self) -> None:
        if self.rater == self.ratee:
            raise ValueError("colluders cannot rate themselves")
        if self.count < 1:
            raise ValueError(f"burst count must be >= 1, got {self.count}")


def pick(pool: Sequence[int], rng: RngStream) -> int:
    """``int(rng.choice(pool))`` without converting ``pool`` to an array.

    ``Generator.choice`` over a 1-D population draws exactly one
    ``integers(0, len(pool))``, so this consumes the stream identically.
    """
    return pool[int(rng.integers(0, len(pool)))]


def _draw_interest(pool: Sequence[int], integers: Integers) -> int | None:
    """``pick(pool)``; a one-entry pool draws nothing, an empty one gives
    ``None``."""
    if len(pool) > 1:
        return pool[integers(len(pool))]
    return pool[0] if pool else None


def _ratee_pools(
    interests: Sequence[frozenset[int]], ratees: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Each ratee's declared interests, sorted (empty past the list's end)."""
    return tuple(
        tuple(sorted(interests[j])) if j < len(interests) else () for j in ratees
    )


class FixedBursts:
    """Bursts whose rater, ratee, value and count never change: a cycle
    draws only each burst's interest, from its ratee's declared interests."""

    __slots__ = ("raters", "ratees", "values", "counts", "pools")

    def __init__(
        self,
        bursts: Sequence[tuple[int, int, float, int]],
        interests: Sequence[frozenset[int]],
    ) -> None:
        columns = tuple(zip(*bursts)) if bursts else ((), (), (), ())
        self.raters, self.ratees, self.values, self.counts = columns
        self.pools = _ratee_pools(interests, self.ratees)

    def draw(self, integers: Integers) -> BurstColumns:
        return (
            self.raters,
            self.ratees,
            self.values,
            self.counts,
            [_draw_interest(pool, integers) for pool in self.pools],
        )


class CollusionSchedule(abc.ABC):
    """Produces the colluders' rating bursts, one draw per query cycle."""

    @property
    @abc.abstractmethod
    def colluders(self) -> tuple[int, ...]:
        """All node ids participating in the collusion."""

    @abc.abstractmethod
    def draw_cycle(self, integers: Integers) -> BurstColumns:
        """One query cycle's bursts as columns.

        Every random choice -- an interest, a victim, an MCM count -- is
        one ``integers(m)`` call, made burst by burst in burst order.  The
        query engine passes its open :class:`~repro.utils.rng.WordReplay`'s
        ``integers``; :meth:`bursts` passes ``rng.integers(0, m)``.  Fixed
        columns are shared between calls and must not be modified.
        """

    def bursts(self, rng: RngStream) -> Iterator[RatingBurst]:
        """Rating bursts for one query cycle, drawn from ``rng``."""
        columns = self.draw_cycle(lambda m: int(rng.integers(0, m)))
        for rater, ratee, value, count, interest in zip(*columns):
            yield RatingBurst(rater, ratee, value, count, interest)


class NoCollusion(CollusionSchedule):
    """The colluder-free baseline (Fig. 7): malicious peers act alone."""

    @property
    def colluders(self) -> tuple[int, ...]:
        return ()

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        return _NO_BURSTS


class PairwiseCollusion(CollusionSchedule):
    """PCM: consecutive colluder pairs mutually rate each other.

    Colluders are paired in order; each partner rates the other
    ``ratings_per_cycle`` times (+1) per query cycle.  An odd trailing
    colluder pairs with the first one.
    """

    def __init__(
        self,
        colluder_ids: Sequence[int],
        interests: Sequence[frozenset[int]],
        *,
        ratings_per_cycle: int = 20,
        rating_value: float = 1.0,
    ) -> None:
        ids = [int(c) for c in colluder_ids]
        if len(ids) < 2:
            raise ValueError("pairwise collusion needs at least two colluders")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate colluder ids")
        if ratings_per_cycle < 1:
            raise ValueError("ratings_per_cycle must be >= 1")
        self._ids = tuple(ids)
        self._pairs: list[tuple[int, int]] = []
        for k in range(0, len(ids) - 1, 2):
            self._pairs.append((ids[k], ids[k + 1]))
        if len(ids) % 2 == 1:
            self._pairs.append((ids[-1], ids[0]))
        count, value = int(ratings_per_cycle), float(rating_value)
        self._fixed = FixedBursts(
            [
                (rater, ratee, value, count)
                for a, b in self._pairs
                for rater, ratee in ((a, b), (b, a))
            ],
            interests,
        )

    @property
    def colluders(self) -> tuple[int, ...]:
        return self._ids

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._pairs)

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        return self._fixed.draw(integers)


class MultiNodeCollusion(CollusionSchedule):
    """MCM: boosting nodes pump a few boosted nodes, one-directionally.

    ``n_boosted`` colluders are designated boosted; every other colluder
    picks one boosted target at construction time and rates it a number of
    times drawn from ``ratings_range`` each query cycle.  Boosted nodes do
    not rate back.
    """

    def __init__(
        self,
        colluder_ids: Sequence[int],
        interests: Sequence[frozenset[int]],
        rng: RngStream,
        *,
        n_boosted: int = 7,
        ratings_range: tuple[int, int] = (3, 7),
        rating_value: float = 1.0,
    ) -> None:
        ids = [int(c) for c in colluder_ids]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate colluder ids")
        if not 1 <= n_boosted < len(ids):
            raise ValueError(
                f"n_boosted must be in [1, {len(ids) - 1}], got {n_boosted}"
            )
        lo, hi = ratings_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid ratings_range {ratings_range}")
        self._ids = tuple(ids)
        # ``rng.integers(lo, hi + 1)`` is ``lo + integers(0, hi + 1 - lo)``:
        # numpy bounds the draw on the range alone, and a one-value range
        # draws nothing.
        self._lo = int(lo)
        self._span = int(hi) + 1 - self._lo
        boosted = rng.choice(len(ids), size=n_boosted, replace=False)
        self._boosted = tuple(sorted(ids[int(k)] for k in boosted))
        boosted_set = set(self._boosted)
        self._boosting = tuple(i for i in ids if i not in boosted_set)
        self._target = {
            b: pick(self._boosted, rng) for b in self._boosting
        }
        #: The forward bursts; their counts column holds ``lo``, which is
        #: every count when the range has one value.
        value = float(rating_value)
        self._forward = FixedBursts(
            [(b, self._target[b], value, self._lo) for b in self._boosting],
            interests,
        )

    @property
    def colluders(self) -> tuple[int, ...]:
        return self._ids

    @property
    def boosted(self) -> tuple[int, ...]:
        return self._boosted

    @property
    def boosting(self) -> tuple[int, ...]:
        return self._boosting

    def target_of(self, boosting_node: int) -> int:
        return self._target[boosting_node]

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        forward = self._forward
        if self._span == 1:
            return forward.draw(integers)
        lo, span = self._lo, self._span
        counts: list[int] = []
        interests: list[int | None] = []
        for pool in forward.pools:
            counts.append(lo + integers(span))
            interests.append(_draw_interest(pool, integers))
        return forward.raters, forward.ratees, forward.values, counts, interests


class MutualMultiNodeCollusion(MultiNodeCollusion):
    """MMM: MCM plus back-ratings from boosted to boosting nodes.

    "Each boosting node rates randomly chosen boosted nodes 20 times and
    the boosted node rates its boosting nodes 5 times" — forward bursts use
    a fixed ``forward_ratings`` count and each boosted node returns
    ``back_ratings`` ratings to each of its boosters per query cycle.
    """

    def __init__(
        self,
        colluder_ids: Sequence[int],
        interests: Sequence[frozenset[int]],
        rng: RngStream,
        *,
        n_boosted: int = 7,
        forward_ratings: int = 20,
        back_ratings: int = 5,
        rating_value: float = 1.0,
    ) -> None:
        super().__init__(
            colluder_ids,
            interests,
            rng,
            n_boosted=n_boosted,
            ratings_range=(forward_ratings, forward_ratings),
            rating_value=rating_value,
        )
        if back_ratings < 1:
            raise ValueError(f"back_ratings must be >= 1, got {back_ratings}")
        self._back = int(back_ratings)
        self._boosters_of: dict[int, list[int]] = {b: [] for b in self.boosted}
        for booster in self.boosting:
            self._boosters_of[self.target_of(booster)].append(booster)
        # Forward counts are fixed, so a cycle draws only interests: the
        # forward bursts', then each boosted node's back bursts'.
        self._fixed = FixedBursts(
            [
                (booster, self.target_of(booster), float(rating_value), self._lo)
                for booster in self.boosting
            ]
            + [
                (boosted, booster, 1.0, self._back)
                for boosted, boosters in self._boosters_of.items()
                for booster in boosters
            ],
            interests,
        )

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        return self._fixed.draw(integers)


class BadmouthingCollusion(CollusionSchedule):
    """Negative-rating collusion: colluders suppress competitors (B4).

    The paper evaluates positive-rating collusion and notes "similar
    results can be obtained for the collusion of negative ratings"; this
    schedule makes that concrete.  Each colluder floods a set of victim
    peers with negative ratings every query cycle, attempting to push
    reputable competitors below the selection threshold.  The interest tag
    comes from the *victim's* catalogue — a competitor attack targets the
    categories both sides sell in.
    """

    def __init__(
        self,
        colluder_ids: Sequence[int],
        victim_ids: Sequence[int],
        interests: Sequence[frozenset[int]],
        *,
        ratings_per_cycle: int = 20,
        paired: bool = False,
    ) -> None:
        colluders = [int(c) for c in colluder_ids]
        victims = [int(v) for v in victim_ids]
        if not colluders:
            raise ValueError("need at least one badmouthing colluder")
        if not victims:
            raise ValueError("need at least one victim")
        if set(colluders) & set(victims):
            raise ValueError("colluders cannot badmouth themselves")
        if ratings_per_cycle < 1:
            raise ValueError("ratings_per_cycle must be >= 1")
        self._colluders = tuple(colluders)
        self._victims = tuple(victims)
        self._victim_pools = _ratee_pools(interests, victims)
        #: paired=True is the classic competitor attack: colluder ``k``
        #: always targets ``victims[k % len(victims)]`` (its market rival);
        #: paired=False sprays a random victim each cycle.
        self._paired = bool(paired)
        count = int(ratings_per_cycle)
        self._fixed = FixedBursts(
            [
                (rater, victims[k % len(victims)], -1.0, count)
                for k, rater in enumerate(colluders)
            ],
            interests,
        )

    @property
    def colluders(self) -> tuple[int, ...]:
        return self._colluders

    @property
    def victims(self) -> tuple[int, ...]:
        return self._victims

    def target_of(self, colluder: int) -> int | None:
        """The fixed victim of ``colluder`` in paired mode (None otherwise)."""
        if not self._paired:
            return None
        k = self._colluders.index(colluder)
        return self._victims[k % len(self._victims)]

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        fixed = self._fixed
        if self._paired:
            return fixed.draw(integers)
        victims, pools, m = self._victims, self._victim_pools, len(self._victims)
        ratees: list[int] = []
        interests: list[int | None] = []
        for _ in self._colluders:
            k = integers(m)
            ratees.append(victims[k])
            interests.append(_draw_interest(pools[k], integers))
        return fixed.raters, ratees, fixed.values, fixed.counts, interests


class CompositeCollusion(CollusionSchedule):
    """Union of several schedules (e.g. MCM plus compromised pre-trusted)."""

    def __init__(self, schedules: Sequence[CollusionSchedule]) -> None:
        if not schedules:
            raise ValueError("composite needs at least one schedule")
        self._schedules = tuple(schedules)

    @property
    def colluders(self) -> tuple[int, ...]:
        out: list[int] = []
        seen: set[int] = set()
        for schedule in self._schedules:
            for c in schedule.colluders:
                if c not in seen:
                    seen.add(c)
                    out.append(c)
        return tuple(out)

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        parts = [schedule.draw_cycle(integers) for schedule in self._schedules]
        if len(parts) == 1:
            return parts[0]
        return tuple(  # type: ignore[return-value]
            [x for part in parts for x in part[column]] for column in range(5)
        )
