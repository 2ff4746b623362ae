"""Compromised pre-trusted peers joining a collusion (Sections 5.4, 5.7).

The paper's scenario: 7 of the 9 pre-trusted nodes are compromised; each
"randomly select[s] a colluder with which to collude" and the pair
exchanges high-frequency mutual positive ratings at social distance 1.
The distance pinning itself is a property of the social network and is
applied by the experiment setup
(:func:`repro.experiments.setup.build_world`); this schedule contributes
the rating bursts.
"""

from __future__ import annotations

from typing import Sequence

from repro.collusion.models import (
    BurstColumns,
    CollusionSchedule,
    FixedBursts,
    Integers,
    pick,
)
from repro.utils.rng import RngStream

__all__ = ["CompromisedPretrustedCollusion"]


class CompromisedPretrustedCollusion(CollusionSchedule):
    """Mutual rating bursts between compromised pre-trusted nodes and colluders."""

    def __init__(
        self,
        compromised_pretrusted: Sequence[int],
        colluder_ids: Sequence[int],
        interests: Sequence[frozenset[int]],
        rng: RngStream,
        *,
        ratings_per_cycle: int = 20,
    ) -> None:
        compromised = [int(p) for p in compromised_pretrusted]
        colluders = [int(c) for c in colluder_ids]
        if not compromised:
            raise ValueError("need at least one compromised pre-trusted node")
        if not colluders:
            raise ValueError("need at least one colluder to conspire with")
        if set(compromised) & set(colluders):
            raise ValueError(
                "compromised pre-trusted ids must be disjoint from colluder ids"
            )
        if ratings_per_cycle < 1:
            raise ValueError("ratings_per_cycle must be >= 1")
        self._partners: list[tuple[int, int]] = [
            (p, pick(colluders, rng)) for p in compromised
        ]
        count = int(ratings_per_cycle)
        self._fixed = FixedBursts(
            [
                (rater, ratee, 1.0, count)
                for pretrusted, colluder in self._partners
                for rater, ratee in ((pretrusted, colluder), (colluder, pretrusted))
            ],
            interests,
        )

    @property
    def partners(self) -> tuple[tuple[int, int], ...]:
        """(compromised pre-trusted, conspiring colluder) pairs."""
        return tuple(self._partners)

    @property
    def colluders(self) -> tuple[int, ...]:
        out: list[int] = []
        seen: set[int] = set()
        for p, c in self._partners:
            for node in (p, c):
                if node not in seen:
                    seen.add(node)
                    out.append(node)
        return tuple(out)

    def draw_cycle(self, integers: Integers) -> BurstColumns:
        return self._fixed.draw(integers)
