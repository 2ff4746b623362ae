"""Deterministic random-number streams.

Every stochastic component of the simulator draws from a
:class:`numpy.random.Generator`.  Experiments derive independent child
streams from a root seed via :func:`spawn_rng` so that

* a given ``(experiment, run)`` pair is exactly reproducible, and
* adding a new consumer of randomness does not perturb existing streams.

:class:`WordReplay` serves ``random()`` and ``integers(0, m)`` draws of a
PCG64 generator from a pre-fetched block of its raw 64-bit words, exactly
as the ``Generator`` would have produced them, for loops where the
per-call overhead of ``Generator`` methods dominates.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["RngStream", "WordReplay", "spawn_rng"]

#: Alias used throughout the package for readability in signatures.
RngStream = np.random.Generator


def spawn_rng(seed: int | None, *key: Iterable[int] | int) -> RngStream:
    """Return a generator keyed by ``seed`` plus an arbitrary integer key path.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` yields OS entropy (non-reproducible runs).
    *key:
        Zero or more integers identifying the consumer, e.g.
        ``spawn_rng(42, experiment_id, run_index)``.  Distinct key paths
        yield statistically independent streams (``SeedSequence`` spawning).

    Examples
    --------
    >>> a = spawn_rng(7, 1, 0)
    >>> b = spawn_rng(7, 1, 0)
    >>> float(a.random()) == float(b.random())
    True
    >>> c = spawn_rng(7, 1, 1)
    >>> float(spawn_rng(7, 1, 0).random()) != float(c.random())
    True
    """
    if seed is None:
        return np.random.default_rng()
    flat: list[int] = [int(seed)]
    for part in key:
        if isinstance(part, (list, tuple)):
            flat.extend(int(p) for p in part)
        else:
            flat.append(int(part))
    return np.random.default_rng(np.random.SeedSequence(flat))


class WordReplay:
    """Draw-exact replay of a PCG64 ``Generator`` from raw words.

    Between :meth:`begin` and :meth:`end`, :meth:`random` equals
    ``rng.random()`` and :meth:`integers` equals ``rng.integers(0, m)``
    call for call, and after :meth:`end` the generator's state is exactly
    what those calls would have left.  Nothing else may draw from ``rng``
    while a replay is open.

    The replay mirrors numpy's consumption of the bit generator:

    * ``random()`` takes one word ``w`` and returns ``(w >> 11) * 2**-53``;
      it neither uses nor clears the buffered half word.
    * ``integers(0, m)`` for ``1 <= m < 2**32`` is Lemire's bounded draw
      on 32-bit outputs: ``x = next32 * m``, redrawn while
      ``x mod 2**32 < (2**32 - m) % m``, returning ``x >> 32``.  ``next32``
      is PCG64's half-word carry: the low half of a fresh word, with the
      high half kept for the next 32-bit request.  ``m == 1`` draws
      nothing.

    :meth:`begin` fetches ``block`` words with ``random_raw`` (refetching
    when they run out); :meth:`end` rewinds the unused words with a
    negative ``advance``, which PCG64 performs exactly, and writes the
    half-word carry back.
    """

    def __init__(self, rng: RngStream, block: int = 1024) -> None:
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(
                f"WordReplay needs a PCG64 bit generator, got {type(bitgen).__name__}"
            )
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._bitgen = bitgen
        self._block = int(block)
        self._words: list[int] = []
        self._doubles: list[float] = []
        self._pos = 0
        self._has32 = 0
        self._carry = 0

    def _fetch(self) -> None:
        raw = self._bitgen.random_raw(self._block)
        self._words = raw.tolist()
        self._doubles = ((raw >> np.uint64(11)) * 2.0**-53).tolist()
        self._pos = 0

    def begin(self) -> None:
        """Open the replay at the generator's current position."""
        state = self._bitgen.state
        self._has32 = state["has_uint32"]
        self._carry = state["uinteger"]
        self._fetch()

    def end(self) -> None:
        """Rewind the unused words and hand the stream back to ``rng``."""
        self._bitgen.advance(self._pos - len(self._words))
        state = self._bitgen.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._carry
        self._bitgen.state = state
        self._words = self._doubles = []
        self._pos = 0

    def random(self) -> float:
        """``rng.random()``."""
        pos = self._pos
        if pos == len(self._doubles):
            self._fetch()
            pos = 0
        self._pos = pos + 1
        return self._doubles[pos]

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._carry
        pos = self._pos
        if pos == len(self._words):
            self._fetch()
            pos = 0
        self._pos = pos + 1
        word = self._words[pos]
        self._has32 = 1
        self._carry = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, m: int) -> int:
        """``int(rng.integers(0, m))`` for ``1 <= m < 2**32``."""
        if not 1 <= m < 0x100000000:
            raise ValueError(f"bound must be in [1, 2**32), got {m}")
        if m == 1:
            return 0
        x = self._next32() * m
        if (x & 0xFFFFFFFF) < m:
            threshold = (0x100000000 - m) % m
            while (x & 0xFFFFFFFF) < threshold:
                x = self._next32() * m
        return x >> 32
