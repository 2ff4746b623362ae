"""Batched query-cycle engine — the vectorised simulation hot path.

The seed implementation of :meth:`repro.p2p.simulator.Simulation` walks a
Python loop over all peers and, for every active client, pays for

* one ``Generator.choice(interests, p=zipf)`` (~16 µs: numpy rebuilds the
  cumulative distribution on every call), and
* one :func:`repro.p2p.selection.select_server` (three boolean gathers plus
  another ``choice``), and
* four Python-level ledger/metric ``record`` calls.

:class:`BatchedQueryEngine` removes all of that **without changing a single
random draw**.  Three observations make this possible:

1. Every per-request draw is replayed from raw generator words.
   ``Generator.choice`` is exactly replicable with cheaper primitives:
   ``choice(a)`` consumes one bounded ``integers(0, a.size)`` draw, and
   ``choice(a, p=p)`` computes ``cdf = p.cumsum(); cdf /= cdf[-1]`` and
   inverts one ``random()`` draw with ``cdf.searchsorted(u, 'right')``.
   Pre-computing the cumulative weights once (per node for the Zipf
   interest choice, per interest group for reputation-weighted selection)
   and inverting with :func:`bisect.bisect_right` yields the identical
   server for the identical stream position.  The ``random()`` and
   ``integers(0, m)`` draws themselves come from a
   :class:`~repro.utils.rng.WordReplay`: one block of raw PCG64 words per
   query cycle, decoded the way numpy's ``Generator`` decodes them
   (53-bit doubles, Lemire bounded integers on buffered 32-bit halves)
   and rewound to the exact stream position when the cycle ends.  The
   collusion bursts draw on the same open replay: each schedule's
   :meth:`~repro.collusion.models.CollusionSchedule.draw_cycle` makes its
   interest, victim and count choices through ``integers(m)``, so the
   replay stays open through them and no burst object is built.  The
   simulation's generator must therefore be PCG64 —
   :func:`~repro.utils.rng.spawn_rng` and ``default_rng`` always are; any
   other bit generator is rejected at construction.

2. Reputations only change at simulation-cycle boundaries, so the
   available/qualified provider sets of every interest group are constant
   within an interval — except for capacity exhaustion.
   :meth:`BatchedQueryEngine.run_interval` hoists those structures once
   per simulation cycle.

3. Capacity exhaustion is *monotone* within a query cycle (capacity never
   replenishes mid-cycle), so instead of re-filtering candidates per
   request, the engine removes a server from its interests' sorted
   candidate lists the moment its capacity hits zero and rebuilds the
   affected weighted cdfs from the surviving weights (``np.delete`` keeps
   the exact doubles a fresh gather would produce).  Per-request selection
   is then a couple of list lookups and one bisect, regardless of how
   saturated the cycle gets.

Ratings are read only at the reputation update that ends a simulation
cycle, so outcomes and collusion bursts are buffered for the whole
interval, each query cycle's requests followed by its bursts, and
written once before the rating ledger is drained: one ``record_many`` per
rating and interaction ledger, one ``record_requests`` each for the
interest profiles and the metrics, and one ``record_unserved_many``.
``np.add.at`` is unbuffered and applied in the seed's order, and the
increments are exact ``float64`` integers, so batching preserves
bit-identity as well; the interaction ledger's dirty rows per interval
are the same set, so the Ωc cache makes the same rebuild-or-patch choice.

A network partition is one more candidate filter.  The injector's side
mask is fixed for an interval, so :meth:`BatchedQueryEngine.run_interval`
hoists the structures per (side, interest): side 0 keeps the plain
interest offsets ``[0, k)``, side 1 lives at ``[k, 2k)``, and a client on
side 1 draws from interest lists shifted by ``k``.  Capacity exhaustion
patches only the exhausted server's own side, and a cross-side collusion
burst is skipped and counted as a partition block.  A partition-free
interval builds only the side-0 structures, so its hot loop is unchanged.

The seed per-client loop lives on as a test-only oracle
(:mod:`repro.qa.oracle`); the property tests, ``repro qa diff`` and the
engine benchmark compare against it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import Protocol

import numpy as np

from repro.collusion.models import CollusionSchedule
from repro.faults.injector import FaultInjector
from repro.obs import NULL_TRACER, Observability
from repro.p2p.metrics import MetricsCollector
from repro.p2p.network import InterestOverlay
from repro.p2p.node import Population
from repro.p2p.selection import SelectionPolicy
from repro.reputation.ledger import RatingLedger
from repro.social.interactions import InteractionLedger
from repro.social.interests import InterestProfiles
from repro.utils.rng import RngStream, WordReplay

__all__ = ["BatchedQueryEngine", "LedgerObserver"]


class LedgerObserver(Protocol):
    """Receives every behavioural-ledger mutation a simulation makes.

    ``flushed`` gets each query cycle's rows, once per non-empty query
    cycle in cycle order, when the engine writes the interval at the end
    of the simulation cycle: the first ``len(interests)`` rows are
    serviced requests (count 1, interest ``interests[i]``), the rest are
    collusion bursts.  Concatenated, the cycles' columns are exactly the
    rows the ledgers were given, in the same order, so a recorded stream
    replays in ledger write order.  ``decayed`` gets each churn
    ``decay_nodes`` call, made before the interval's query cycles.  The
    arrays are views of the ones the ledgers were given; do not modify
    them.
    """

    def flushed(
        self,
        raters: np.ndarray,
        ratees: np.ndarray,
        values: np.ndarray,
        counts: np.ndarray,
        interests: np.ndarray,
    ) -> None: ...

    def decayed(self, nodes: np.ndarray, factor: float) -> None: ...


class BatchedQueryEngine:
    """The simulation's query-cycle loop.

    Consumes the simulation's :class:`~repro.utils.rng.RngStream` in
    exactly the seed order; see the module docstring for why the streams
    stay aligned.  :meth:`run_interval` runs one simulation cycle's query
    cycles (after fault-injector advance/decay) and writes their rows to
    the ledgers.
    """

    def __init__(
        self,
        population: Population,
        overlay: InterestOverlay,
        rng: RngStream,
        *,
        threshold: float,
        policy: SelectionPolicy,
        exploration: float,
        interest_choices: list[np.ndarray],
        interest_weights: list[np.ndarray],
        ledger: RatingLedger,
        interactions: InteractionLedger,
        profiles: InterestProfiles,
        metrics: MetricsCollector,
        collusion: CollusionSchedule,
        injector: FaultInjector | None,
        observability: Observability | None = None,
    ) -> None:
        self._n = population.n_nodes
        self._rng = rng
        # A client draws at most four words per query cycle (interest,
        # exploration, server, rating outcome), bar Lemire rejections.
        self._replay = WordReplay(rng, block=4 * self._n)
        # Observability hooks.  With no bundle attached the tracer is the
        # shared no-op and every phase costs one null context manager; the
        # per-request paths additionally gate on ``_trace_on`` so timing
        # calls vanish entirely (the ≤5% budget of the obs benchmark).
        self._obs = observability
        self._tracer = observability.tracer if observability is not None else NULL_TRACER
        self._trace_on = self._tracer.enabled
        self._cache_patch_s = 0.0
        self._threshold = float(threshold)
        self._policy = policy
        self._exploration = float(exploration)
        self._ledger = ledger
        self._interactions = interactions
        self._profiles = profiles
        self._metrics = metrics
        self._collusion = collusion
        self._injector = injector
        #: Optional :class:`LedgerObserver` fed every flushed query cycle.
        self.observer: LedgerObserver | None = None
        # One interval's rows, written by _flush(): requests and bursts
        # per query cycle in cycle order, the requests' slots, the
        # unserved clients, and (row start, requests, row end) per cycle.
        # Empty outside run_interval().
        self._raters: list[int] = []
        self._ratees: list[int] = []
        self._values: list[float] = []
        self._counts: list[int] = []
        self._slots: list[int] = []
        self._unserved: list[int] = []
        self._cycles: list[tuple[int, int, int]] = []

        self._capacities = population.capacities
        self._capacity_list: list[int] = population.capacities.tolist()
        self._activity = population.activity_probs
        self._authentic: list[float] = population.authentic_probs.tolist()

        membership = overlay.interest_membership()
        k = overlay.n_interests
        self._k = k
        self._all_providers = [np.flatnonzero(membership[:, li]) for li in range(k)]
        self._node_interests: list[list[int]] = [
            np.flatnonzero(membership[i]).tolist() for i in range(self._n)
        ]

        # Replicate ``choice(interests, p=weights)``: numpy's internal cdf
        # is weights.cumsum() normalised by its last entry.
        self._choice_lists: list[list[int]] = [c.tolist() for c in interest_choices]
        self._cdf_lists: list[list[float]] = []
        for w in interest_weights:
            cdf = w.cumsum()
            cdf /= cdf[-1]
            self._cdf_lists.append(cdf.tolist())

        # Interval masters, populated by _begin_interval(); per-query-cycle
        # working copies diverge from them only on capacity exhaustion and
        # are restored lazily at the next cycle start.  All per-interest
        # structures are indexed by slot ``side * k + interest``; without
        # a partition every node is on side 0, so slot == interest and the
        # slot views below are the plain interest lists.
        self._churned = False
        self._online: np.ndarray | None = None
        self._side: np.ndarray | None = None
        self._slot_choices: list[list[int]] = self._choice_lists
        self._node_slots: list[list[int]] = self._node_interests
        self._q_list: list[bool] = []
        self._m_avail: list[list[int]] = []
        self._m_qual: list[list[int]] = []
        self._m_qual_w: list[np.ndarray] = []
        self._m_qual_total: list[float] = []
        self._m_qual_cdf: list[list[float]] = []
        self._avail: list[list[int]] = []
        self._qual: list[list[int]] = []
        self._qual_w: list[np.ndarray] = []
        self._qual_total: list[float] = []
        self._qual_cdf: list[list[float]] = []
        self._modified: set[int] = set()

    # -- one simulation cycle --------------------------------------------------

    def run_interval(self, reputations: np.ndarray, query_cycles: int) -> None:
        """Run one simulation cycle's ``query_cycles`` query cycles.

        Reputations, the churn mask and the partition sides are constant
        between reputation updates, so available, qualified and
        weighted-cdf structures are built once here instead of once per
        request (call after the fault injector's advance and decay).  The
        cycles' rows are written to the ledgers before this returns, so
        the interval is complete and the buffers are empty whenever the
        caller drains the rating ledger or takes a checkpoint.
        """
        with self._tracer.span("engine.candidate_build", interests=self._k):
            self._begin_interval(reputations)
        try:
            for _ in range(query_cycles):
                self._run_query_cycle()
            self._flush()
        finally:
            self._raters, self._ratees, self._values, self._counts = [], [], [], []
            self._slots, self._unserved, self._cycles = [], [], []

    def _begin_interval(self, reputations: np.ndarray) -> None:
        reps = np.asarray(reputations, dtype=np.float64)
        injector = self._injector
        online = injector.online_mask if injector is not None else None
        self._online = online
        self._churned = online is not None and not online.all()
        side = (
            injector.partition_mask.astype(np.int64)
            if injector is not None and injector.partition_active
            else None
        )
        self._side = side
        providers = self._all_providers
        if side is None:
            self._slot_choices = self._choice_lists
            self._node_slots = self._node_interests
        else:
            offset = (side * self._k).tolist()
            self._slot_choices = [
                [offset[c] + li for li in choices]
                for c, choices in enumerate(self._choice_lists)
            ]
            self._node_slots = [
                [offset[s] + li for li in interests]
                for s, interests in enumerate(self._node_interests)
            ]
            providers = [prov[side[prov] == s] for s in (0, 1) for prov in providers]
        q_mask = reps > self._threshold
        self._q_list = q_mask.tolist()

        weighted = self._policy is SelectionPolicy.REPUTATION_WEIGHTED
        threshold_based = self._policy is not SelectionPolicy.RANDOM
        self._m_avail = []
        self._m_qual = []
        self._m_qual_w = []
        self._m_qual_total = []
        self._m_qual_cdf = []
        for prov in providers:
            if self._churned:
                prov = prov[online[prov]]
            # Providers whose total capacity is zero can never clear the
            # seed's remaining-capacity filter; exclude them outright.
            avail = prov[self._capacities[prov] > 0]
            self._m_avail.append(avail.tolist())
            if not threshold_based:
                continue
            qual = avail[q_mask[avail]]
            self._m_qual.append(qual.tolist())
            if not weighted:
                continue
            w = reps[qual]
            total = float(w.sum())
            self._m_qual_w.append(w)
            self._m_qual_total.append(total)
            if qual.size and total > 0:
                # Same float sequence as select_server + Generator.choice:
                # p = w / total; cdf = p.cumsum(); cdf /= cdf[-1].
                cdf = (w / total).cumsum()
                cdf /= cdf[-1]
                self._m_qual_cdf.append(cdf.tolist())
            else:
                self._m_qual_cdf.append([])
        self._avail = [list(x) for x in self._m_avail]
        self._qual = [list(x) for x in self._m_qual]
        self._qual_w = list(self._m_qual_w)
        self._qual_total = list(self._m_qual_total)
        self._qual_cdf = list(self._m_qual_cdf)
        self._modified = set()

    def _restore_modified(self) -> None:
        """Reset the working candidate structures of slots touched by
        capacity exhaustion back to the interval masters."""
        threshold_based = self._policy is not SelectionPolicy.RANDOM
        weighted = self._policy is SelectionPolicy.REPUTATION_WEIGHTED
        for li in self._modified:
            self._avail[li] = list(self._m_avail[li])
            if threshold_based:
                self._qual[li] = list(self._m_qual[li])
            if weighted:
                self._qual_w[li] = self._m_qual_w[li]
                self._qual_total[li] = self._m_qual_total[li]
                self._qual_cdf[li] = self._m_qual_cdf[li]
        self._modified.clear()

    def _exhaust_server(self, server: int) -> None:
        """Drop a capacity-exhausted server from its own side's candidate
        structures; weighted cdfs are rebuilt with the exact float sequence
        the seed would produce over the surviving candidates."""
        if self._trace_on:
            start = perf_counter()
            try:
                self._exhaust_server_inner(server)
            finally:
                self._cache_patch_s += perf_counter() - start
            return
        self._exhaust_server_inner(server)

    def _exhaust_server_inner(self, server: int) -> None:
        q = self._q_list[server]
        threshold_based = self._policy is not SelectionPolicy.RANDOM
        weighted = self._policy is SelectionPolicy.REPUTATION_WEIGHTED
        for li in self._node_slots[server]:
            self._modified.add(li)
            al = self._avail[li]
            del al[bisect_left(al, server)]
            if not (threshold_based and q):
                continue
            ql = self._qual[li]
            qpos = bisect_left(ql, server)
            del ql[qpos]
            if not weighted:
                continue
            w = np.delete(self._qual_w[li], qpos)
            self._qual_w[li] = w
            total = float(w.sum())
            self._qual_total[li] = total
            if w.size and total > 0:
                cdf = (w / total).cumsum()
                cdf /= cdf[-1]
                self._qual_cdf[li] = cdf.tolist()
            else:
                self._qual_cdf[li] = []

    # -- the hot loop ------------------------------------------------------------

    def _run_query_cycle(self) -> None:
        """One query cycle, bit-identical to the seed scalar loop.

        Phase timings (candidate-build lives in :meth:`run_interval`):

        * ``engine.cache_patch`` — master-restore at cycle start plus the
          per-exhaustion candidate-list patching, accumulated across the
          cycle and emitted as one pre-measured span;
        * ``engine.selection``   — the per-client loop, minus the cache
          patching it triggered (phases stay additive).

        All timing is gated on ``_trace_on``; with tracing disabled the
        cycle runs the exact untimed path.
        """
        trace_on = self._trace_on
        rng = self._rng
        n = self._n
        active_draw = rng.random(n)
        left_cap = self._capacity_list.copy()
        online = self._online
        churned = self._churned
        if trace_on:
            self._cache_patch_s = 0.0
        if self._modified:
            if trace_on:
                start = perf_counter()
                self._restore_modified()
                self._cache_patch_s += perf_counter() - start
            else:
                self._restore_modified()
        skip = active_draw >= self._activity
        if churned:
            skip |= ~online
        skip_list = skip.tolist()
        perm = rng.permutation(n).tolist()
        # Every per-request draw below, and the collusion bursts' draws
        # after the loop, come from the raw-word replay.  It is opened
        # after the Generator's array draws (the permutation may leave a
        # half word buffered, which begin() picks up) and closed at the
        # end of the cycle.
        replay = self._replay
        replay.begin()

        random_policy = self._policy is SelectionPolicy.RANDOM
        weighted = self._policy is SelectionPolicy.REPUTATION_WEIGHTED
        exploration = self._exploration
        explore = exploration > 0.0 and not random_policy
        rnd = replay.random
        rint = replay.integers
        choice_lists = self._slot_choices
        cdf_lists = self._cdf_lists
        avail_cur = self._avail
        qual_cur = self._qual
        qual_w_cur = self._qual_w
        qual_total_cur = self._qual_total
        qual_cdf_cur = self._qual_cdf
        q_list = self._q_list
        authentic = self._authentic

        # The interval's row buffers: this cycle's requests, then its
        # bursts, behind the earlier cycles' rows.
        ev_raters = self._raters
        ev_ratees = self._ratees
        ev_values = self._values
        ev_slots = self._slots
        unserved = self._unserved
        row_start = len(ev_raters)
        unserved_start = len(unserved)

        cache_before = self._cache_patch_s
        selection_start = perf_counter() if trace_on else 0.0
        for client in perm:
            if skip_list[client]:
                continue
            choices = choice_lists[client]
            if len(choices) == 1:
                slot = choices[0]
            else:
                slot = choices[bisect_right(cdf_lists[client], rnd())]
            al = avail_cur[slot]
            sz = len(al)
            pos = bisect_left(al, client)
            present = pos < sz and al[pos] == client
            m = sz - 1 if present else sz
            if m <= 0:
                unserved.append(client)
                continue
            if random_policy or (explore and rnd() < exploration):
                idx = rint(m)
                server = al[idx] if not present or idx < pos else al[idx + 1]
            else:
                ql = qual_cur[slot]
                qsz = len(ql)
                if qsz and q_list[client]:
                    qpos = bisect_left(ql, client)
                    qpresent = qpos < qsz and ql[qpos] == client
                else:
                    qpos = 0
                    qpresent = False
                eff_q = qsz - 1 if qpresent else qsz
                if eff_q == 0:
                    idx = rint(m)
                    server = al[idx] if not present or idx < pos else al[idx + 1]
                elif not weighted:
                    idx = rint(eff_q)
                    server = ql[idx] if not qpresent or idx < qpos else ql[idx + 1]
                elif qpresent:
                    w = np.delete(qual_w_cur[slot], qpos)
                    total = w.sum()
                    if total <= 0:
                        idx = rint(eff_q)
                        server = ql[idx] if idx < qpos else ql[idx + 1]
                    else:
                        cdf = (w / total).cumsum()
                        cdf /= cdf[-1]
                        idx = int(cdf.searchsorted(rnd(), side="right"))
                        server = ql[idx] if idx < qpos else ql[idx + 1]
                elif qual_total_cur[slot] <= 0.0:
                    server = ql[rint(eff_q)]
                else:
                    server = ql[bisect_right(qual_cdf_cur[slot], rnd())]
            left = left_cap[server] - 1
            left_cap[server] = left
            if left == 0:
                self._exhaust_server(server)
            value = 1.0 if rnd() < authentic[server] else -1.0
            ev_raters.append(client)
            ev_ratees.append(server)
            ev_values.append(value)
            ev_slots.append(slot)
        served = len(ev_raters) - row_start
        if trace_on:
            patched = self._cache_patch_s - cache_before
            self._tracer.record(
                "engine.selection",
                perf_counter() - selection_start - patched,
                served=served,
                unserved=len(unserved) - unserved_start,
            )

        # Collusion bursts: same order and semantics as the seed loop,
        # drawn on the open replay.  A burst's ratings and interactions
        # follow the cycle's requests, so every ledger sees the seed's
        # increment order.
        raters, ratees, values, counts, _ = self._collusion.draw_cycle(rint)
        replay.end()
        side = self._side
        if raters and (churned or side is not None):
            r = np.asarray(raters, dtype=np.int64)
            e = np.asarray(ratees, dtype=np.int64)
            keep = online[r] & online[e] if churned else np.ones(r.size, dtype=bool)
            if side is not None:
                cross = keep & (side[r] != side[e])
                blocked = int(cross.sum())
                if blocked:
                    self._metrics.faults.record_partition_block(blocked)
                    keep &= ~cross
            kept = np.flatnonzero(keep).tolist()
            raters = [raters[t] for t in kept]
            ratees = [ratees[t] for t in kept]
            values = [values[t] for t in kept]
            counts = [counts[t] for t in kept]
        ev_counts = self._counts
        ev_counts += [1] * served
        ev_raters += raters
        ev_ratees += ratees
        ev_values += values
        ev_counts += counts
        self._cycles.append((row_start, served, len(ev_raters)))
        if trace_on and self._cache_patch_s:
            self._tracer.record("engine.cache_patch", self._cache_patch_s)

    def _flush(self) -> None:
        """Write the interval's rows: one batched call per ledger.

        ``np.add.at`` applies the increments unbuffered in row order, and
        every increment is an exact ``float64`` integer, so one write per
        interval leaves each ledger bitwise where one write per query
        cycle did; the interaction ledger's dirty rows are the same set.
        The observer still sees each query cycle's rows on their own.
        """
        trace_on = self._trace_on
        if trace_on:
            flush_start = perf_counter()
        served = len(self._slots)
        if self._raters:
            raters = np.asarray(self._raters, dtype=np.int64)
            ratees = np.asarray(self._ratees, dtype=np.int64)
            values = np.asarray(self._values, dtype=np.float64)
            counts = np.asarray(self._counts, dtype=np.float64)
            self._ledger.record_many(raters, ratees, values, counts)
            self._interactions.record_many(raters, ratees, counts)
            interests = np.asarray(self._slots, dtype=np.int64)
            if self._side is not None:
                interests %= self._k
            if served:
                requests = np.zeros(raters.size, dtype=bool)
                for start, n_served, _ in self._cycles:
                    requests[start:start + n_served] = True
                clients = raters[requests]
                self._profiles.record_requests(clients, interests)
                self._metrics.record_requests(clients, ratees[requests])
            observer = self.observer
            if observer is not None:
                first = 0
                for start, n_served, end in self._cycles:
                    if end > start:
                        observer.flushed(
                            raters[start:end],
                            ratees[start:end],
                            values[start:end],
                            counts[start:end],
                            interests[first:first + n_served],
                        )
                    first += n_served
        if self._unserved:
            self._metrics.record_unserved_many(
                np.asarray(self._unserved, dtype=np.int64)
            )
        if trace_on:
            self._tracer.record("engine.rating_flush", perf_counter() - flush_start)
        if self._obs is not None:
            metrics = self._obs.metrics
            metrics.counter("engine.requests.served").inc(served)
            metrics.counter("engine.requests.unserved").inc(len(self._unserved))
