"""Tests for the interaction-frequency ledger."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.social.interactions import InteractionLedger


class TestInteractionLedger:
    def test_initial_empty(self):
        ledger = InteractionLedger(3)
        assert ledger.frequency(0, 1) == 0.0
        assert ledger.total_out(0) == 0.0
        assert ledger.share(0, 1) == 0.0

    def test_record_accumulates(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1)
        ledger.record(0, 1, 2.0)
        assert ledger.frequency(0, 1) == 3.0

    def test_directed(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1, 5.0)
        assert ledger.frequency(1, 0) == 0.0

    def test_share_normalises_by_row(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1, 3.0)
        ledger.record(0, 2, 1.0)
        assert ledger.share(0, 1) == pytest.approx(0.75)
        assert ledger.share(0, 2) == pytest.approx(0.25)

    def test_share_invariant_pumping_one_dilutes_others(self):
        """The Eq. (2) anti-gaming property: raising f(i,j) lowers every
        other partner's share."""
        ledger = InteractionLedger(4)
        ledger.record(0, 1, 5.0)
        ledger.record(0, 2, 5.0)
        before = ledger.share(0, 2)
        ledger.record(0, 1, 100.0)
        assert ledger.share(0, 2) < before

    def test_share_matrix_rows_sum_to_one_or_zero(self):
        ledger = InteractionLedger(4)
        ledger.record(0, 1, 2.0)
        ledger.record(2, 3, 1.0)
        rows = ledger.share_matrix().sum(axis=1)
        assert rows[0] == pytest.approx(1.0)
        assert rows[1] == 0.0
        assert rows[2] == pytest.approx(1.0)

    def test_rejects_self_interaction(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record(1, 1)

    def test_rejects_non_positive_count(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record(0, 1, 0.0)

    def test_counts_matrix_read_only(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.counts_matrix()[0, 1] = 1.0

    def test_reset(self):
        ledger = InteractionLedger(3)
        ledger.record(0, 1)
        ledger.reset()
        assert ledger.total_out(0) == 0.0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            InteractionLedger(0)

    @given(
        counts=st.lists(
            st.tuples(
                st.integers(0, 4), st.integers(0, 4), st.floats(0.1, 10.0)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_shares_are_probabilities(self, counts):
        ledger = InteractionLedger(5)
        for i, j, c in counts:
            if i != j:
                ledger.record(i, j, c)
        m = ledger.share_matrix()
        assert np.all(m >= 0)
        assert np.all(m <= 1 + 1e-12)
        row_sums = m.sum(axis=1)
        assert np.all((np.abs(row_sums - 1) < 1e-9) | (row_sums == 0))


class TestDecayNodes:
    def _ledger(self):
        ledger = InteractionLedger(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    ledger.record(i, j, 8.0)
        return ledger

    def test_decays_rows_and_columns(self):
        ledger = self._ledger()
        ledger.decay_nodes(np.array([1]), 0.5)
        assert ledger.frequency(1, 0) == pytest.approx(4.0)
        assert ledger.frequency(0, 1) == pytest.approx(4.0)
        # Pairs not touching node 1 are untouched.
        assert ledger.frequency(2, 3) == pytest.approx(8.0)

    def test_offline_offline_pairs_decay_squared(self):
        ledger = self._ledger()
        ledger.decay_nodes(np.array([1, 2]), 0.5)
        assert ledger.frequency(1, 2) == pytest.approx(2.0)
        assert ledger.frequency(2, 1) == pytest.approx(2.0)
        assert ledger.frequency(1, 3) == pytest.approx(4.0)

    def test_factor_one_is_noop(self):
        ledger = self._ledger()
        before = ledger.counts_matrix()
        ledger.decay_nodes(np.array([0, 1]), 1.0)
        assert np.array_equal(ledger.counts_matrix(), before)

    def test_empty_nodes_is_noop(self):
        ledger = self._ledger()
        before = ledger.counts_matrix()
        ledger.decay_nodes(np.array([], dtype=np.int64), 0.5)
        assert np.array_equal(ledger.counts_matrix(), before)

    def test_rejects_bad_factor(self):
        ledger = self._ledger()
        with pytest.raises(ValueError):
            ledger.decay_nodes(np.array([0]), 1.5)
        with pytest.raises(ValueError):
            ledger.decay_nodes(np.array([0]), -0.1)


class TestRecordMany:
    def test_equivalent_to_scalar_loop(self):
        raters = np.array([0, 1, 0, 2, 0])
        ratees = np.array([1, 2, 1, 0, 3])
        batched = InteractionLedger(4)
        batched.record_many(raters, ratees)
        scalar = InteractionLedger(4)
        for i, j in zip(raters, ratees):
            scalar.record(int(i), int(j))
        assert np.array_equal(batched.counts_matrix(), scalar.counts_matrix())

    def test_explicit_counts(self):
        ledger = InteractionLedger(3)
        ledger.record_many(np.array([0, 0]), np.array([1, 2]), np.array([2.0, 5.0]))
        assert ledger.frequency(0, 1) == 2.0
        assert ledger.frequency(0, 2) == 5.0

    def test_self_pairs_rejected(self):
        ledger = InteractionLedger(3)
        with pytest.raises(ValueError):
            ledger.record_many(np.array([0, 1]), np.array([1, 1]))

    def test_empty_batch_is_noop(self):
        ledger = InteractionLedger(3)
        version = ledger.version
        ledger.record_many(np.array([], dtype=int), np.array([], dtype=int))
        assert ledger.version == version


class TestSharePairs:
    N = 1000
    PAIRS = 5000

    def _ledger_and_pairs(self):
        rng = np.random.default_rng(0)
        ledger = InteractionLedger(self.N)
        i = rng.integers(0, self.N, 20000)
        ledger.record_many(i, (i + rng.integers(1, self.N, i.size)) % self.N)
        raters = rng.integers(0, self.N, self.PAIRS)
        ratees = (raters + rng.integers(1, self.N, self.PAIRS)) % self.N
        ledger.record(int(raters[0]), int(ratees[0]))
        return ledger, raters, ratees

    def test_bitwise_equal_to_scalar_share(self):
        ledger, raters, ratees = self._ledger_and_pairs()
        got = ledger.share_pairs(raters, ratees)
        want = np.array(
            [ledger.share(int(i), int(j)) for i, j in zip(raters, ratees)]
        )
        assert np.array_equal(got, want)

    def test_memory_is_linear_in_nodes_plus_pairs(self):
        """A count row per pair would peak at ``8 * N * PAIRS`` bytes (40 MB
        here); the row totals gathered once keep the peak to a few words
        per node and per pair."""
        ledger, raters, ratees = self._ledger_and_pairs()
        tracemalloc.start()
        try:
            ledger.share_pairs(raters, ratees)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (self.N + self.PAIRS)


class TestVersionTracking:
    def test_record_bumps_version_and_marks_row(self):
        ledger = InteractionLedger(4)
        version = ledger.version
        ledger.record(2, 0)
        assert ledger.version > version
        assert ledger.rows_changed_since(version).tolist() == [2]

    def test_decay_marks_raters_of_decayed_columns(self):
        ledger = InteractionLedger(4)
        ledger.record(0, 1)
        ledger.record(3, 1)
        version = ledger.version
        ledger.decay_nodes(np.array([1]), 0.5)
        changed = set(ledger.rows_changed_since(version).tolist())
        # Node 1's own row plus every rater whose column-1 entry rescaled.
        assert changed == {0, 1, 3}


class TestSparseInteractionLedger:
    """The CSR ledger must mirror the dense ledger's observable semantics."""

    def _twin(self, n=6):
        from repro.social.interactions import SparseInteractionLedger

        return InteractionLedger(n), SparseInteractionLedger(n)

    def _hammer(self, dense, sp, seed=0):
        rng = np.random.default_rng(seed)
        for step in range(60):
            i, j = (int(v) for v in rng.integers(0, 6, 2))
            if i != j:
                count = float(rng.integers(1, 4))
                dense.record(i, j, count)
                sp.record(i, j, count)
            if step % 7 == 0:
                nodes = np.unique(rng.integers(0, 6, 2))
                dense.decay_nodes(nodes, 0.5)
                sp.decay_nodes(nodes, 0.5)

    def test_matches_dense_after_mixed_traffic(self):
        dense, sp = self._twin()
        self._hammer(dense, sp)
        np.testing.assert_allclose(
            sp.counts_matrix(), dense.counts_matrix(), atol=1e-12
        )
        np.testing.assert_allclose(
            sp.share_matrix(), dense.share_matrix(), atol=1e-12
        )
        for i in range(6):
            assert sp.total_out(i) == pytest.approx(dense.total_out(i))
            for j in range(6):
                assert sp.frequency(i, j) == pytest.approx(dense.frequency(i, j))
                assert sp.share(i, j) == pytest.approx(dense.share(i, j))

    def test_version_protocol_matches_dense(self):
        dense, sp = self._twin()
        v_dense, v_sp = dense.version, sp.version
        dense.record(2, 0)
        sp.record(2, 0)
        assert sp.rows_changed_since(v_sp).tolist() == \
            dense.rows_changed_since(v_dense).tolist() == [2]

    def test_decay_touches_raters_of_decayed_columns(self):
        dense, sp = self._twin()
        for ledger in (dense, sp):
            ledger.record(0, 1)
            ledger.record(3, 1)
        v_dense, v_sp = dense.version, sp.version
        dense.decay_nodes(np.array([1]), 0.5)
        sp.decay_nodes(np.array([1]), 0.5)
        assert set(sp.rows_changed_since(v_sp).tolist()) == \
            set(dense.rows_changed_since(v_dense).tolist()) == {0, 1, 3}

    def test_share_pairs_samples_share_matrix(self):
        dense, sp = self._twin()
        self._hammer(dense, sp, seed=3)
        raters = np.array([0, 1, 2, 4])
        ratees = np.array([1, 0, 5, 2])
        want = dense.share_matrix()[raters, ratees]
        np.testing.assert_allclose(sp.share_pairs(raters, ratees), want, atol=1e-12)
        np.testing.assert_allclose(
            dense.share_pairs(raters, ratees), want, atol=1e-12
        )

    def test_validation_matches_dense(self):
        _, sp = self._twin()
        with pytest.raises(ValueError):
            sp.record(1, 1)
        with pytest.raises(ValueError):
            sp.record(0, 1, -2.0)
        with pytest.raises(ValueError):
            sp.record_many(np.array([0, 1]), np.array([1, 1]))

    def test_state_roundtrip(self):
        from repro.social.interactions import SparseInteractionLedger

        dense, sp = self._twin()
        self._hammer(dense, sp, seed=5)
        other = SparseInteractionLedger(6)
        other.restore_state(sp.state_dict())
        np.testing.assert_array_equal(other.counts_matrix(), sp.counts_matrix())
        assert other.version == sp.version

    def test_restore_rejects_wrong_shape(self):
        from scipy import sparse

        from repro.social.interactions import SparseInteractionLedger

        _, sp = self._twin()
        state = sp.state_dict()
        state["counts_csr"] = sparse.csr_matrix((7, 7))
        with pytest.raises(ValueError):
            SparseInteractionLedger(6).restore_state(state)

    def test_reset_clears_everything(self):
        _, sp = self._twin()
        sp.record(0, 1, 2.0)
        sp.reset()
        assert sp.total_out(0) == 0.0
        assert sp.counts_matrix().sum() == 0.0
