"""Tests for interest profiles (declared vs behavioural)."""

import numpy as np
import pytest

from repro.social.interests import InterestProfiles


@pytest.fixture
def profiles():
    p = InterestProfiles(4, 6)
    p.set_declared(0, {0, 1, 2})
    p.set_declared(1, {2, 3})
    p.set_declared(2, {4})
    p.set_declared(3, {0, 5})
    return p


class TestDeclared:
    def test_set_and_get(self, profiles):
        assert profiles.declared(0) == frozenset({0, 1, 2})

    def test_replaces_previous(self, profiles):
        profiles.set_declared(0, {5})
        assert profiles.declared(0) == frozenset({5})

    def test_rejects_empty(self, profiles):
        with pytest.raises(ValueError):
            profiles.set_declared(0, [])

    def test_rejects_out_of_range(self, profiles):
        with pytest.raises(ValueError):
            profiles.set_declared(0, {6})

    def test_declared_matrix(self, profiles):
        m = profiles.declared_matrix()
        assert m.shape == (4, 6)
        assert m[1, 2] and m[1, 3]
        assert m[1].sum() == 2

    def test_declared_matrix_cached_until_declared_changes(self, profiles):
        m = profiles.declared_matrix()
        assert not m.flags.writeable
        assert profiles.declared_matrix() is m
        profiles.record_request(0, 5)
        assert profiles.declared_matrix() is m
        profiles.set_declared(2, {1, 5})
        fresh = profiles.declared_matrix()
        assert fresh[2].tolist() == [False, True, False, False, False, True]
        assert fresh[:2].tolist() == m[:2].tolist()

    def test_declared_matrix_follows_restore(self, profiles):
        other = InterestProfiles(4, 6)
        for node in range(4):
            other.set_declared(node, {node})
        profiles.declared_matrix()
        # Same declared_version, different sets: the cache must not key
        # on the version alone across a restore.
        assert other.declared_version == profiles.declared_version
        profiles.restore_state(other.state_dict())
        assert profiles.declared_matrix().tolist() == np.eye(4, 6, dtype=bool).tolist()


class TestRequests:
    def test_record_and_weights(self, profiles):
        profiles.record_request(0, 1, 3.0)
        profiles.record_request(0, 2, 1.0)
        w = profiles.request_weights(0)
        assert w[1] == pytest.approx(0.75)
        assert w[2] == pytest.approx(0.25)
        assert w.sum() == pytest.approx(1.0)

    def test_no_requests_zero_weights(self, profiles):
        assert np.all(profiles.request_weights(0) == 0.0)

    def test_rejects_bad_interest(self, profiles):
        with pytest.raises(ValueError):
            profiles.record_request(0, 6)

    def test_rejects_non_positive_count(self, profiles):
        with pytest.raises(ValueError):
            profiles.record_request(0, 1, 0)

    def test_behavioural_interests(self, profiles):
        profiles.record_request(0, 5)
        assert profiles.behavioural_interests(0) == frozenset({5})

    def test_behavioural_can_diverge_from_declared(self, profiles):
        """Falsified profiles cannot hide real request behaviour."""
        profiles.set_declared(0, {0})
        profiles.record_request(0, 3, 10.0)
        assert 3 in profiles.behavioural_interests(0)
        assert 3 not in profiles.declared(0)

    def test_weight_matrix_rows(self, profiles):
        profiles.record_request(1, 2, 2.0)
        m = profiles.request_weight_matrix()
        assert m[1, 2] == pytest.approx(1.0)
        assert m[0].sum() == 0.0

    def test_request_counts_copy(self, profiles):
        profiles.record_request(0, 0)
        counts = profiles.request_counts(0)
        counts[0] = 99
        assert profiles.request_counts(0)[0] == 1.0


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            InterestProfiles(0, 5)
        with pytest.raises(ValueError):
            InterestProfiles(5, 0)

    def test_summary(self, profiles):
        s = profiles.summary()
        assert s["mean_declared_size"] == pytest.approx((3 + 2 + 1 + 2) / 4)
        assert s["total_requests"] == 0.0


class TestRecordRequestsBatch:
    def test_equivalent_to_scalar_loop(self):
        import numpy as np

        nodes = np.array([0, 1, 0, 2])
        interests = np.array([1, 2, 1, 0])
        batched = InterestProfiles(3, 4)
        batched.record_requests(nodes, interests)
        scalar = InterestProfiles(3, 4)
        for n, li in zip(nodes, interests):
            scalar.record_request(int(n), int(li))
        for node in range(3):
            assert np.array_equal(
                batched.request_counts(node), scalar.request_counts(node)
            )

    def test_version_tracks_touched_rows(self):
        import numpy as np

        profiles = InterestProfiles(3, 4)
        version = profiles.version
        profiles.record_requests(np.array([2, 2]), np.array([0, 1]))
        assert profiles.rows_changed_since(version).tolist() == [2]

    def test_declared_version_independent_of_requests(self):
        import numpy as np

        profiles = InterestProfiles(3, 4)
        decl = profiles.declared_version
        profiles.record_requests(np.array([0]), np.array([1]))
        assert profiles.declared_version == decl
        profiles.set_declared(0, [2])
        assert profiles.declared_version > decl
