"""Tests for synthetic social topology builders."""

import numpy as np
import pytest

from repro.social.generators import (
    assign_relationships,
    assigned_distance_matrix,
    erdos_renyi_graph,
    paper_social_network,
    preferential_attachment_graph,
)
from repro.utils.rng import spawn_rng


@pytest.fixture
def rng():
    return spawn_rng(99, 0)


class TestAssignedDistanceMatrix:
    def test_symmetric_zero_diagonal(self, rng):
        d = assigned_distance_matrix(10, rng)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_values_from_choices(self, rng):
        d = assigned_distance_matrix(20, rng, distance_choices=(2, 5))
        off = d[~np.eye(20, dtype=bool)]
        assert set(np.unique(off)) <= {2, 5}

    def test_unit_pairs_pinned(self, rng):
        d = assigned_distance_matrix(
            10, rng, distance_choices=(3,), unit_distance_pairs=[(0, 9)]
        )
        assert d[0, 9] == 1 and d[9, 0] == 1
        assert d[0, 5] == 3

    def test_rejects_bad_choices(self, rng):
        with pytest.raises(ValueError):
            assigned_distance_matrix(5, rng, distance_choices=(0,))

    @pytest.mark.parametrize("pair", [(0, -1), (-6, 1), (0, 6)])
    def test_rejects_out_of_range_unit_pair(self, rng, pair):
        """A negative id would wrap onto the last nodes."""
        with pytest.raises(ValueError, match=rf"pair \({pair[0]}, {pair[1]}\).*range"):
            assigned_distance_matrix(6, rng, unit_distance_pairs=[(1, 2), pair])

    def test_rejects_self_unit_pair(self, rng):
        """``d[2, 2] = 1`` would be refused later as a bad self-distance."""
        with pytest.raises(ValueError, match=r"pair \(2, 2\).*self-pair"):
            assigned_distance_matrix(6, rng, unit_distance_pairs=[(2, 2)])

    def test_deterministic_per_seed(self):
        a = assigned_distance_matrix(8, spawn_rng(5, 0))
        b = assigned_distance_matrix(8, spawn_rng(5, 0))
        assert np.array_equal(a, b)


class TestPaperSocialNetwork:
    def test_colluders_adjacent_clique(self, rng):
        colluders = [2, 3, 4]
        net = paper_social_network(12, colluders, rng)
        for i in colluders:
            for j in colluders:
                if i != j:
                    assert net.distance(i, j) == 1

    def test_colluder_relationship_count_range(self, rng):
        colluders = [0, 1, 2, 3]
        net = paper_social_network(12, colluders, rng)
        for i in colluders:
            for j in colluders:
                if i < j:
                    assert 3 <= len(net.relationships(i, j)) <= 5

    def test_normal_relationship_count_range(self, rng):
        net = paper_social_network(20, [0, 1], rng)
        found = False
        for i in range(2, 20):
            for j in range(i + 1, 20):
                if net.distance(i, j) == 1:
                    found = True
                    assert 1 <= len(net.relationships(i, j)) <= 2
        assert found

    def test_distances_in_1_to_3(self, rng):
        net = paper_social_network(15, [0, 1], rng)
        d = net.distance_matrix
        off = d[~np.eye(15, dtype=bool)]
        assert set(np.unique(off)) <= {1, 2, 3}

    def test_colluder_distance_override(self, rng):
        net = paper_social_network(10, [0, 1, 2], rng, colluder_distance=3)
        assert net.distance(0, 1) == 3

    def test_rejects_out_of_range_colluder(self, rng):
        with pytest.raises(ValueError):
            paper_social_network(5, [7], rng)

    def test_rejects_bad_distance(self, rng):
        with pytest.raises(ValueError):
            paper_social_network(5, [0, 1], rng, colluder_distance=0)


class TestAssignRelationships:
    @pytest.mark.parametrize("colluder", [-1, 6])
    def test_rejects_out_of_range_colluder(self, rng, colluder):
        """A negative id would wrap and make node 5 a colluder."""
        d = np.ones((6, 6), dtype=np.int64) - np.eye(6, dtype=np.int64)
        with pytest.raises(ValueError, match=rf"colluder id {colluder} out of range \[0, 6\)"):
            assign_relationships(d, {0, colluder}, rng)

    def test_rejects_zero_tie_count(self, rng):
        d = np.ones((4, 4), dtype=np.int64) - np.eye(4, dtype=np.int64)
        with pytest.raises(ValueError, match="non-empty"):
            assign_relationships(d, (), rng, normal_relationship_range=(0, 0))

class TestPreferentialAttachment:
    def test_connected(self, rng):
        g = preferential_attachment_graph(50, rng, edges_per_node=2)
        from repro.social.paths import bfs_distances

        assert len(bfs_distances(g, 0)) == 50

    def test_heavy_tail(self, rng):
        g = preferential_attachment_graph(300, rng, edges_per_node=2)
        degrees = np.array([g.degree(i) for i in range(300)])
        # Hubs exist: max degree far above the median.
        assert degrees.max() >= 4 * np.median(degrees)

    def test_min_degree(self, rng):
        g = preferential_attachment_graph(40, rng, edges_per_node=3)
        assert min(g.degree(i) for i in range(40)) >= 3

    def test_rejects_small_n(self, rng):
        with pytest.raises(ValueError):
            preferential_attachment_graph(3, rng, edges_per_node=3)


class TestErdosRenyi:
    def test_density_close_to_p(self, rng):
        g = erdos_renyi_graph(60, 0.2, rng)
        possible = 60 * 59 / 2
        assert abs(g.n_edges / possible - 0.2) < 0.05

    def test_zero_p_empty(self, rng):
        assert erdos_renyi_graph(10, 0.0, rng).n_edges == 0

    def test_one_p_complete(self, rng):
        g = erdos_renyi_graph(8, 1.0, rng)
        assert g.n_edges == 8 * 7 / 2

    def test_rejects_bad_p(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi_graph(5, 1.2, rng)
