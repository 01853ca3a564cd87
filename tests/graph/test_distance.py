"""Tests for distance computation: the numpy multi-source BFS against
the pure-Python BFS (and against scipy's compiled APSP where scipy is
installed)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NodeNotFoundError
from repro.graph.distance import (
    UNREACHABLE,
    all_pairs_distances,
    average_path_length,
    diameter,
    distance_matrix,
    distance_rows,
    eccentricity,
)
from repro.graph.generators import (
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    preferential_attachment,
)
from repro.graph.graph import Graph


class TestDistanceMatrix:
    def test_matches_pure_python_on_path(self):
        g = path_graph(6)
        mat, order = distance_matrix(g)
        pure = all_pairs_distances(g)
        for i, u in enumerate(order):
            for j, v in enumerate(order):
                assert mat[i, j] == pure[u].get(v, UNREACHABLE)

    def test_unreachable_marked(self):
        g = Graph([0, 1])
        mat, order = distance_matrix(g)
        i, j = order.index(0), order.index(1)
        assert mat[i, j] == UNREACHABLE

    def test_empty_graph(self):
        mat, order = distance_matrix(Graph())
        assert mat.shape == (0, 0)
        assert order == []

    def test_explicit_order_respected(self):
        g = path_graph(4)
        mat, order = distance_matrix(g, order=[3, 2, 1, 0])
        assert order == [3, 2, 1, 0]
        assert mat[0, 3] == 3  # d(3, 0)

    def test_duplicate_order_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            distance_matrix(g, order=[0, 0, 1])

    def test_unknown_order_node_rejected(self):
        with pytest.raises(NodeNotFoundError):
            distance_matrix(Graph([0]), [0, 9])

    def test_isolated_nodes(self):
        mat, order = distance_matrix(Graph([3, 1, 2]))
        assert order == [1, 2, 3]  # ascending, whatever the insert order
        assert mat.dtype == np.int32
        assert (mat == np.where(np.eye(3, dtype=bool), 0, UNREACHABLE)).all()

    def test_sparse_labels(self):
        # Labels far from 0..n-1: matrix rows follow order, not labels.
        g = Graph.from_edges([(70, 40), (40, 90)])
        mat, order = distance_matrix(g)
        assert order == [40, 70, 90]
        idx = {u: i for i, u in enumerate(order)}
        assert mat[idx[70], idx[40]] == 1 == mat[idx[40], idx[70]]
        assert mat[idx[70], idx[90]] == 2
        assert np.count_nonzero(mat == 1) == 4  # both directions, 2 edges

    def test_node_order_stability(self):
        g = Graph.from_edges([(2, 0), (0, 1)])
        assert distance_matrix(g)[1] == list(g.nodes())
        explicit = [1, 2, 0]
        mat, order = distance_matrix(g, explicit)
        assert order == explicit
        assert order is not explicit  # defensive copy
        assert mat[0, 2] == 1  # the (1, 0) edge under explicit order
        assert mat[0, 1] == 2

    def test_subset_order_drops_outside_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        mat, order = distance_matrix(g, [0, 2])
        assert order == [0, 2]
        assert mat[0, 1] == mat[1, 0] == UNREACHABLE  # the path ran via 1

    def test_symmetric_and_counts_edges(self):
        g = preferential_attachment(20, 2, seed=1)
        mat, _ = distance_matrix(g)
        assert (mat == mat.T).all()
        assert np.count_nonzero(mat == 1) == 2 * g.num_edges

    def test_dead_slots(self):
        a = Graph.from_edges([(0, 1), (1, 2), (2, 3)], nodes=range(6))
        a.remove_node(1)
        mat, order = distance_matrix(a)
        assert order == [0, 2, 3, 4, 5]
        assert mat[1, 2] == 1 and mat[0, 1] == UNREACHABLE

    @given(st.integers(0, 1000))
    def test_property_equals_pure_python_bfs(self, seed):
        g = erdos_renyi(18, 0.15, seed=seed)
        mat, order = distance_matrix(g)
        pure = all_pairs_distances(g)
        for i, u in enumerate(order):
            row = pure[u]
            for j, v in enumerate(order):
                assert mat[i, j] == row.get(v, UNREACHABLE)

    @pytest.mark.parametrize("n", [10, 65, 200])
    def test_equals_scipy(self, n):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        for seed in range(3):
            g = erdos_renyi(n, 3 / n, seed=seed)  # disconnected, mostly
            order = sorted(g.nodes(), reverse=True)
            mat, _ = distance_matrix(g, order)
            index = {u: i for i, u in enumerate(order)}
            pairs = [(index[u], index[v]) for u, v in g.edges()]
            rows = [i for i, _ in pairs] + [j for _, j in pairs]
            cols = [j for _, j in pairs] + [i for i, _ in pairs]
            adjacency = sparse.csr_matrix(
                (np.ones(len(rows)), (rows, cols)), shape=(n, n)
            )
            ref = csgraph.shortest_path(
                adjacency, unweighted=True, directed=False
            )
            ref = np.where(np.isinf(ref), UNREACHABLE, ref)
            assert (mat == ref).all()


class TestDistanceRows:
    @given(st.integers(0, 1000), st.data())
    def test_rows_equal_the_matrix(self, seed, data):
        g = erdos_renyi(70, 0.04, seed=seed)
        mat, order = distance_matrix(g)
        sources = data.draw(
            st.lists(st.integers(0, 69), unique=True, max_size=70)
        )
        rows = distance_rows(g, order, sources)
        assert rows.dtype == np.int32
        assert rows.shape == (len(sources), 70)
        assert (rows == mat[sources]).all()

    def test_no_sources(self):
        g = path_graph(3)
        assert distance_rows(g, [0, 1, 2], []).shape == (0, 3)


class TestEccentricityDiameter:
    def test_path(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2
        assert diameter(g) == 4

    def test_cycle(self):
        assert diameter(cycle_graph(8)) == 4

    def test_grid(self):
        assert diameter(grid_graph(3, 4)) == 2 + 3

    def test_disconnected_diameter_per_component(self):
        g = Graph.from_edges([(0, 1), (2, 3), (3, 4)])
        assert diameter(g) == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph())


class TestAveragePathLength:
    def test_path3(self):
        # path 0-1-2: pairs (0,1)=1 (1,2)=1 (0,2)=2 → mean 4/3 both directions
        assert average_path_length(path_graph(3)) == pytest.approx(4 / 3)

    def test_no_pairs(self):
        assert average_path_length(Graph([1])) == 0.0
        assert average_path_length(Graph([1, 2])) == 0.0

    def test_ba_graph_reasonable(self):
        g = preferential_attachment(50, 2, seed=0)
        apl = average_path_length(g)
        assert 1.0 < apl < 10.0
