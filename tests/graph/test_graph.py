"""Tests for the slot-store Graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.graph import GROWTH_SLACK, Graph
from repro.graph.io import read_edge_list


class TestNodes:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(1)
        g.add_node(1)
        assert g.num_nodes == 1

    def test_constructor_nodes(self):
        g = Graph([1, 2, 3])
        assert sorted(g.nodes()) == [1, 2, 3]

    def test_remove_node_removes_incident_edges(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.remove_node(2)
        assert g.num_edges == 1
        assert g.has_edge(1, 3)
        assert not g.has_node(2)

    def test_remove_missing_node_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node(99)

    def test_contains_and_len(self):
        g = Graph([1, 2])
        assert 1 in g
        assert 3 not in g
        assert len(g) == 2

    def test_iter(self):
        g = Graph([3, 1, 2])
        assert list(iter(g)) == [1, 2, 3]  # ascending, not insertion order


class TestLabels:
    @pytest.mark.parametrize(
        "bad", ["a", 1.5, 0.0, None, (0, 1), True, -1, np.int64(1)]
    )
    def test_rejects_what_is_not_a_label(self, bad):
        g = Graph(range(3))
        for attempt in (
            lambda: g.add_node(bad),
            lambda: Graph([bad]),
            # either endpoint of an edge between existing slots
            lambda: g.add_edge(bad, 2),
            lambda: g.add_edge(2, bad),
            # a new first endpoint, which the refusal takes back
            lambda: g.add_edge(5, bad),
            # sequences that spell 0..n-1 if a bool, float or numpy int
            # is taken for the int it equals
            lambda: Graph([bad, 1, 2]),
            lambda: Graph((0, bad, 2)),
        ):
            with pytest.raises(ConfigurationError, match="non-negative ints"):
                attempt()
        assert g == Graph(range(3))
        assert g.num_nodes == len(g._nbrs) == 3

    #: far past any bound, and so large that without the check the
    #: allocation fails at once (MemoryError) instead of taking memory
    HUGE = 2**62

    def test_label_bound_refuses_before_allocating(self, tmp_path):
        g = Graph(range(4))
        g.add_edge(0, 1)
        for add in (
            lambda: g.add_node(self.HUGE),
            lambda: g.add_edge(2, self.HUGE),
            lambda: g.check_label(self.HUGE),
        ):
            with pytest.raises(ConfigurationError) as exc:
                add()
            msg = str(exc.value)
            assert str(self.HUGE) in msg
            assert str(2 * 4 + GROWTH_SLACK) in msg  # the bound
            assert "relabel the nodes 0..n-1" in msg
        # A new first endpoint grows the store before the second is
        # checked; the refusal takes it back and names the bound of the
        # store the caller holds.
        with pytest.raises(ConfigurationError, match=str(self.HUGE)) as exc:
            g.add_edge(7, self.HUGE)
        assert str(2 * 4 + GROWTH_SLACK) in str(exc.value)
        assert g.num_nodes == 4 and not g.has_node(7)
        assert len(g._nbrs) == 4 and g == Graph.from_edges([(0, 1)], [2, 3])
        with pytest.raises(ConfigurationError, match=str(self.HUGE)):
            Graph.from_edges([(0, self.HUGE)])
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n1 {self.HUGE}\n")
        with pytest.raises(ConfigurationError, match=str(self.HUGE)):
            read_edge_list(path)

    def test_label_bound_admits_doubling_and_slack(self):
        g = Graph(range(10))
        g.add_node(2 * 10 + GROWTH_SLACK - 1)  # the largest admitted jump
        slots = len(g._nbrs)
        with pytest.raises(ConfigurationError):
            g.add_node(2 * slots + GROWTH_SLACK)
        assert len(g._nbrs) == slots
        g.check_label(2 * slots + GROWTH_SLACK - 1)
        assert g.num_nodes == 11


class TestEdges:
    def test_add_edge_returns_true_when_new(self):
        g = Graph()
        assert g.add_edge(1, 2) is True
        assert g.add_edge(1, 2) is False
        assert g.add_edge(2, 1) is False
        assert g.num_edges == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(4, 7)
        assert g.has_node(4) and g.has_node(7)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph().add_edge(1, 1)

    def test_remove_edge(self):
        g = Graph.from_edges([(1, 2)])
        g.remove_edge(2, 1)  # direction-agnostic
        assert g.num_edges == 0
        assert g.has_node(1) and g.has_node(2)

    def test_remove_missing_edge_raises(self):
        g = Graph([1, 2])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_remove_edge_missing_endpoint_raises(self):
        g = Graph([1])
        with pytest.raises(NodeNotFoundError):
            g.remove_edge(1, 99)

    def test_edges_each_once(self):
        edges = [(1, 2), (2, 3), (3, 1)]
        g = Graph.from_edges(edges)
        seen = {frozenset(e) for e in g.edges()}
        assert seen == {frozenset(e) for e in edges}
        assert len(list(g.edges())) == 3


class TestNeighborhood:
    def test_neighbors_snapshot_isolated_from_mutation(self):
        g = Graph.from_edges([(1, 2), (1, 3)])
        nbrs = g.neighbors(1)
        g.remove_edge(1, 2)
        assert nbrs == frozenset({2, 3})  # snapshot unchanged
        assert g.neighbors(1) == frozenset({3})

    def test_neighbors_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().neighbors(0)

    def test_degree(self):
        g = Graph.from_edges([(1, 2), (1, 3)])
        assert g.degree(1) == 2
        assert g.degree(2) == 1

    def test_degrees_and_max(self):
        g = Graph.from_edges([(1, 2), (1, 3)])
        assert g.degrees() == {1: 2, 2: 1, 3: 1}
        assert max(g.degrees().values()) == 2
        assert Graph().degrees() == {}


class TestCopySubgraphEq:
    def test_copy_independent(self):
        g = Graph.from_edges([(1, 2)])
        h = g.copy()
        h.add_edge(2, 3)
        assert not g.has_node(3)
        assert g != h

    def test_eq_structural(self):
        a = Graph.from_edges([(1, 2), (2, 3)])
        b = Graph.from_edges([(2, 3), (1, 2)])
        assert a == b

    def test_eq_compares_live_slots(self):
        a = Graph.from_edges([(0, 1)])
        b = Graph.from_edges([(0, 1)], nodes=[9])
        b.remove_node(9)  # leaves a dead slot and doubling slack
        assert len(b._nbrs) > len(a._nbrs) and a == b and b == a
        a.remove_edge(0, 1)  # two emptied sets ...
        c = Graph(range(2))  # ... equal two edgeless slots
        assert a == c and c == a
        c.add_node(5)
        assert a != c and c != a

    def test_eq_non_graph(self):
        assert Graph() != 42

    def test_subgraph(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 4)])
        s = g.subgraph([2, 3, 99])
        assert sorted(s.nodes()) == [2, 3]
        assert s.has_edge(2, 3)
        assert s.num_edges == 1


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
    )
)
def test_property_edge_count_consistency(edges):
    """num_edges always equals the number of distinct undirected pairs."""
    g = Graph.from_edges(edges)
    distinct = {frozenset(e) for e in edges}
    assert g.num_edges == len(distinct)
    # Symmetry holds everywhere.
    for u in g.nodes():
        for v in g.neighbors_view(u):
            assert u in g.neighbors_view(v)


@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=30,
    ),
    st.integers(0, 12),
)
def test_property_remove_node_then_no_references(edges, victim):
    g = Graph.from_edges(edges)
    g.add_node(victim)
    g.remove_node(victim)
    for u in g.nodes():
        assert victim not in g.neighbors_view(u)
