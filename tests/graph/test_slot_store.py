"""Tests for the slot store behind :class:`~repro.graph.graph.Graph`.

The contract under test is "the dict-of-sets graph's interface,
different storage": every operation, return type, exception, and
mutation-stream side effect must match the reference graph
(``tests/graph/_reference_graph.py``) byte-for-byte on int labels. The
mirrored random-op test drives both graphs through the same operation
sequence and compares after every step.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dash import Dash
from repro.core.network import SelfHealingNetwork
from repro.errors import (
    ConfigurationError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.distance import UNREACHABLE, distance_matrix
from repro.graph.graph import EDGELESS, Graph

from tests.graph._reference_graph import ReferenceGraph


def both(nodes=()):
    return ReferenceGraph(nodes), Graph(nodes)


def assert_same(g: ReferenceGraph, a: Graph):
    assert a == g and g == a
    assert a.num_nodes == g.num_nodes
    assert a.num_edges == g.num_edges
    assert sorted(a.nodes()) == sorted(g.nodes())
    assert sorted(map(tuple, map(sorted, a.edges()))) == sorted(
        map(tuple, map(sorted, g.edges()))
    )
    assert a.degrees() == g.degrees()
    assert len(a) == len(g)


class TestConstruction:
    def test_range_bulk_path(self):
        a = Graph(range(5))
        assert sorted(a.nodes()) == [0, 1, 2, 3, 4]
        assert a.num_nodes == 5 and a.num_edges == 0

    def test_generator_input(self):
        a = Graph(u for u in (0, 1, 2))
        assert a.num_nodes == 3

    def test_non_consecutive_labels(self):
        a = Graph([4, 0, 2])
        assert sorted(a.nodes()) == [0, 2, 4]
        assert not a.has_node(1)
        assert not a.has_node(3)

    def test_duplicate_labels(self):
        assert Graph([0, 0, 1]).num_nodes == 2

    def test_rejects_non_int_labels(self):
        for bad in ("a", 1.5, None, (0, 1)):
            with pytest.raises(ConfigurationError):
                Graph([bad])

    def test_rejects_negative_labels(self):
        with pytest.raises(ConfigurationError):
            Graph([-1])

    def test_float_labels_rejected_even_when_integral(self):
        # 0.0 == 0 must not smuggle a float through the bulk detector.
        with pytest.raises(ConfigurationError):
            Graph([0.0, 1.0])

    def test_from_edges(self):
        a = Graph.from_edges([(0, 1), (1, 2)], nodes=[5])
        g = ReferenceGraph.from_edges([(0, 1), (1, 2)], nodes=[5])
        assert_same(g, a)

    def test_copy_independent(self):
        a = Graph.from_edges([(0, 1)])
        b = a.copy()
        b.add_edge(1, 2)
        assert not a.has_node(2)
        assert a.num_edges == 1 and b.num_edges == 2

    def test_subgraph(self):
        a = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        g = ReferenceGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert_same(g.subgraph([0, 1, 3, 9]), a.subgraph([0, 1, 3, 9]))


class TestNodes:
    def test_slot_reuse_after_removal(self):
        a = Graph(range(3))
        a.remove_node(1)
        assert not a.has_node(1)
        a.add_node(1)
        assert a.has_node(1)
        assert a.degree(1) == 0
        assert a.num_nodes == 3

    def test_remove_returns_neighbor_set(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        assert a.remove_node(1) == {0, 2}
        assert a.num_edges == 0

    def test_remove_missing_raises(self):
        with pytest.raises(NodeNotFoundError):
            Graph().remove_node(0)
        with pytest.raises(NodeNotFoundError):
            Graph(range(2)).remove_node("x")

    def test_contains_iter_len(self):
        a = Graph(range(3))
        assert 2 in a and 3 not in a and "x" not in a
        assert list(iter(a)) == [0, 1, 2]
        assert len(a) == 3


class TestEdges:
    def test_add_edge_semantics(self):
        g, a = both()
        for t in (g, a):
            assert t.add_edge(0, 1) is True
            assert t.add_edge(1, 0) is False
        assert_same(g, a)

    def test_self_loop_raises(self):
        with pytest.raises(SelfLoopError):
            Graph().add_edge(1, 1)

    def test_remove_edge_errors(self):
        a = Graph.from_edges([(0, 1)])
        a.add_node(2)
        with pytest.raises(NodeNotFoundError):
            a.remove_edge(9, 0)
        with pytest.raises(NodeNotFoundError):
            a.remove_edge(0, 9)
        with pytest.raises(EdgeNotFoundError):
            a.remove_edge(0, 2)

    def test_neighbors_types(self):
        a = Graph.from_edges([(0, 1), (0, 2)])
        assert a.neighbors(0) == frozenset({1, 2})
        assert isinstance(a.neighbors(0), frozenset)
        view = a.neighbors_view(0)
        assert isinstance(view, set)
        a.add_edge(0, 3)
        assert 3 in view  # live view, like the reference graph
        with pytest.raises(NodeNotFoundError):
            a.neighbors(9)


class TestDegreeMachinery:
    def test_degree_queries_match(self):
        edges = [(0, 1), (0, 2), (0, 3), (2, 3)]
        g = ReferenceGraph.from_edges(edges)
        a = Graph.from_edges(edges)
        assert a.degree(0) == g.degree(0) == 3
        assert a.degree_of(9) is None is g.degree_of(9)
        assert a.degrees_of([2, 3], offset=1) == g.degrees_of([2, 3], offset=1)
        with pytest.raises(NodeNotFoundError):
            a.degrees_of([2, 9])

    def test_degree_index_parity(self):
        """The network's degree index answers alike over either graph:
        its oracle is the graph's ``degree_of``."""
        edges = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4)]
        answers = []
        for t in (ReferenceGraph.from_edges(edges), Graph.from_edges(edges)):
            net = SelfHealingNetwork(t, Dash(), seed=1)
            assert net.max_degree_node() == 0
            net.delete_and_heal(0)
            net.check_degree_index()
            answers.append(
                (net.max_degree(), net.max_degree_node(),
                 net.min_degree_node(), net.degree_bucket(2))
            )
        assert answers[0] == answers[1]

    def test_grown_gaps_keep_nodes_and_degree_index(self):
        """Amortized-doubling gap growth leaves dead gap and slack
        slots: only genuinely live slots are nodes."""
        a = Graph(range(2))
        a.add_edge(0, 1)
        a.add_node(9)            # gap 2..8, plus doubling slack past 9
        a.add_node(5)            # claims a slot inside the first gap
        a.add_edge(5, 9)
        a.add_node(40)           # a second, larger gap
        a.remove_node(5)         # a real removal (takes edge (5,9) along)
        assert len(a._nbrs) >= 41
        expected_live = {0: 1, 1: 1, 9: 0, 40: 0}
        assert a.degrees() == expected_live
        assert sorted(a.nodes()) == sorted(expected_live)
        assert a.num_nodes == 4
        # A degree index built over the store skips its dead slots.
        net = SelfHealingNetwork(a, Dash(), seed=1)
        net.check_degree_index()
        assert net.degree_bucket(0) == {9, 40}


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "add_node",
                "remove_node",
                "add_edge",
                "remove_edge",
                "copy",
                "subgraph",
                "distances",
            ]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=40,
)


def assert_slot_states(a: Graph):
    """Every slot is dead, the shared edgeless marker, or a real set —
    never another frozenset, which a writer would fail to replace."""
    assert not EDGELESS
    for s in a._nbrs:
        assert s is None or s is EDGELESS or type(s) is set


def distances(graph):
    """The analytics path's view of ``graph``: its nodes and the hop
    distance of every connected pair, by label."""
    matrix, order = distance_matrix(graph)
    rows, cols = np.nonzero(matrix != UNREACHABLE)
    return sorted(order), sorted(
        (order[i], order[j], int(matrix[i, j]))
        for i, j in zip(rows.tolist(), cols.tolist())
    )


def apply_op(graph, op, u, v):
    """Run one mirrored op; returns (new graph, result)."""
    if op == "add_node":
        return graph, graph.add_node(u)
    if op == "remove_node":
        return graph, graph.remove_node(u)
    if op == "add_edge":
        return graph, graph.add_edge(u, v)
    if op == "remove_edge":
        return graph, graph.remove_edge(u, v)
    if op == "copy":
        # The copy must stand alone: a write to the original (here an
        # edge between two of its edgeless nodes, when it has them)
        # must not reach it.
        copied = graph.copy()
        edgeless = sorted(w for w in graph.nodes() if not graph.degree(w))
        if len(edgeless) >= 2:
            graph.add_edge(edgeless[0], edgeless[1])
            assert not copied.degree(edgeless[0])
        return copied, None
    if op == "subgraph":
        # Drop u, then write to the subgraph's slots, edgeless ones
        # included.
        sub = graph.subgraph(w for w in graph.nodes() if w != u)
        return sub, sub.add_edge(v, (v + 1) % 8)
    return graph, distances(graph)


class TestMirroredOps:
    @settings(max_examples=120, deadline=None)
    @given(ops=_OPS)
    def test_random_op_sequences_match(self, ops):
        graphs = list(both(range(3)))
        for op, u, v in ops:
            results = []
            for i, t in enumerate(graphs):
                try:
                    graphs[i], result = apply_op(t, op, u, v)
                    results.append(("ok", result))
                except Exception as exc:  # noqa: BLE001 - compared below
                    results.append((type(exc).__name__, None))
            assert results[0] == results[1]
            g, a = graphs
            assert_same(g, a)
            assert_slot_states(a)

    def test_edgeless_slots_share_one_marker(self):
        a = Graph(range(4))
        a.add_node(9)
        assert all(a._nbrs[u] is EDGELESS for u in (0, 1, 2, 3, 9))
        a.add_edge(0, 9)
        assert type(a._nbrs[0]) is set and type(a._nbrs[9]) is set
        assert a._nbrs[1] is EDGELESS and not EDGELESS
        assert a.remove_node(1) == set() and not a.has_node(1)
        assert a.copy()._nbrs[2] is EDGELESS
        sub = a.subgraph([0, 2, 3])
        assert sub._nbrs[0] is EDGELESS and sub.add_edge(0, 2)
        assert_slot_states(a)
        assert_slot_states(sub)


def test_network_allocates_no_per_node_healing_graph_sets():
    """Init's G′ is edgeless: every slot of its store is the
    shared marker, so building the network creates no set per node (an
    empty one is 216 B on CPython 3.11)."""
    import gc

    from repro.core.dash import Dash
    from repro.core.network import SelfHealingNetwork
    from repro.graph.generators import path_graph

    def live_sets():
        return sum(type(o) is set for o in gc.get_objects())

    n = 50_000
    graph = path_graph(n)
    before = live_sets()
    network = SelfHealingNetwork(graph, Dash(), seed=0)
    assert live_sets() - before < n // 100
    slots = network.healing_graph._nbrs
    assert len(slots) == n and all(s is EDGELESS for s in slots)


class TestPickleAndCopy:
    """An Graph round-trips through pickle and the copy module: same
    topology, dead slots None, every edgeless slot the shared marker."""

    @staticmethod
    def sample() -> Graph:
        g = Graph(range(6))
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_edge(2, 3)  # node 3's emptied set
        g.remove_node(4)  # a dead slot
        g.add_node(8)  # past the end: slots 6 and 7 stay unused
        return g

    @pytest.mark.parametrize(
        "clone",
        [
            lambda g: pickle.loads(pickle.dumps(g)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, clone):
        g = self.sample()
        h = clone(g)
        assert h == g
        edges = [(0, 1), (1, 2)]
        assert h == ReferenceGraph.from_edges(edges, nodes=[0, 1, 2, 3, 5, 8])
        assert h.num_edges == 2 and h.num_nodes == 6
        for u in (3, 5, 8):
            assert h._nbrs[u] is EDGELESS
        for u in (4, 6, 7):
            assert h._nbrs[u] is None
        # A restored edgeless node takes its first edge like any other,
        # and the clone shares no state with the original.
        h.add_edge(5, 8)
        h.add_edge(0, 3)
        assert h.degree(5) == 1 and h.neighbors(3) == {0}
        assert g.degree(5) == 0 and g.degree(0) == 1
        assert g._nbrs[5] is EDGELESS
