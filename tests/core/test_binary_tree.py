"""Tests for reconstruction-tree layouts (the heap-order RT)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.binary_tree import (
    complete_binary_tree_edges,
    complete_tree_edges,
    heap_children,
    heap_parent,
    internal_positions,
    leaf_positions,
    path_edges,
    star_edges,
)
from repro.graph.forest import is_tree
from repro.graph.graph import Graph


class TestHeapHelpers:
    def test_parent(self):
        assert heap_parent(0) is None
        assert heap_parent(1) == 0
        assert heap_parent(2) == 0
        assert heap_parent(5) == 2

    def test_children(self):
        assert heap_children(0, 5) == [1, 2]
        assert heap_children(1, 5) == [3, 4]
        assert heap_children(2, 5) == []

    def test_kary_parent(self):
        assert heap_parent(1, branching=3) == 0
        assert heap_parent(3, branching=3) == 0
        assert heap_parent(4, branching=3) == 1

    def test_leaf_and_internal_partition(self):
        for size in range(1, 20):
            leaves = set(leaf_positions(size))
            internal = set(internal_positions(size))
            assert leaves | internal == set(range(size))
            assert not (leaves & internal)

    def test_at_least_half_leaves(self):
        # The paper's key structural fact: ≥ half the positions of a
        # complete binary tree are leaves.
        for size in range(1, 64):
            assert len(leaf_positions(size)) * 2 >= size


class TestCompleteBinaryTreeEdges:
    def test_trivial(self):
        assert complete_binary_tree_edges([]) == []
        assert complete_binary_tree_edges([1]) == []

    def test_pair(self):
        assert complete_binary_tree_edges([1, 2]) == [(1, 2)]

    def test_known_shape(self):
        edges = complete_binary_tree_edges(["r", "a", "b", "c"])
        assert edges == [("r", "a"), ("r", "b"), ("a", "c")]

    @given(st.integers(1, 50))
    def test_property_forms_tree(self, k):
        nodes = list(range(k))
        g = Graph(nodes)
        for u, v in complete_binary_tree_edges(nodes):
            g.add_edge(u, v)
        assert is_tree(g)

    @given(st.integers(2, 50))
    def test_property_max_degree_three(self, k):
        nodes = list(range(k))
        g = Graph(nodes)
        for u, v in complete_binary_tree_edges(nodes):
            g.add_edge(u, v)
        assert max(g.degrees().values()) <= 3
        assert g.degree(0) <= 2  # root has no parent

    @given(st.integers(2, 50))
    def test_property_second_half_are_leaves(self, k):
        """Nodes in the latter half of the order gain exactly one edge —
        the structural guarantee DASH exploits for high-δ nodes."""
        nodes = list(range(k))
        g = Graph(nodes)
        for u, v in complete_binary_tree_edges(nodes):
            g.add_edge(u, v)
        for pos in range(k // 2 + (k % 2), k):
            assert g.degree(nodes[pos]) == 1


class TestKaryTreeEdges:
    @given(st.integers(1, 4), st.integers(1, 40))
    def test_property_tree_and_degree_bound(self, branching, k):
        nodes = list(range(k))
        g = Graph(nodes)
        for u, v in complete_tree_edges(nodes, branching=branching):
            g.add_edge(u, v)
        assert is_tree(g)
        assert max(g.degrees().values()) <= branching + 1

    def test_branching_one_is_path(self):
        assert complete_tree_edges(
            [1, 2, 3], branching=1
        ) == path_edges([1, 2, 3])

    def test_invalid_branching(self):
        with pytest.raises(ValueError):
            complete_tree_edges([1, 2], branching=0)


class TestPathStar:
    def test_path(self):
        assert path_edges([1, 2, 3]) == [(1, 2), (2, 3)]
        assert path_edges([1]) == []

    def test_star(self):
        assert star_edges("c", ["a", "b"]) == [("c", "a"), ("c", "b")]

    def test_star_skips_center(self):
        assert star_edges("c", ["a", "c", "b"]) == [("c", "a"), ("c", "b")]
