"""Tests for structural graph validation."""

from __future__ import annotations

import pytest

from repro.errors import InvariantViolation
from repro.graph.generators import preferential_attachment
from repro.graph.graph import Graph
from repro.graph.validation import validate_graph


class TestValidateGraph:
    def test_healthy_graph_passes(self):
        validate_graph(preferential_attachment(40, 2, seed=0))

    def test_empty_passes(self):
        validate_graph(Graph())

    def test_detects_asymmetry(self):
        g = Graph.from_edges([(1, 2)])
        g._nbrs[1].discard(2)  # corrupt on purpose
        with pytest.raises(InvariantViolation, match="asymmetric|odd"):
            validate_graph(g)

    def test_detects_self_loop(self):
        g = Graph([1])
        g._nbrs[1] = {1}  # a new set: the edgeless marker is shared
        with pytest.raises(InvariantViolation, match="self-loop"):
            validate_graph(g)

    def test_detects_dangling_endpoint(self):
        g = Graph([1])
        g._nbrs[1] = {99}
        with pytest.raises(InvariantViolation, match="dangling"):
            validate_graph(g)

    def test_detects_bad_edge_count(self):
        g = Graph.from_edges([(1, 2)])
        g._num_edges = 5
        with pytest.raises(InvariantViolation, match="edge count"):
            validate_graph(g)
