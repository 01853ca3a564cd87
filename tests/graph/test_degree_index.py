"""Unit tests for the push-only lazy bucket index and Graph's use of it."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.graph.degree_index import DegreeIndex
from repro.graph.generators import (
    cycle_graph,
    erdos_renyi,
    preferential_attachment,
    star_graph,
)
from repro.graph.graph import Graph


class TestDegreeIndexCore:
    def make(self, keys: dict) -> DegreeIndex:
        idx = DegreeIndex(keys.get)
        for node, key in keys.items():
            idx.push(node, key)
        return idx

    def test_extremes_and_tie_breaks(self):
        keys = {3: 1, 1: 2, 2: 2, 0: 0}
        idx = self.make(keys)
        assert idx.max_key() == 2
        assert idx.min_key() == 0
        assert idx.top_node() == 1  # smallest label of the tied max pair
        assert idx.bottom_node() == 0

    def test_stale_entries_self_invalidate(self):
        keys = {0: 5, 1: 3}
        idx = self.make(keys)
        assert idx.top_node() == 0
        keys[0] = 1  # node 0 drops; old entry at 5 is now stale
        idx.push(0, 1)
        assert idx.max_key() == 3
        assert idx.top_node() == 1
        del keys[1]  # node 1 vanishes entirely
        assert idx.top_node() == 0
        assert idx.max_key() == 1

    def test_empty_defaults(self):
        keys: dict = {}
        idx = DegreeIndex(keys.get)
        assert idx.max_key() == 0
        assert idx.min_key(default=-7) == -7
        assert idx.top_node() is None
        assert idx.bottom_node() is None

    def test_emptied_index_returns_defaults(self):
        keys = {0: 2, 1: 4}
        idx = self.make(keys)
        assert idx.max_key() == 4
        keys.clear()
        assert idx.top_node() is None
        assert idx.max_key(default=99) == 99

    def test_negative_keys(self):
        keys = {0: -3, 1: -1, 2: -3}
        idx = self.make(keys)
        assert idx.min_key() == -3
        assert idx.max_key() == -1
        assert idx.bottom_node() == 0

    def test_duplicate_pushes_are_harmless(self):
        keys = {0: 2, 1: 2}
        idx = self.make(keys)
        for _ in range(5):
            idx.push(0, 2)  # node oscillated back to the same key
        assert idx.top_node() == 0
        del keys[0]
        assert idx.top_node() == 1

    def test_bucket_snapshot_filters_stale(self):
        keys = {0: 2, 1: 2, 2: 3}
        idx = self.make(keys)
        assert idx.bucket(2) == {0, 1}
        keys[1] = 3
        idx.push(1, 3)
        assert idx.bucket(2) == {0}
        assert idx.bucket(3) == {1, 2}
        assert idx.bucket(17) == frozenset()

    def test_check_passes_and_fails(self):
        keys = {0: 1, 1: 2}
        idx = self.make(keys)
        idx.check({0: 1, 1: 2})
        with pytest.raises(SimulationError):
            idx.check({0: 1, 1: 2, 9: 0})  # node the index never saw
        # A node whose key moved without a push: scans disagree.
        keys[0] = 7
        with pytest.raises(SimulationError):
            idx.check({0: 7, 1: 2})

    def test_cursor_settles_through_large_gaps(self):
        keys = {0: 1000, 1: 1}
        idx = self.make(keys)
        assert idx.max_key() == 1000
        del keys[0]
        assert idx.max_key() == 1
        keys[2] = 500
        idx.push(2, 500)
        assert idx.max_key() == 500


class TestGraphDegreeIndex:
    def test_max_min_degree_track_mutations(self):
        g = star_graph(6)  # hub 0 with 5 leaves
        assert g.max_degree() == 5
        assert g.min_degree() == 1
        assert g.max_degree_node() == 0
        assert g.min_degree_node() == 1  # smallest-label leaf
        g.remove_node(0)
        assert g.max_degree() == 0
        assert g.min_degree() == 0
        assert g.max_degree_node() == 1
        g.add_edge(3, 4)
        assert g.max_degree() == 1
        assert g.max_degree_node() == 3
        g.remove_edge(3, 4)
        assert g.max_degree() == 0

    def test_empty_graph(self):
        g = Graph()
        assert g.max_degree() == 0
        assert g.min_degree() == 0
        assert g.max_degree_node() is None
        assert g.min_degree_node() is None

    def test_degree_bucket(self):
        g = cycle_graph(4)
        assert g.degree_bucket(2) == {0, 1, 2, 3}
        assert g.degree_bucket(1) == frozenset()

    def test_matches_scan_through_random_churn(self):
        import random

        rng = random.Random(0)
        g = erdos_renyi(40, 0.15, seed=2)
        for _ in range(300):
            op = rng.random()
            nodes = sorted(g.nodes())
            if op < 0.3 and len(nodes) > 2:
                g.remove_node(rng.choice(nodes))
            elif op < 0.7:
                u, v = rng.sample(range(60), 2)
                g.add_edge(u, v)
            else:
                edges = sorted(g.edges())
                if edges:
                    g.remove_edge(*rng.choice(edges))
            g.check_degree_index()
            degrees = g.degrees()
            if degrees:
                assert g.max_degree() == max(degrees.values())
                assert g.min_degree() == min(degrees.values())

    def test_copy_and_subgraph_reindex(self):
        g = preferential_attachment(30, 2, seed=1)
        c = g.copy()
        c.check_degree_index()
        assert c.max_degree() == g.max_degree()
        c.remove_node(c.max_degree_node())
        c.check_degree_index()
        s = g.subgraph(range(15))
        s.check_degree_index()
        degs = s.degrees()
        assert s.max_degree() == max(degs.values())

    def test_index_is_lazy_until_first_query(self):
        g = Graph()
        for u, v in [(0, 1), (0, 2), (0, 3), (2, 3)]:
            g.add_edge(u, v)
        assert g._deg_index is None  # mutations alone never build it
        assert g.max_degree() == 3  # first query builds…
        assert g._deg_index is not None
        g.add_edge(1, 3)  # …and mutations maintain it from then on
        assert g.min_degree_node() == 1
        assert g.degree_bucket(2) == {1, 2}
        g.check_degree_index()
        assert g.copy()._deg_index is None  # copies start lazy again
        assert g.subgraph([0, 1])._deg_index is None

    def test_lazy_build_matches_incremental(self):
        # Same churn, one graph queried from the start (incremental
        # maintenance) vs one queried only at the end (fresh build).
        a = preferential_attachment(25, 2, seed=8)
        b = a.copy()
        a.max_degree()  # force early build on a; b stays lazy
        for g in (a, b):
            g.remove_node(3)
            g.add_edge(5, 9)
            if g.has_edge(0, 1):
                g.remove_edge(0, 1)
        assert b._deg_index is None
        assert a.max_degree() == b.max_degree()
        assert a.max_degree_node() == b.max_degree_node()
        assert a.min_degree_node() == b.min_degree_node()


@pytest.mark.parametrize("backend", ["object", "array"])
def test_indexed_graph_is_freed_by_reference_counting(backend):
    """The degree index's oracle reads the adjacency container, not the
    graph, so a graph whose index was built (by a query, or by a
    targeted campaign) leaves no more for the cyclic GC than one whose
    index never was."""
    import gc

    from repro.adversary import ADVERSARIES
    from repro.core.registry import HEALERS
    from repro.sim.engine import run_campaign

    def graph():
        return preferential_attachment(2000, 3, seed=1, backend=backend)

    def never_indexed():
        graph()

    def queried():
        graph().max_degree()

    healer = HEALERS.make("dash")
    adversary = ADVERSARIES.make("neighbor-of-max", seed=2)

    def campaign():
        run_campaign(graph(), healer, adversary, id_seed=3, max_deletions=100)

    def left_for_gc(body):
        gc.collect()
        gc.disable()
        try:
            body()
            return gc.collect()
        finally:
            gc.enable()

    baseline = left_for_gc(never_indexed)
    assert left_for_gc(queried) <= baseline
    assert left_for_gc(campaign) <= baseline
