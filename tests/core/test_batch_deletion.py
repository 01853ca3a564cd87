"""Tests for simultaneous multi-node deletion (paper footnote 1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dash import Dash
from repro.core.naive import BinaryTreeHeal, LineHeal
from repro.core.network import SelfHealingNetwork
from repro.core.sdash import Sdash
from repro.errors import NodeNotFoundError
from repro.graph.generators import (
    grid_graph,
    path_graph,
    preferential_attachment,
    random_tree,
    star_graph,
)
from repro.graph.traversal import is_connected


class TestBasics:
    def test_empty_batch_is_noop(self):
        g = path_graph(4)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        assert net.delete_batch_and_heal([]) == []
        assert net.num_alive == 4

    def test_singleton_batch_equivalent_semantics(self):
        g = star_graph(6)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        events = net.delete_batch_and_heal([0])
        assert len(events) == 1
        assert events[0].deleted == frozenset({0})
        assert is_connected(net.graph)

    def test_missing_victim_raises(self):
        g = path_graph(4)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        with pytest.raises(NodeNotFoundError):
            net.delete_batch_and_heal([0, 99])

    def test_adjacent_victims_one_event(self):
        g = path_graph(6)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        events = net.delete_batch_and_heal([2, 3])  # adjacent → one comp
        assert len(events) == 1
        assert events[0].deleted == frozenset({2, 3})
        assert is_connected(net.graph)

    def test_separate_victims_two_events(self):
        g = path_graph(7)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        events = net.delete_batch_and_heal([1, 5])
        assert len(events) == 2
        assert is_connected(net.graph)

    def test_components_heal_in_repr_order(self):
        """Victim components heal sorted by the ``repr`` of their minimum
        label, not by the label itself: 11 before 2."""
        net = SelfHealingNetwork(path_graph(14), Dash(), seed=0)
        events = net.delete_batch_and_heal([2, 11])
        assert [e.deleted for e in events] == [
            frozenset({11}),
            frozenset({2}),
        ]
        assert [e.step for e in events] == [2, 2]


class TestConnectivityRestoration:
    def test_path_interleaved_victims(self):
        """Deleting alternating path nodes simultaneously is the nastiest
        small case: every survivor becomes isolated before healing."""
        g = path_graph(9)
        net = SelfHealingNetwork(g, Dash(), seed=1)
        net.delete_batch_and_heal([1, 3, 5, 7])
        assert is_connected(net.graph)
        assert net.num_alive == 5

    def test_mass_simultaneous_failure_ba(self):
        g = preferential_attachment(60, 2, seed=2)
        net = SelfHealingNetwork(g, Dash(), seed=2)
        rng = random.Random(3)
        victims = rng.sample(sorted(g.nodes()), 20)
        net.delete_batch_and_heal(victims)
        assert is_connected(net.graph)
        assert net.num_alive == 40

    def test_repeated_batches_to_destruction(self):
        g = preferential_attachment(50, 2, seed=4)
        net = SelfHealingNetwork(g, Dash(), seed=4)
        rng = random.Random(5)
        while net.num_alive > 3:
            alive = sorted(net.graph.nodes())
            k = min(len(alive) - 1, rng.randint(1, 6))
            net.delete_batch_and_heal(rng.sample(alive, k))
            assert is_connected(net.graph)

    @pytest.mark.parametrize(
        "healer_cls", [Dash, Sdash, BinaryTreeHeal, LineHeal],
        ids=lambda c: c.name,
    )
    def test_all_component_safe_healers(self, healer_cls):
        g = grid_graph(6, 6)
        net = SelfHealingNetwork(g, healer_cls(), seed=6)
        rng = random.Random(7)
        victims = rng.sample(sorted(g.nodes()), 12)
        net.delete_batch_and_heal(victims)
        assert is_connected(net.graph)

    @given(st.integers(0, 2_000))
    def test_property_random_batches_stay_connected(self, seed):
        g = preferential_attachment(25, 2, seed=seed)
        net = SelfHealingNetwork(g, Dash(), seed=seed)
        rng = random.Random(seed)
        while net.num_alive > 2:
            alive = sorted(net.graph.nodes())
            k = min(len(alive) - 1, rng.randint(1, 5))
            net.delete_batch_and_heal(rng.sample(alive, k))
            assert is_connected(net.graph)

    @given(st.integers(0, 1_000))
    def test_property_trees_survive_batches(self, seed):
        g = random_tree(25, seed=seed)
        net = SelfHealingNetwork(g, Dash(), seed=seed)
        rng = random.Random(seed + 1)
        while net.num_alive > 2:
            alive = sorted(net.graph.nodes())
            k = min(len(alive) - 1, 4)
            net.delete_batch_and_heal(rng.sample(alive, k))
            assert is_connected(net.graph)


class TestTrackerIntegrity:
    def test_tracker_consistent_after_batches(self):
        g = preferential_attachment(40, 2, seed=8)
        net = SelfHealingNetwork(g, Dash(), seed=8, check_invariants=False)
        rng = random.Random(9)
        for _ in range(6):
            alive = sorted(net.graph.nodes())
            if len(alive) <= 4:
                break
            net.delete_batch_and_heal(rng.sample(alive, 4))
            net.tracker.check_consistency()

    def test_degree_increase_stays_moderate(self):
        """Batch healing shouldn't blow past the sequential envelope by
        much: each victim component contributes one RT."""
        import math

        n = 60
        g = preferential_attachment(n, 2, seed=10)
        net = SelfHealingNetwork(g, Dash(), seed=10)
        rng = random.Random(11)
        while net.num_alive > 3:
            alive = sorted(net.graph.nodes())
            k = min(len(alive) - 1, 5)
            net.delete_batch_and_heal(rng.sample(alive, k))
        assert net.peak_delta <= 2 * 2 * math.log2(n)

    def test_events_recorded(self):
        g = path_graph(8)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        events = net.delete_batch_and_heal([2, 6])
        assert len(net.events) == 2
        assert net.events == events
