"""Tests for executable paper invariants (incl. Lemma 10)."""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import (
    check_component_labels,
    check_connectivity_invariant,
    check_degree_bound,
    check_degree_index,
    check_forest_invariant,
    check_healing_subset,
    lemma10_degree_sum_delta,
)
from repro.core.dash import Dash
from repro.core.naive import GraphHeal, LineHeal, NoHeal
from repro.core.network import SelfHealingNetwork
from repro.errors import InvariantViolation
from repro.graph.generators import (
    preferential_attachment,
    random_tree,
    star_graph,
)


class TestCheckers:
    def test_all_pass_on_healthy_dash_run(self):
        g = preferential_attachment(30, 2, seed=0)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        rng = random.Random(1)
        for _ in range(15):
            net.delete_and_heal(rng.choice(sorted(net.graph.nodes())))
        check_forest_invariant(net)
        check_connectivity_invariant(net)
        check_component_labels(net)
        check_degree_index(net)
        check_degree_bound(net)
        check_healing_subset(net)

    def test_degree_index_violation_detected(self):
        g = preferential_attachment(20, 2, seed=6)
        net = SelfHealingNetwork(g, Dash(), seed=6)
        net.delete_and_heal(next(iter(net.graph.nodes())))
        check_degree_index(net)
        # Wipe the δ-index's bucket storage: every live node is now
        # missing from the index, which the scan comparison must flag
        # unconditionally (no dependence on any node's δ history).
        net._delta_index._heaps.clear()
        net._delta_index._staged.clear()
        with pytest.raises(InvariantViolation):
            check_degree_index(net)

    def test_forest_violation_detected(self):
        g = preferential_attachment(30, 3, seed=2)
        net = SelfHealingNetwork(g, GraphHeal(), seed=2)
        rng = random.Random(3)
        with pytest.raises(InvariantViolation):
            while net.num_alive > 2:
                net.delete_and_heal(rng.choice(sorted(net.graph.nodes())))
                check_forest_invariant(net)

    def test_connectivity_violation_detected(self):
        g = star_graph(6)
        net = SelfHealingNetwork(g, NoHeal(), seed=0)
        net.delete_and_heal(0)
        with pytest.raises(InvariantViolation):
            check_connectivity_invariant(net)

    def test_component_label_violation_detected(self):
        g = preferential_attachment(20, 2, seed=4)
        net = SelfHealingNetwork(g, Dash(), seed=4)
        net.delete_and_heal(next(iter(net.graph.nodes())))
        check_component_labels(net)
        # Corrupt G′ behind the tracker's back: join two components the
        # tracker still believes are separate.
        labels = net.tracker.labels()
        a = next(iter(labels))
        b = next(u for u in labels if labels[u] != labels[a])
        net.healing_graph.add_edge(a, b)
        with pytest.raises(InvariantViolation):
            check_component_labels(net)

    @pytest.mark.parametrize(
        "corrupt, message",
        [("node", "healing-graph node 99"), ("edge", "healing edge")],
    )
    def test_healing_subset_violation_detected(self, corrupt, message):
        """G′ ⊆ G covers nodes as well as edges."""
        g = star_graph(6)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)
        check_healing_subset(net)
        if corrupt == "node":
            net.healing_graph.add_node(99)
        else:
            net.graph.remove_edge(*next(iter(net.healing_graph.edges())))
        with pytest.raises(InvariantViolation, match=message):
            check_healing_subset(net)

    def test_degree_bound_factor(self):
        g = star_graph(4)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)  # peak δ = 1
        check_degree_bound(net)  # 1 ≤ 2 log2 4 = 4
        with pytest.raises(InvariantViolation):
            check_degree_bound(net, factor=0.1)  # bound 0.4 < 1


class TestLemma10:
    @pytest.mark.parametrize(
        "healer_cls", [Dash, LineHeal], ids=["dash", "line"]
    )
    def test_tree_deletion_degree_sum_is_d_minus_2(self, healer_cls):
        """Lemma 10: on a tree, a locality-aware acyclic heal of a degree-d
        deletion raises the ex-neighbors' total degree by exactly d−2."""
        g = random_tree(40, seed=9)
        net = SelfHealingNetwork(g, healer_cls(), seed=9)
        rng = random.Random(4)
        for _ in range(20):
            candidates = [
                u for u in net.graph.nodes() if net.graph.degree(u) >= 1
            ]
            if not candidates:
                break
            v = rng.choice(sorted(candidates))
            d = net.graph.degree(v)
            before = net.graph.copy()
            net.delete_and_heal(v)
            change = lemma10_degree_sum_delta(before, net.graph, v)
            assert change == d - 2, (v, d)

    def test_missing_node_raises(self):
        g = random_tree(5, seed=0)
        with pytest.raises(InvariantViolation):
            lemma10_degree_sum_delta(g, g, 99)
