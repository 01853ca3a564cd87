"""Tests for the SelfHealingNetwork orchestration."""

from __future__ import annotations

import random

import pytest

from repro.core.dash import Dash
from repro.core.naive import NoHeal
from repro.core.network import SelfHealingNetwork
from repro.errors import InvariantViolation, NodeNotFoundError
from repro.graph.generators import (
    path_graph,
    preferential_attachment,
    star_graph,
)
from repro.graph.graph import Graph


class TestInit:
    def test_initial_state(self):
        g = preferential_attachment(20, 2, seed=0)
        net = SelfHealingNetwork(g, Dash(), seed=1)
        assert net.initial_n == 20
        assert net.num_alive == 20
        assert net.peak_delta == 0
        assert net.healing_graph.num_edges == 0
        assert net.healing_graph.num_nodes == 20
        assert all(net.delta(u) == 0 for u in g.nodes())

    def test_ids_deterministic_by_seed(self):
        g1 = preferential_attachment(10, 2, seed=0)
        g2 = preferential_attachment(10, 2, seed=0)
        a = SelfHealingNetwork(g1, Dash(), seed=5)
        b = SelfHealingNetwork(g2, Dash(), seed=5)
        assert a.initial_ids == b.initial_ids


class TestDeleteAndHeal:
    def test_event_contents(self):
        g = star_graph(5)  # hub 0 with leaves 1..4
        net = SelfHealingNetwork(g, Dash(), seed=0)
        event = net.delete_and_heal(0)
        assert event.deleted == 0
        assert event.step == 1
        assert len(event.participants) == 4
        assert len(event.new_edges) == 3  # binary tree over 4 nodes
        assert event.components_after == 1
        assert not event.split

    def test_degree_one_deletion_adds_nothing(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        event = net.delete_and_heal(0)  # leaf
        assert event.new_edges == ()
        assert net.graph.has_edge(1, 2)

    def test_isolated_deletion(self):
        g = Graph([0, 1])
        g.add_edge(0, 1)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)
        net.delete_and_heal(1)  # now isolated
        assert net.num_alive == 0

    def test_deleting_missing_node_raises(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        with pytest.raises(NodeNotFoundError):
            net.delete_and_heal(99)

    def test_double_delete_raises(self):
        g = path_graph(4)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)
        with pytest.raises(NodeNotFoundError):
            net.delete_and_heal(0)

    def test_delete_and_heal_many(self):
        g = path_graph(6)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        events = net.delete_and_heal_many([0, 1, 2])
        assert [e.deleted for e in events] == [0, 1, 2]
        assert net.num_alive == 3


class TestDeltaTracking:
    def test_delta_after_star_heal(self):
        """Deleting the hub of a 4-star: RT is a binary tree over 3 leaves;
        the root of the RT gains 2 edges but loses 1 to the hub → δ=1."""
        g = star_graph(4)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)
        deltas = sorted(net.delta(u) for u in net.graph.nodes())
        assert deltas == [0, 0, 1]
        assert net.peak_delta == 1

    def test_delta_can_go_negative(self):
        g = star_graph(4)
        net = SelfHealingNetwork(g, NoHeal(), seed=0)
        net.delete_and_heal(0)
        assert all(net.delta(u) == -1 for u in net.graph.nodes())
        assert net.peak_delta == 0  # peak never goes below 0

    def test_delta_missing_node_raises(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        with pytest.raises(NodeNotFoundError):
            net.delta(99)

    def test_peak_delta_follows_every_heal_kind_without_an_index(self):
        """Each heal raises ``peak_delta`` from the nodes it touched (a
        deletion's ex-neighbours, a wave's surviving boundary, a join's
        targets), so the peak equals the running maximum of fresh δ
        scans, and a campaign that asks no δ query builds no δ index."""
        g = preferential_attachment(60, 2, seed=3)
        net = SelfHealingNetwork(g, Dash(), seed=3)
        rng = random.Random(3)
        peak = 0
        for step in range(30):
            alive = sorted(net.graph.nodes())
            if step % 3 == 0:
                net.delete_and_heal(rng.choice(alive))
            elif step % 3 == 1:
                net.insert_and_heal(100 + step, rng.sample(alive, 3))
            else:
                net.delete_batch_and_heal(rng.sample(alive, 3))
            degrees = net.graph.degrees()
            peak = max(
                peak, *(d - net.initial_degree[u] for u, d in degrees.items())
            )
            assert net.peak_delta == peak, step
        assert peak > 0
        assert net._delta_index is None

    def test_max_delta_empty(self):
        g = Graph([0])
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(0)
        assert net.max_delta() == 0


class TestParanoidMode:
    def test_invariants_pass_for_dash(self):
        g = preferential_attachment(25, 2, seed=3)
        net = SelfHealingNetwork(g, Dash(), seed=1, check_invariants=True)
        for u in sorted(g.copy().nodes())[:10]:
            if net.graph.has_node(u):
                net.delete_and_heal(u)

    def test_violation_raises_invariant_violation(self):
        """Paranoid mode runs the :mod:`repro.analysis.invariants` checks,
        so a broken Lemma 1 raises ``InvariantViolation``."""
        g = preferential_attachment(40, 2, seed=5)
        net = SelfHealingNetwork(g, Dash(), seed=5, check_invariants=True)
        net.delete_and_heal(0)
        members: dict = {}
        for u, label in net.tracker.labels().items():
            members.setdefault(label, []).append(u)
        tree = sorted(max(members.values(), key=len))
        # A chord inside one G′ tree closes a cycle but joins no
        # components, so the tracker's labels still hold.
        chord = next(
            (a, c)
            for a in tree
            for c in tree
            if a < c and not net.healing_graph.has_edge(a, c)
        )
        net.healing_graph.add_edge(*chord)
        victim = next(u for u in sorted(net.graph.nodes()) if u not in tree)
        with pytest.raises(InvariantViolation, match="Lemma 1"):
            net.delete_and_heal(victim)

    def test_healing_edges_subset_of_g(self):
        g = preferential_attachment(30, 2, seed=4)
        net = SelfHealingNetwork(g, Dash(), seed=2)
        rng = random.Random(0)
        while net.num_alive > 5:
            net.delete_and_heal(rng.choice(sorted(net.graph.nodes())))
        for a, b in net.healing_graph.edges():
            assert net.graph.has_edge(a, b)
