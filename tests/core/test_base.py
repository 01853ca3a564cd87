"""Tests for the healer framework: snapshots, UN(v,G), plan validation."""

from __future__ import annotations

import pytest

from repro.core.base import NeighborhoodSnapshot, ReconnectionPlan
from repro.core.dash import Dash
from repro.core.network import SelfHealingNetwork
from repro.errors import HealingError
from repro.graph.graph import Graph
from repro.graph.traversal import induced_components


def snapshot_of(net: SelfHealingNetwork, v) -> NeighborhoodSnapshot:
    return net.snapshot_neighborhood(v)


class TestUniqueNeighbors:
    def test_initially_all_neighbors_unique(self):
        """Before any healing, every node is its own G′ component, so
        UN(v,G) = N(v,G)."""
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        net = SelfHealingNetwork(g, Dash(), seed=0)
        snap = snapshot_of(net, 0)
        assert sorted(snap.unique_neighbors()) == [1, 2, 3]
        assert snap.gprime_neighbors == frozenset()

    def test_one_rep_per_component_matches_ground_truth(self):
        """After healing merges components, UN must contain exactly one
        node per true G′ component among the foreign neighbors."""
        g = Graph.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4), (9, 1), (9, 2), (9, 3), (9, 4)]
        )
        net = SelfHealingNetwork(g, Dash(), seed=1)
        net.delete_and_heal(9)  # merges 1,2,3,4 into one G′ component
        snap = snapshot_of(net, 0)
        un = snap.unique_neighbors()
        comps = induced_components(
            net.healing_graph, net.healing_graph.nodes()
        )
        # group true components of the foreign neighbors
        foreign = [u for u in snap.g_neighbors
                   if snap.labels[u] != net.tracker.label_of(0)]
        true_comps = {
            frozenset(c) & set(foreign)
            for c in comps
            if frozenset(c) & set(foreign)
        }
        assert len(un) == len(true_comps)
        for rep in un:
            assert any(rep in c for c in true_comps)

    def test_rep_is_lowest_initial_id(self):
        g = Graph.from_edges([(0, 1), (0, 2), (9, 1), (9, 2)])
        net = SelfHealingNetwork(g, Dash(), seed=3)
        net.delete_and_heal(9)  # 1 and 2 now share a component
        snap = snapshot_of(net, 0)
        un = snap.unique_neighbors()
        assert len(un) == 1
        expected = min((1, 2), key=lambda u: net.initial_ids[u])
        assert un[0] == expected

    def test_participants_disjoint_union(self):
        g = Graph.from_edges([(0, 1), (0, 2), (9, 1), (9, 2)])
        net = SelfHealingNetwork(g, Dash(), seed=3)
        net.delete_and_heal(9)
        snap = snapshot_of(net, 0)
        parts = snap.participants()
        assert len(parts) == len(set(parts))
        assert set(snap.gprime_neighbors) <= set(parts)


class TestSortByDelta:
    def test_orders_by_delta_then_initial_id(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        net = SelfHealingNetwork(g, Dash(), seed=0)
        snap = snapshot_of(net, 0)
        ordered = snap.sort_by_delta([1, 2, 3])
        # all δ equal → ties broken by initial id ascending
        ids = [net.initial_ids[u] for u in ordered]
        assert ids == sorted(ids)


class TestPlanValidation:
    class RogueHealer(Dash):
        """Plans an edge outside the deleted node's neighborhood."""

        def plan(self, snapshot):
            plan = super().plan(snapshot)
            return ReconnectionPlan(
                participants=plan.participants,
                edges=plan.edges + ((3, 4),),
                kind="binary-tree",
                component_safe=False,
            )

    def test_locality_violation_rejected(self):
        g = Graph.from_edges([(0, 1), (0, 2), (3, 4), (1, 3)])
        net = SelfHealingNetwork(g, self.RogueHealer(), seed=0)
        with pytest.raises(HealingError, match="locality"):
            net.delete_and_heal(0)

    class SelfLoopHealer(Dash):
        def plan(self, snapshot):
            u = next(iter(snapshot.g_neighbors))
            return ReconnectionPlan(
                participants=(u,),
                edges=((u, u),),
                kind="binary-tree",
                component_safe=False,
            )

    def test_self_loop_rejected(self):
        g = Graph.from_edges([(0, 1), (0, 2)])
        net = SelfHealingNetwork(g, self.SelfLoopHealer(), seed=0)
        with pytest.raises(HealingError, match="self-loop"):
            net.delete_and_heal(0)

    class LyingHealer(Dash):
        """Claims component_safe but rewires only part of the required set."""

        def plan(self, snapshot):
            plan = super().plan(snapshot)
            return ReconnectionPlan(
                participants=plan.participants[:1],
                edges=(),
                kind="binary-tree",
                component_safe=True,
            )

    def test_component_safe_contract_enforced(self):
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
        net = SelfHealingNetwork(g, self.LyingHealer(), seed=0)
        with pytest.raises(HealingError, match="component_safe"):
            net.delete_and_heal(0)
