"""Tests for LEVELATTACK / Prune (the Theorem 2 adversary)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.adversary.levelattack import LevelAttack, prune_order
from repro.adversary.scripted import ScriptedAttack
from repro.core.dash import Dash
from repro.core.naive import DegreeBoundedHealer
from repro.core.network import SelfHealingNetwork
from repro.errors import AdversaryError, ConfigurationError
from repro.graph.generators import (
    complete_kary_tree,
    kary_tree_size,
    path_graph,
)
from repro.graph.traversal import is_connected
from repro.service.request import CampaignRequest
from repro.api import run_campaign


class TestPruneOrder:
    def test_deletes_leaf_first(self):
        g = complete_kary_tree(2, 3)
        # prune the subtree of child 1 (avoid root 0)
        order = prune_order(g, avoid=0, start=1)
        # deleting in this order must always remove a current leaf of the
        # subtree (degree ≤ 1 once earlier deletions are applied)
        work = g.copy()
        for v in order:
            assert work.degree(v) <= 2  # leaf + edge toward avoid at most
            sub_nbrs = [u for u in work.neighbors_view(v) if u != 0]
            assert len(sub_nbrs) <= 1 or v == 1
            work.remove_node(v)
        # entire subtree gone
        assert not any(work.has_node(v) for v in order)

    def test_covers_component(self):
        g = complete_kary_tree(3, 2)
        order = prune_order(g, avoid=0, start=1)
        # subtree of node 1 in a 3-ary depth-2 tree: 1 + its 3 children
        assert set(order) == {1, 4, 5, 6}

    def test_missing_start_raises(self):
        with pytest.raises(AdversaryError):
            prune_order(path_graph(3), avoid=0, start=99)


class TestLevelAttack:
    @pytest.mark.parametrize(
        "m,depth", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]
    )
    def test_forces_depth_delta_on_bounded_healer(self, m, depth):
        """Theorem 2: forced degree increase ≥ D on the (M+2)-ary tree."""
        branching = m + 2
        g = complete_kary_tree(branching, depth)
        res = run_campaign(
            g,
            DegreeBoundedHealer(max_increase=m),
            LevelAttack(branching),
            id_seed=1,
        )
        assert res.peak_delta >= depth

    def test_ends_after_root_with_leaves_surviving(self):
        """Algorithm 2 sweeps levels D−1..0; the original leaves that were
        never pruned survive, hanging off whatever healed structure
        remains after the root's deletion."""
        g = complete_kary_tree(3, 3)
        n = g.num_nodes
        res = run_campaign(
            g, DegreeBoundedHealer(max_increase=1), LevelAttack(3), id_seed=0
        )
        assert res.final_alive > 0
        assert res.deletions == n - res.final_alive
        # every internal (non-leaf) original node was deleted: at most the
        # 27 original leaves survive
        assert res.final_alive <= 27

    def test_connectivity_maintained_throughout(self):
        g = complete_kary_tree(3, 3)
        net = SelfHealingNetwork(
            g, DegreeBoundedHealer(max_increase=1), seed=0
        )
        adv = LevelAttack(3)
        adv.reset(net)
        while net.num_alive > 1:
            v = adv.choose_target(net)
            if v is None:
                break
            net.delete_and_heal(v)
            assert is_connected(net.graph)

    def test_dash_respects_its_bound_under_levelattack(self):
        g = complete_kary_tree(3, 4)
        n = g.num_nodes
        res = run_campaign(g, Dash(), LevelAttack(3), id_seed=0)
        assert res.peak_delta <= 2 * math.log2(n)

    def test_requires_heap_labels(self):
        g = path_graph(5)
        g.add_node(100)  # labels not 0..n-1 contiguous
        g.add_edge(4, 100)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        adv = LevelAttack(3)
        adv.reset(net)
        with pytest.raises(AdversaryError):
            adv.choose_target(net)

    def test_invalid_branching(self):
        with pytest.raises(ConfigurationError):
            LevelAttack(1)

    def test_expected_lower_bound_helper(self):
        adv = LevelAttack(3)
        assert adv.expected_lower_bound(kary_tree_size(3, 2)) == 2
        assert adv.expected_lower_bound(kary_tree_size(3, 3)) == 3


class TestScripted:
    def test_replays_in_order(self):
        g = path_graph(5)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        adv = ScriptedAttack([4, 3, 2])
        adv.reset(net)
        assert adv.choose_target(net) == 4
        net.delete_and_heal(4)
        assert adv.choose_target(net) == 3
        net.delete_and_heal(3)
        assert adv.choose_target(net) == 2

    def test_strict_raises_on_dead_victim(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(1)
        adv = ScriptedAttack([1])
        adv.reset(net)
        with pytest.raises(AdversaryError):
            adv.choose_target(net)

    def test_lenient_skips_dead(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        net.delete_and_heal(1)
        adv = ScriptedAttack([1, 0], strict=False)
        adv.reset(net)
        assert adv.choose_target(net) == 0

    def test_exhausted_returns_none(self):
        g = path_graph(3)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        adv = ScriptedAttack([])
        adv.reset(net)
        assert adv.choose_target(net) is None

    @pytest.mark.parametrize(
        "victims", ([0, True], [1, -2], [0, 1.0], "abc", [np.int64(3)])
    )
    def test_refuses_victims_that_are_not_labels(self, victims):
        # A bool would delete the node it equals and be recorded as
        # itself; a string spec's characters would fail at round 1.
        with pytest.raises(ConfigurationError, match="node labels"):
            ScriptedAttack(victims)

    def test_spec_with_non_label_victims_fails_at_the_door(self):
        request = CampaignRequest(
            generator="path:5", adversary="scripted:abc"
        )
        with pytest.raises(ConfigurationError, match="node labels"):
            request.validate()
