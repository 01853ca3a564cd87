"""Tests for the classic attack strategies."""

from __future__ import annotations

import random

import pytest

from repro.adversary.classic import (
    MaxDeltaNeighborAttack,
    MaxNodeAttack,
    MinDegreeAttack,
    NeighborOfMaxAttack,
    RandomAttack,
)
from repro.adversary.waves import RandomWaveAttack
from repro.core.dash import Dash
from repro.core.network import SelfHealingNetwork
from repro.graph.generators import (
    cycle_graph,
    path_graph,
    preferential_attachment,
    star_graph,
)
from repro.graph.graph import Graph


def net_of(graph) -> SelfHealingNetwork:
    return SelfHealingNetwork(graph, Dash(), seed=0)


class TestMaxNode:
    def test_picks_hub(self):
        net = net_of(star_graph(6))
        adv = MaxNodeAttack()
        adv.reset(net)
        assert adv.choose_target(net) == 0

    def test_tie_break_smallest_label(self):
        net = net_of(path_graph(4))  # degrees: 1,2,2,1
        adv = MaxNodeAttack()
        adv.reset(net)
        assert adv.choose_target(net) == 1

    def test_empty_graph_returns_none(self):
        net = net_of(Graph())
        adv = MaxNodeAttack()
        adv.reset(net)
        assert adv.choose_target(net) is None


class TestNeighborOfMax:
    def test_targets_a_neighbor_of_hub(self):
        net = net_of(star_graph(6))
        adv = NeighborOfMaxAttack(seed=1)
        adv.reset(net)
        target = adv.choose_target(net)
        assert target in {1, 2, 3, 4, 5}

    def test_isolated_hub_targets_hub(self):
        g = Graph([0, 1])
        net = net_of(g)
        adv = NeighborOfMaxAttack(seed=1)
        adv.reset(net)
        assert adv.choose_target(net) in {0, 1}

    def test_deterministic_by_seed(self):
        picks_a = []
        picks_b = []
        for picks, seed in ((picks_a, 5), (picks_b, 5)):
            net = net_of(star_graph(10))
            adv = NeighborOfMaxAttack(seed=seed)
            adv.reset(net)
            for _ in range(5):
                picks.append(adv.choose_target(net))
        assert picks_a == picks_b

    def test_reset_rewinds(self):
        net = net_of(star_graph(10))
        adv = NeighborOfMaxAttack(seed=2)
        adv.reset(net)
        first = adv.choose_target(net)
        adv.reset(net)
        assert adv.choose_target(net) == first


class TestRandom:
    def test_only_live_targets(self):
        net = net_of(path_graph(10))
        adv = RandomAttack(seed=3)
        adv.reset(net)
        for _ in range(9):
            v = adv.choose_target(net)
            assert net.graph.has_node(v)
            net.delete_and_heal(v)
        assert net.num_alive == 1

    def test_empty_none(self):
        net = net_of(Graph())
        adv = RandomAttack(seed=0)
        adv.reset(net)
        assert adv.choose_target(net) is None


class TestMinDegree:
    def test_picks_leaf(self):
        net = net_of(star_graph(5))
        adv = MinDegreeAttack()
        adv.reset(net)
        assert adv.choose_target(net) == 1  # smallest-label leaf


ALL_ADVERSARIES = [
    lambda: MaxNodeAttack(),
    lambda: NeighborOfMaxAttack(seed=1),
    lambda: MinDegreeAttack(),
    lambda: MaxDeltaNeighborAttack(seed=1),
    lambda: RandomAttack(seed=1),
]


class TestEdgeCases:
    """Empty graphs, lone nodes, and degree plateaus — the regimes where
    the indexed queries' cursors and tie-breaks have no slack."""

    @pytest.mark.parametrize("make_adv", ALL_ADVERSARIES)
    def test_empty_graph_returns_none(self, make_adv):
        net = net_of(Graph())
        adv = make_adv()
        adv.reset(net)
        assert adv.choose_target(net) is None

    @pytest.mark.parametrize("make_adv", ALL_ADVERSARIES)
    def test_single_isolated_node_is_the_target(self, make_adv):
        net = net_of(Graph([42]))
        adv = make_adv()
        adv.reset(net)
        assert adv.choose_target(net) == 42

    @pytest.mark.parametrize("make_adv", ALL_ADVERSARIES)
    def test_exhaustion_after_last_node(self, make_adv):
        net = net_of(Graph([7]))
        adv = make_adv()
        adv.reset(net)
        net.delete_and_heal(adv.choose_target(net))
        assert adv.choose_target(net) is None

    def test_all_ties_plateau_max_and_min_agree(self):
        # Cycle: every node has degree 2, so max-node and min-degree are
        # decided purely by the smallest-label tie-break.
        net = net_of(cycle_graph(12))
        for adv in (MaxNodeAttack(), MinDegreeAttack()):
            adv.reset(net)
            assert adv.choose_target(net) == 0

    def test_all_ties_plateau_delta(self):
        # Fresh network: every δ is 0 — the max-δ node is the smallest
        # label (0), and the target one of its two ring neighbors.
        net = net_of(cycle_graph(12))
        adv = MaxDeltaNeighborAttack(seed=3)
        adv.reset(net)
        assert adv.choose_target(net) in {1, 11}

    def test_plateau_shrinks_consistently(self):
        # Deleting along a path keeps re-creating ties between the two
        # endpoints (degree 1); the smaller label must win every time.
        net = net_of(path_graph(6))
        adv = MinDegreeAttack()
        adv.reset(net)
        first = adv.choose_target(net)
        assert first == 0
        net.delete_and_heal(first)
        assert adv.choose_target(net) == 1


class TestRandomResync:
    def test_resync_after_batch_heal(self):
        """Batch waves delete nodes behind the adversary's back; its
        survivors must resync instead of naming dead nodes."""
        net = net_of(star_graph(12))
        adv = RandomAttack(seed=4)
        adv.reset(net)
        v = adv.choose_target(net)
        net.delete_and_heal(v)
        rng = random.Random(4)
        while net.num_alive > 2:
            alive = sorted(net.graph.nodes())
            wave = rng.sample(alive, min(len(alive) - 1, 3))
            net.delete_batch_and_heal(wave)
            target = adv.choose_target(net)
            assert target is not None
            assert net.graph.has_node(target)

    def test_resync_then_normal_rounds_stay_live(self):
        net = net_of(path_graph(10))
        adv = RandomAttack(seed=9)
        adv.reset(net)
        net.delete_batch_and_heal([2, 5, 7])
        while net.num_alive > 0:
            target = adv.choose_target(net)
            assert net.graph.has_node(target)
            net.delete_and_heal(target)
        assert adv.choose_target(net) is None

    @staticmethod
    def _after_unasked_heals(adversary):
        """A reset adversary, then one death and one join it did not ask
        for: the node count is back where it was, the labels are not."""
        net = net_of(preferential_attachment(10, 2, seed=1))
        adversary.reset(net)
        net.delete_and_heal(3)
        net.insert_and_heal(10, [0, 1])
        return net, sorted(net.graph.nodes())

    def test_draw_after_unasked_heals_is_from_live_labels(self):
        for seed in range(200):
            adv = RandomAttack(seed=seed)
            net, live = self._after_unasked_heals(adv)
            assert adv.choose_target(net) == random.Random(seed).choice(live)

    def test_wave_after_unasked_heals_is_from_live_labels(self):
        for seed in range(200):
            adv = RandomWaveAttack(size=3, seed=seed)
            net, live = self._after_unasked_heals(adv)
            expected = random.Random(seed).sample(live, 3)
            assert adv.choose_wave(net) == expected


class TestMaxDeltaNeighbor:
    def test_initially_targets_neighbor_of_smallest_label(self):
        net = net_of(path_graph(4))
        adv = MaxDeltaNeighborAttack(seed=0)
        adv.reset(net)
        # all δ = 0 → tie-break on label picks node 0; its only nbr is 1
        assert adv.choose_target(net) == 1

    def test_chases_delta(self):
        g = star_graph(6)
        net = net_of(g)
        net.delete_and_heal(0)  # creates a positive-δ node
        adv = MaxDeltaNeighborAttack(seed=0)
        adv.reset(net)
        deltas = net.deltas()
        hot = max(sorted(deltas), key=lambda u: deltas[u])
        target = adv.choose_target(net)
        assert target in net.graph.neighbors(hot) or target == hot
