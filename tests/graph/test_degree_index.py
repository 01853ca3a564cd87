"""Unit tests for the push-only lazy bucket index and the network's use of
it: :class:`~repro.core.network.SelfHealingNetwork` keeps a degree index
beside its δ index, fed from the nodes each heal touched."""

from __future__ import annotations

import random

import pytest

from repro.adversary import ADVERSARIES
from repro.core.dash import Dash
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import SimulationError
from repro.graph.degree_index import DegreeIndex
from repro.graph.generators import (
    cycle_graph,
    erdos_renyi,
    preferential_attachment,
    star_graph,
)
from repro.graph.graph import Graph
from repro.sim import fastpath


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


def scan(network: SelfHealingNetwork) -> tuple:
    """The degree queries' answers from a fresh scan of G: the extreme
    degrees, and the smallest label at each."""
    degrees = network.graph.degrees()
    top = max(degrees.values(), default=0)
    low = min(degrees.values(), default=0)
    return (
        top,
        min((u for u, d in degrees.items() if d == top), default=None),
        min((u for u, d in degrees.items() if d == low), default=None),
    )


def answers(network: SelfHealingNetwork) -> tuple:
    return (
        network.max_degree(),
        network.max_degree_node(),
        network.min_degree_node(),
    )


def assert_matches_scan(network: SelfHealingNetwork) -> None:
    assert answers(network) == scan(network)
    degrees = network.graph.degrees()
    for d in set(degrees.values()):
        expected = {u for u, du in degrees.items() if du == d}
        assert network.degree_bucket(d) == expected
    network.check_degree_index()


def unused_label(network: SelfHealingNetwork) -> int:
    return max(network.initial_ids) + 1


class TestNetworkDegreeIndex:
    def test_queries_at_init(self):
        net = SelfHealingNetwork(star_graph(6), Dash())  # hub 0, 5 leaves
        assert answers(net) == (5, 0, 1)  # smallest-label leaf
        assert net.degree_bucket(1) == {1, 2, 3, 4, 5}
        assert net.degree_bucket(7) == frozenset()
        assert_matches_scan(net)

    def test_empty_network(self):
        net = SelfHealingNetwork(Graph(), Dash())
        assert answers(net) == (0, None, None)
        assert net.degree_bucket(0) == frozenset()
        net.check_degree_index()

    def test_matches_scan_after_deletion_join_and_wave(self):
        net = SelfHealingNetwork(
            preferential_attachment(40, 2, seed=4), Dash(), seed=4
        )
        assert_matches_scan(net)
        net.delete_and_heal(net.max_degree_node())
        assert_matches_scan(net)
        joiner = unused_label(net)
        net.insert_and_heal(joiner, [net.max_degree_node(), 7, 9])
        assert_matches_scan(net)
        assert net.degree_bucket(net.graph.degree(joiner)) >= {joiner}
        net.delete_batch_and_heal([joiner, 7, 11, 12])
        assert_matches_scan(net)
        net.delete_and_heal(net.min_degree_node())
        assert_matches_scan(net)

    def test_cycle_heal_moves_the_extremes(self):
        net = SelfHealingNetwork(cycle_graph(6), Dash(), seed=1)
        assert answers(net) == (2, 0, 0)
        net.delete_and_heal(0)  # DASH joins 1 and 5: the ring closes
        assert answers(net) == scan(net) == (2, 1, 1)
        net.delete_batch_and_heal([2, 3])  # 1 and 4 lose a neighbour
        assert_matches_scan(net)

    @pytest.mark.parametrize("healer", ["dash", "sdash", "graph-heal"])
    def test_matches_scan_through_random_churn(self, healer):
        rng = random.Random(0)
        net = SelfHealingNetwork(
            erdos_renyi(40, 0.15, seed=2), HEALERS.make(healer), seed=2
        )
        net.max_degree()  # built from the start, kept by every heal
        for _ in range(60):
            alive = sorted(net.graph.nodes())
            op = rng.random()
            if op < 0.5 and len(alive) > 2:
                net.delete_and_heal(rng.choice(alive))
            elif op < 0.8:
                targets = rng.sample(alive, min(3, len(alive)))
                net.insert_and_heal(unused_label(net), targets)
            elif len(alive) > 4:
                net.delete_batch_and_heal(rng.sample(alive, 3))
            assert_matches_scan(net)

    def test_no_heal_builds_an_index(self):
        net = SelfHealingNetwork(
            preferential_attachment(30, 2, seed=5), Dash(), seed=5
        )
        net.delete_and_heal(3)
        net.insert_and_heal(unused_label(net), [0, 1])
        net.delete_batch_and_heal([4, 5, 6])
        assert net._degree_index is None and net._delta_index is None
        assert net.max_degree_node() == scan(net)[1]  # first query builds…
        assert net._degree_index is not None
        assert net._delta_index is None  # …the degree index alone
        net.delete_and_heal(net.max_degree_node())  # …heals keep it
        assert_matches_scan(net)

    def test_check_builds_an_unbuilt_index(self):
        net = SelfHealingNetwork(star_graph(5), Dash())
        net.check_degree_index()
        assert net._degree_index is not None
        # A mutation behind the network's back leaves the index stale,
        # and the check says so.
        net.graph.add_edge(1, 2)
        with pytest.raises(SimulationError):
            net.check_degree_index()

    def test_lazy_build_matches_incremental(self):
        # The same heals on two networks: one queried from the start
        # (incremental upkeep), one only at the end (a fresh build).
        a, b = (
            SelfHealingNetwork(
                preferential_attachment(25, 2, seed=8), Dash(), seed=8
            )
            for _ in range(2)
        )
        a.max_degree()
        for net in (a, b):
            net.delete_and_heal(3)
            net.insert_and_heal(30, [5, 9])
            net.delete_batch_and_heal([0, 1])
        assert b._degree_index is None
        assert answers(a) == answers(b) == scan(a)

    def test_fused_campaign_leaves_both_indexes_unbuilt(self):
        net = SelfHealingNetwork(
            preferential_attachment(200, 3, seed=1), Dash(), seed=1
        )
        net.max_degree()
        net.max_delta()
        adversary = ADVERSARIES.make("random", seed=2)
        adversary.reset(net)
        assert fastpath.supports(net, adversary)
        fastpath.run_fused(
            net, adversary, stop_alive=50, max_rounds=None,
            max_deletions=None,
        )
        assert net._degree_index is None and net._delta_index is None
        assert_matches_scan(net)
        net.check_delta_index()
