"""Exact per-round accounting for non-component-safe rounds.

A non-component-safe round whose plan rewires every G′-neighbor of the
victim takes the quotient merge; every other round — a plan that leaves
a shattered piece unrepresented, or one the quotient merge declines —
takes the BFS. Either way the round is settled before it returns: its
:class:`~repro.core.components.RoundStats` equal those of its twin on
the eager reference tracker (``_eager_tracker.py``), a split is
reported in the round that caused it, and the quotient merge changes
speed only, never output. These tests pin that at the tracker and
network level; the campaign-scale differential matrix lives in
``test_naive_fast_path.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import check_component_labels
from repro.core.base import ReconnectionPlan, empty_plan
from repro.core.components import ComponentTracker
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import InvariantViolation, SimulationError
from repro.graph.generators import path_graph, preferential_attachment
from repro.graph.graph import Graph

from tests.core._eager_tracker import EagerTracker, eager_tracker


def build(nodes, g_edges=(), gp_edges=(), *, eager=False):
    """A tracker (an :class:`EagerTracker` when ``eager``) over a
    hand-built G/G′ with deterministic IDs.

    IDs are (i/100, i) so node order == ID order: node 0 has the smallest.
    """
    g = Graph(nodes)
    for e in g_edges:
        g.add_edge(*e)
    gp = Graph(nodes)
    for e in gp_edges:
        gp.add_edge(*e)
    ids = {u: (u / 100.0, u) for u in nodes}
    tracker_cls = EagerTracker if eager else ComponentTracker
    tracker = tracker_cls(graph=g, healing_graph=gp, initial_ids=ids)
    tracker.rebuild_from_healing_graph()
    return g, gp, tracker


def heal_round(
    g, gp, tracker, victim, participants=(), plan_edges=(), *, safe=False
):
    """Delete ``victim`` and apply a plan (non-component-safe unless
    ``safe``). The defaults are a NoHeal-style empty plan: no
    participants, so every shattered piece is unrepresented."""
    label = tracker.label_of(victim)
    gp_nbrs = frozenset(gp.neighbors(victim) if gp.has_node(victim) else ())
    g.remove_node(victim)
    if gp.has_node(victim):
        gp.remove_node(victim)
    for a, b in plan_edges:
        g.add_edge(a, b)
        gp.add_edge(a, b)
    return tracker.round(
        deleted=victim,
        deleted_label=label,
        participants=tuple(participants),
        gprime_neighbors=gp_nbrs,
        component_safe=safe,
        plan_edges=tuple(plan_edges),
    )


class Twins:
    """A tracker and its eager twin over the same G/G′."""

    def __init__(self, nodes, g_edges=(), gp_edges=()):
        self.fast = build(nodes, g_edges, gp_edges)
        self.eager = build(nodes, g_edges, gp_edges, eager=True)

    @property
    def trackers(self):
        return self.fast[2], self.eager[2]

    def round(self, victim, participants=(), plan_edges=(), *, safe=False):
        """Run one round on both twins; the stats, labels and per-node
        counters must agree. Returns the stats."""
        stats = heal_round(
            *self.fast, victim, participants, plan_edges, safe=safe
        )
        eager_stats = heal_round(
            *self.eager, victim, participants, plan_edges, safe=safe
        )
        assert stats == eager_stats
        fast_tr, eager_tr = self.trackers
        assert fast_tr.labels() == eager_tr.labels()
        assert fast_tr.id_changes == eager_tr.id_changes
        assert fast_tr.messages_sent == eager_tr.messages_sent
        assert fast_tr.messages_received == eager_tr.messages_received
        fast_tr.check_consistency()
        eager_tr.check_consistency()
        return stats


class TestUncoveredPlans:
    def test_uncovered_pieces_are_charged_in_their_round(self):
        twins = Twins(
            [1, 2, 9],
            g_edges=[(9, 1), (9, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        stats = twins.round(9)
        assert stats.split
        # Piece {2} loses the tree's label (1's ID) and takes its own.
        assert stats.id_changes == 1
        assert stats.components_after == 2
        fast_tr, eager_tr = twins.trackers
        assert fast_tr.slow_rounds == 1 and fast_tr.fast_rounds == 0
        assert eager_tr.slow_rounds == 1
        assert fast_tr.deferred_rounds == 0
        assert fast_tr.lazy_resolutions == 0

    def test_consecutive_uncovered_rounds_are_each_charged(self):
        """Two shatters in two disjoint G′ trees: each round charges its
        own relabelling, nothing carries over to a later query."""
        twins = Twins(
            [1, 2, 3, 4, 8, 9],
            g_edges=[(9, 1), (9, 2), (8, 3), (8, 4), (2, 3)],
            gp_edges=[(9, 1), (9, 2), (8, 3), (8, 4)],
        )
        first = twins.round(9)
        second = twins.round(8)
        assert first.split and second.split
        assert first.id_changes == second.id_changes == 1
        # Node 2 announced its new ID to its one surviving neighbor (3),
        # and node 4 announced to nobody.
        assert (first.messages_sent, second.messages_sent) == (1, 0)
        fast_tr, _ = twins.trackers
        labels = fast_tr.labels()
        assert len({labels[u] for u in (1, 2, 3, 4)}) == 4

    def test_deletion_inside_a_split_tree(self):
        """A survivor of a split dies next round under its new label; the
        BFS only relabels what is left."""
        twins = Twins(
            [1, 2, 3, 9],
            g_edges=[(9, 1), (9, 2), (9, 3), (2, 3)],
            gp_edges=[(9, 1), (9, 2), (9, 3), (2, 3)],
        )
        stats = twins.round(9)
        assert stats.split
        assert stats.id_changes == 2  # piece {2, 3} takes 2's ID
        fast_tr, _ = twins.trackers
        assert fast_tr.label_of(3) == (0.02, 2)
        stats = twins.round(2)
        assert not stats.split
        assert stats.id_changes == 0  # MINID keeps the dead node's ID
        assert set(fast_tr.labels()) == {1, 3}

    def test_later_rounds_merge_settled_classes(self):
        """Right after an uncovered round, a component-safe round and a
        covering unsafe round both take the quotient merge."""
        twins = Twins(
            [1, 2, 5, 6, 7, 9],
            g_edges=[(9, 1), (9, 2), (5, 6), (7, 1), (7, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        assert twins.round(9).split
        twins.round(5, participants=(6,), safe=True)
        merged = twins.round(7, participants=(1, 2), plan_edges=[(1, 2)])
        assert not merged.split
        assert merged.components_merged == 2
        fast_tr, eager_tr = twins.trackers
        assert fast_tr.fast_rounds == 2 and fast_tr.slow_rounds == 1
        assert eager_tr.fast_rounds == 1 and eager_tr.slow_rounds == 2

    def test_dead_node_query_still_raises(self):
        g, gp, tracker = build(
            [1, 2, 9],
            g_edges=[(9, 1), (9, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        heal_round(g, gp, tracker, 9)
        with pytest.raises(SimulationError):
            tracker.label_of(9)


class TestUnsafeQuotient:
    def test_covering_unsafe_plan_matches_eager_accounting(self):
        """A GraphHeal-shaped unsafe round (every G′-neighbor rewired)
        resolves through the quotient merge with stats byte-identical to
        the eager BFS twin."""
        twins = Twins(
            [1, 2, 3, 9],
            g_edges=[(9, 1), (9, 2), (2, 3)],
            gp_edges=[(9, 1), (9, 2)],
        )
        stats = twins.round(9, participants=(1, 2), plan_edges=[(1, 2)])
        assert not stats.split
        fast_tr, eager_tr = twins.trackers
        assert fast_tr.fast_rounds == 1 and fast_tr.slow_rounds == 0
        assert eager_tr.slow_rounds == 1 and eager_tr.fast_rounds == 0

    def test_split_plan_takes_the_bfs(self):
        """An unsafe plan that covers the G′-neighbors but leaves the
        pieces in separate quotient classes cannot be attributed without
        a traversal: the quotient merge declines and the BFS reports the
        split in this round."""
        twins = Twins(
            [1, 2, 9],
            g_edges=[(9, 1), (9, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        # Participants present but no plan edges: two pieces, two classes.
        stats = twins.round(9, participants=(1, 2))
        assert stats.split
        fast_tr, _ = twins.trackers
        assert fast_tr.slow_rounds == 1 and fast_tr.fast_rounds == 0
        assert fast_tr.label_of(1) != fast_tr.label_of(2)


class _FlakyGraphHeal(HEALERS["graph-heal"]):
    """GraphHeal that drops every third plan (unsafe, empty): the
    shattered pieces go unrepresented, so those rounds take the BFS."""

    def __init__(self):
        self._round = 0

    def reset(self):
        self._round = 0

    def plan(self, snapshot):
        self._round += 1
        if self._round % 3 == 0:
            return self._third_plan(snapshot)
        return super().plan(snapshot)

    def _third_plan(self, snapshot):
        return empty_plan(snapshot, component_safe=False)


class _EdgelessGraphHeal(_FlakyGraphHeal):
    """GraphHeal whose every third plan (unsafe) rewires every neighbor
    but adds no edge: every piece is represented, so the round reaches
    the quotient merge, and the merge's piece-unity check must send it
    to the BFS whenever two pieces of one tree stay apart."""

    def _third_plan(self, snapshot):
        return ReconnectionPlan(
            participants=tuple(sorted(snapshot.g_neighbors, key=repr)),
            edges=(),
            kind="none",
        )


_GRAPHS = {
    "path24": lambda: path_graph(24),
    "pa200": lambda: preferential_attachment(200, 2, seed=1),
}


def _flaky_campaign(graph, healer, wave, fast):
    """Delete down to two survivors, one victim or a wave of up to four
    per round, on the eager reference tracker unless ``fast``."""
    with eager_tracker(not fast):
        net = SelfHealingNetwork(_GRAPHS[graph](), healer(), seed=5)
        rng = random.Random(8)
        while net.num_alive > 2:
            nodes = sorted(net.graph.nodes())
            if wave:
                size = min(rng.randint(1, 4), len(nodes) - 2)
                net.delete_batch_and_heal(rng.sample(nodes, size))
            else:
                net.delete_and_heal(rng.choice(nodes))
    return net


class TestNetworkIntegration:
    @pytest.mark.parametrize(
        "graph,healer,wave",
        [
            pytest.param("path24", _FlakyGraphHeal, False, id="path24"),
            pytest.param("pa200", _FlakyGraphHeal, False, id="pa200"),
            pytest.param(
                "pa200", _EdgelessGraphHeal, False, id="pa200-edgeless"
            ),
            pytest.param(
                "pa200", _EdgelessGraphHeal, True, id="pa200-edgeless-wave"
            ),
        ],
    )
    def test_fast_path_never_changes_events(self, graph, healer, wave):
        """A custom healer whose plans sometimes leave pieces
        unrepresented, or represent them without joining them, gets the
        same event stream and per-node accounting with the fast path on
        and off, in single-victim and wave rounds. The edgeless plans
        reach the quotient merge, whose piece-unity check must decline
        them."""
        fast_net = _flaky_campaign(graph, healer, wave, True)
        slow_net = _flaky_campaign(graph, healer, wave, False)
        assert fast_net.events == slow_net.events
        fast_tr, slow_tr = fast_net.tracker, slow_net.tracker
        assert fast_tr.id_changes == slow_tr.id_changes
        assert fast_tr.messages_sent == slow_tr.messages_sent
        assert fast_tr.messages_received == slow_tr.messages_received
        assert fast_tr.labels() == slow_tr.labels()
        # Both dispatch arms ran: the dropped or edgeless plans took the
        # BFS.
        if wave:
            assert fast_tr.fast_batch_rounds > 0
            assert fast_tr.slow_batch_rounds > 0
        else:
            assert fast_tr.fast_rounds > 0 and fast_tr.slow_rounds > 0
        fast_tr.check_consistency()

    def test_invariant_check_after_uncovered_rounds(self):
        """``check_component_labels`` holds right after an uncovered
        round, and a corrupted tracker still fails loudly."""
        net = SelfHealingNetwork(path_graph(10), _FlakyGraphHeal(), seed=1)
        for victim in (5, 3, 4):
            net.delete_and_heal(victim)
            check_component_labels(net)
        assert net.tracker.slow_rounds == 1
        assert net.events[-1].split
        tracker = net.tracker
        root = next(iter(tracker._root_members))
        tracker._root_label[root] = (2.0, 999)
        with pytest.raises(InvariantViolation):
            check_component_labels(net)
