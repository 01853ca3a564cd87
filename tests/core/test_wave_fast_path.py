"""Differential tests: quotient fast path vs. the traversal path for waves.

``delete_batch_and_heal`` resolves component-safe victim-component
rounds with :meth:`~repro.core.components.ComponentTracker.fast_batch_round`
(the multi-victim generalization of the single-deletion quotient merge)
and falls back to the honest BFS (`batch_round`) whenever a wave's
preconditions fail. The paper's accounting must not move by a single
message either way: these tests replay identical wave campaigns on
the network's tracker and on the eager reference tracker
(``_eager_tracker.py``, every wave round by the BFS) and assert
byte-identical
:class:`~repro.core.network.HealEvent` streams, per-node
``id_changes``/``messages_sent``/``messages_received``, component
labels, final topology, and peak δ — across topology families × healers
× wave schedules, with the ``check_component_labels`` and
``check_degree_index`` invariants verified after every wave on the
fast side.

The suite also asserts the fast path actually fires (a silent
always-fallback would pass every equivalence check while regressing the
whole point) and pins the engineered edge cases: dead trees shared
between victim components of one wave, full-kill waves, and non-tree
healers that must never enter the fast path.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import check_component_labels, check_degree_index
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    path_graph,
    preferential_attachment,
    random_tree,
    watts_strogatz,
)
from repro.api import run_campaign

from repro.adversary.waves import RandomWaveAttack, TargetedWaveAttack

from tests.core._eager_tracker import eager_tracker

EVENT_FIELDS = (
    "deleted",
    "plan_kind",
    "participants",
    "new_edges",
    "edges_added_to_g",
    "id_changes",
    "messages_sent",
    "components_merged",
    "components_after",
    "split",
)

#: ≥4 topology families per the acceptance criteria
TOPOLOGIES = [
    ("pa", lambda: preferential_attachment(90, 2, seed=3)),
    ("er", lambda: erdos_renyi(70, 0.08, seed=4)),
    ("ws", lambda: watts_strogatz(72, 4, 0.2, seed=5)),
    ("tree", lambda: random_tree(60, seed=6)),
    ("grid", lambda: grid_graph(8, 8)),
]

HEALER_NAMES = ["dash", "sdash", "binary-tree-heal"]

SCHEDULES = [
    ("constant", ("constant", 5)),
    ("geometric", ("geometric", 2, 1.6)),
]


def assert_equivalent(
    fast_net: SelfHealingNetwork, slow_net: SelfHealingNetwork
):
    """Full-state equivalence between a fast-path and a traversal run."""
    assert len(fast_net.events) == len(slow_net.events)
    for ev_fast, ev_slow in zip(fast_net.events, slow_net.events):
        for f in EVENT_FIELDS:
            assert getattr(ev_fast, f) == getattr(ev_slow, f), (
                f"round {ev_fast.step}: {f} diverged "
                f"({getattr(ev_fast, f)!r} != {getattr(ev_slow, f)!r})"
            )
    fast_tr, slow_tr = fast_net.tracker, slow_net.tracker
    assert fast_tr.labels() == slow_tr.labels()
    assert fast_tr.components() == slow_tr.components()
    assert fast_tr.id_changes == slow_tr.id_changes
    assert fast_tr.messages_sent == slow_tr.messages_sent
    assert fast_tr.messages_received == slow_tr.messages_received
    assert fast_net.graph == slow_net.graph
    assert fast_net.healing_graph == slow_net.healing_graph
    assert fast_net.peak_delta == slow_net.peak_delta
    assert slow_tr.fast_batch_rounds == 0


class _CheckInvariantsMetric:
    """Verifies tracker labels and degree/δ indexes after every event."""

    def on_event(self, network, event) -> None:
        check_component_labels(network)
        check_degree_index(network)

    def finalize(self, network) -> dict[str, float]:
        return {}


@pytest.mark.parametrize(
    "topo_name,make_graph", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES]
)
@pytest.mark.parametrize("healer_name", HEALER_NAMES)
@pytest.mark.parametrize(
    "sched_name,schedule", SCHEDULES, ids=[s[0] for s in SCHEDULES]
)
def test_random_wave_campaign_matches_traversal(
    topo_name, make_graph, healer_name, sched_name, schedule
):
    """Full-kill random-wave campaigns, invariant-checked every round."""

    def campaign(fast: bool):
        with eager_tracker(not fast):
            return run_campaign(
                make_graph(),
                HEALERS[healer_name](),
                RandomWaveAttack(schedule, seed=13),
                id_seed=7,
                metrics=[_CheckInvariantsMetric()] if fast else [],
                keep_events=True,
                keep_network=True,
            )

    fast_run = campaign(True)
    slow_run = campaign(False)
    assert fast_run.final_alive == 0
    assert fast_run.deletions == slow_run.deletions
    assert fast_run.values["waves"] == slow_run.values["waves"]
    assert fast_run.network.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_run.network, slow_run.network)


@pytest.mark.parametrize("healer_name", HEALER_NAMES)
def test_targeted_wave_campaign_matches_traversal(healer_name):
    """Decapitation waves (top-k hubs die at once) hit dense boundaries."""

    def campaign(fast: bool):
        with eager_tracker(not fast):
            return run_campaign(
                preferential_attachment(100, 3, seed=17),
                HEALERS[healer_name](),
                TargetedWaveAttack(("constant", 6)),
                id_seed=17,
                metrics=[_CheckInvariantsMetric()] if fast else [],
                keep_events=True,
                keep_network=True,
            )

    fast_run = campaign(True)
    slow_run = campaign(False)
    assert fast_run.final_alive == 0
    assert fast_run.network.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_run.network, slow_run.network)


@pytest.mark.parametrize("seed", [0, 5, 23])
def test_mixed_wave_and_single_rounds_match(seed):
    """Waves interleaved with single deletions keep all three paths
    (single fast, batch fast, batch traversal) mutually consistent."""

    def campaign(fast: bool):
        with eager_tracker(not fast):
            net = SelfHealingNetwork(
                preferential_attachment(80, 2, seed=seed),
                HEALERS["dash"](),
                seed=seed,
            )
            net.tracker  # built on first use: bind the tracker class here
        rng = random.Random(seed + 1)
        while net.num_alive > 3:
            alive = sorted(net.graph.nodes())
            if rng.random() < 0.4:
                net.delete_and_heal(rng.choice(alive))
            else:
                wave = rng.sample(alive, min(len(alive), rng.randint(2, 9)))
                net.delete_batch_and_heal(wave)
            if fast:
                net.tracker.check_consistency()
        return net

    fast_net = campaign(True)
    slow_net = campaign(False)
    assert fast_net.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_net, slow_net)


def test_shared_dead_tree_forces_one_honest_round():
    """A G′ tree whose victims span several victim components must be
    recomputed by the first round that touches it; later rounds of the
    same wave go fast. Engineered: heal a path's interior so one G′ tree
    spans it, then kill two non-adjacent nodes of that tree at once."""
    net = SelfHealingNetwork(path_graph(12), HEALERS["dash"](), seed=1)
    # Build one healing tree 2—4—6 across the middle of the path (each
    # single deletion reconnects the victim's two path neighbors).
    net.delete_and_heal(5)
    net.delete_and_heal(3)
    assert net.tracker.slow_batch_rounds == 0
    assert net.healing_graph.has_edge(
        4, 6
    ) and net.healing_graph.has_edge(2, 4)
    # 2 and 6 share that G′ tree but are not G-adjacent, so the wave has
    # two victim components claiming the same dead label.
    assert net.tracker.label_of(2) == net.tracker.label_of(6)
    assert not net.graph.has_edge(2, 6)
    net.delete_batch_and_heal([2, 6])
    assert net.tracker.slow_batch_rounds == 1
    assert net.tracker.fast_batch_rounds == 1
    net.tracker.check_consistency()


def test_exclusive_dead_trees_all_fast():
    """Waves whose victim components touch disjoint G′ trees never
    traverse."""
    net = SelfHealingNetwork(path_graph(20), HEALERS["dash"](), seed=2)
    net.delete_batch_and_heal([3, 10, 16])
    assert net.tracker.fast_batch_rounds == 3
    assert net.tracker.slow_batch_rounds == 0
    net.tracker.check_consistency()


def test_full_kill_single_wave_matches():
    """The entire network dying in one wave is healed (vacuously) the
    same way on both paths."""

    def campaign(fast: bool):
        with eager_tracker(not fast):
            net = SelfHealingNetwork(
                preferential_attachment(30, 2, seed=9),
                HEALERS["dash"](),
                seed=9,
            )
            net.delete_batch_and_heal(sorted(net.graph.nodes()))
        net.tracker.check_consistency()
        return net

    fast_net = campaign(True)
    slow_net = campaign(False)
    assert fast_net.num_alive == 0
    assert_equivalent(fast_net, slow_net)


def test_non_component_safe_healer_waves_ride_the_fast_path():
    """GraphHeal plans are not component-safe, but they rewire *every*
    boundary neighbor — every shattered piece of an owned dead tree is
    represented — so since the lazy-label PR their waves ride the
    quotient fast path too, byte-identical to the preserved honest
    traversal (shared dead trees still force an honest first touch)."""

    def campaign(fast: bool):
        with eager_tracker(not fast):
            net = SelfHealingNetwork(
                preferential_attachment(40, 2, seed=3),
                HEALERS["graph-heal"](),
                seed=3,
            )
            net.tracker  # built on first use: bind the tracker class here
        rng = random.Random(4)
        for _ in range(5):
            alive = sorted(net.graph.nodes())
            net.delete_batch_and_heal(rng.sample(alive, 4))
            net.tracker.check_consistency()
        return net

    fast_net = campaign(True)
    slow_net = campaign(False)
    assert fast_net.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_net, slow_net)


def test_fast_batch_round_rejects_overlapping_foreign_labels():
    """The tracker-level guard: own dead labels intersecting the foreign
    set defer to the traversal (the caller normally prevents this)."""
    net = SelfHealingNetwork(path_graph(6), HEALERS["dash"](), seed=0)
    lbl = net.tracker.label_of(2)
    assert (
        net.tracker.fast_batch_round({lbl}, (), (), frozenset({lbl})) is None
    )
