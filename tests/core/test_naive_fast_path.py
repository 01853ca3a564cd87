"""Differential suite: lazy-label naive campaigns vs. the eager path.

The naive baseline healers (GraphHeal, DeltaOrderedGraphHeal, NoHeal)
are not component-safe, so until the lazy-label PR every one of their
rounds paid an honest BFS over the affected region. Under lazy label
invalidation they resolve through the unsafe quotient merge instead —
and the paper's accounting must not move by a single message: these
tests replay identical campaigns with ``batch_fast_path=True`` (lazy)
and ``False`` (preserved eager reference) and assert byte-identical
:class:`~repro.core.network.HealEvent` streams, per-node
``id_changes``/``messages_sent``/``messages_received``, component
labels, final topology, and peak δ — across naive healers × 5 topology
families × single-victim and wave schedules, with the
``check_component_labels`` and ``check_degree_index`` invariants
verified after every round on the lazy side.

The suite also asserts the quotient path actually fires on every round
(a silent fallback to the BFS would pass the equivalence checks while
regressing the whole point).
"""

from __future__ import annotations

import pytest

from repro.adversary.classic import RandomAttack
from repro.adversary.waves import RandomWaveAttack, TargetedWaveAttack
from repro.analysis import check_component_labels, check_degree_index
from repro.core.registry import HEALERS
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    preferential_attachment,
    random_tree,
    watts_strogatz,
)
from repro.sim.engine import run_campaign

NAIVE_HEALERS = ["graph-heal", "graph-heal-delta", "none"]

#: 5 topology families per the acceptance criteria
TOPOLOGIES = [
    ("pa", lambda: preferential_attachment(80, 2, seed=3)),
    ("er", lambda: erdos_renyi(70, 0.08, seed=4)),
    ("ws", lambda: watts_strogatz(72, 4, 0.2, seed=5)),
    ("tree", lambda: random_tree(60, seed=6)),
    ("grid", lambda: grid_graph(8, 8)),
]

WAVE_SCHEDULES = [
    ("constant", ("constant", 5)),
    ("geometric", ("geometric", 2, 1.6)),
]

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


class _CheckInvariantsMetric:
    """Verifies tracker labels and degree/δ indexes after every event."""

    def on_event(self, network, event) -> None:
        check_component_labels(network)
        check_degree_index(network)

    def finalize(self, network) -> dict[str, float]:
        return {}


def assert_equivalent(fast_net, slow_net):
    """Full-state equivalence between a lazy and an eager run."""
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
    # The lazy side must settle every round by the quotient merge — no
    # BFS fallback (the event comparison would not notice one).
    assert fast_tr.slow_rounds == 0
    # The eager reference must never have touched the quotient path.
    assert slow_tr.fast_rounds == 0
    assert slow_tr.fast_batch_rounds == 0


@pytest.mark.parametrize(
    "topo_name,make_graph", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES]
)
@pytest.mark.parametrize("healer_name", NAIVE_HEALERS)
def test_single_victim_campaign_matches_eager(
    topo_name, make_graph, healer_name
):
    """Full-kill single-victim campaigns, invariant-checked every round."""

    def campaign(fast: bool):
        return run_campaign(
            make_graph(),
            HEALERS[healer_name](),
            RandomAttack(seed=11),
            id_seed=7,
            metrics=[_CheckInvariantsMetric()] if fast else [],
            keep_events=True,
            keep_network=True,
            batch_fast_path=fast,
        )

    fast_run = campaign(True)
    slow_run = campaign(False)
    assert fast_run.final_alive == 0
    assert fast_run.deletions == slow_run.deletions
    assert fast_run.network.tracker.fast_rounds == fast_run.deletions
    assert slow_run.network.tracker.slow_rounds == slow_run.deletions
    assert_equivalent(fast_run.network, slow_run.network)


@pytest.mark.parametrize(
    "topo_name,make_graph", TOPOLOGIES, ids=[t[0] for t in TOPOLOGIES]
)
@pytest.mark.parametrize("healer_name", NAIVE_HEALERS)
@pytest.mark.parametrize(
    "sched_name,schedule",
    WAVE_SCHEDULES,
    ids=[s[0] for s in WAVE_SCHEDULES],
)
def test_wave_campaign_matches_eager(
    topo_name, make_graph, healer_name, sched_name, schedule
):
    """Full-kill random-wave campaigns: the naive healers' batch rounds
    ride the quotient fast path (honest traversal only for dead trees
    shared between victim components of one wave)."""

    def campaign(fast: bool):
        return run_campaign(
            make_graph(),
            HEALERS[healer_name](),
            RandomWaveAttack(schedule, seed=13),
            id_seed=7,
            metrics=[_CheckInvariantsMetric()] if fast else [],
            keep_events=True,
            keep_network=True,
            batch_fast_path=fast,
        )

    fast_run = campaign(True)
    slow_run = campaign(False)
    assert fast_run.final_alive == 0
    assert fast_run.values["waves"] == slow_run.values["waves"]
    assert fast_run.network.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_run.network, slow_run.network)


@pytest.mark.parametrize("healer_name", NAIVE_HEALERS)
def test_targeted_wave_campaign_matches_eager(healer_name):
    """Decapitation waves (top-k hubs die at once) hit dense boundaries —
    the mix with the most shared dead trees per wave."""

    def campaign(fast: bool):
        return run_campaign(
            preferential_attachment(90, 3, seed=17),
            HEALERS[healer_name](),
            TargetedWaveAttack(("constant", 6)),
            id_seed=17,
            metrics=[_CheckInvariantsMetric()] if fast else [],
            keep_events=True,
            keep_network=True,
            batch_fast_path=fast,
        )

    fast_run = campaign(True)
    slow_run = campaign(False)
    assert fast_run.final_alive == 0
    assert fast_run.network.tracker.fast_batch_rounds > 0
    assert_equivalent(fast_run.network, slow_run.network)


def test_graph_heal_single_rounds_never_traverse():
    """The headline: a GraphHeal full-kill campaign performs zero
    BFS rounds — every round is one quotient merge."""
    run = run_campaign(
        preferential_attachment(150, 3, seed=1),
        HEALERS["graph-heal"](),
        RandomAttack(seed=2),
        id_seed=0,
        keep_network=True,
    )
    tracker = run.network.tracker
    assert run.final_alive == 0
    assert tracker.fast_rounds == run.deletions
    assert tracker.slow_rounds == 0
    tracker.check_consistency()
