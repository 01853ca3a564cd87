"""Differential tests: union-find tracker vs. the seed BFS implementation.

The component tracker was rewritten from per-round full-component scans to
a weighted union-find (O(participants · α + #actual-ID-changers) per
round). The paper's accounting must not move by a single message: these
tests replay identical fixed-seed campaigns through the rewritten tracker
and through the pre-rewrite implementation (preserved verbatim in
``_seed_tracker.py``) and assert byte-identical labels, per-node
``id_changes``/``messages_sent``/``messages_received``, and per-round
:class:`~repro.core.network.HealEvent` accounting — for every registered
healer, including the non-component-safe ones that exercise the BFS slow
path, and for simultaneous batch deletions.

The union-find runs additionally execute in paranoid mode
(``check_invariants=True``), so ``check_consistency`` — the BFS
ground-truth check — passes after every single round.
"""

from __future__ import annotations

import random

import pytest

import repro.core.network as network_module
from repro.adversary.classic import NeighborOfMaxAttack, RandomAttack
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS, healer_names
from repro.graph.generators import erdos_renyi, preferential_attachment
from repro.api import run_campaign

from tests.core._eager_tracker import swap_tracker
from tests.core._seed_tracker import ComponentTracker as _SeedTracker

UnionFindTracker = network_module.ComponentTracker


class SeedTracker(_SeedTracker):
    """The seed tracker as the network drives it: it predates the wave
    quotient merge, so every wave round goes to its ``batch_round``."""

    def fast_batch_round(self, *args, **kwargs) -> None:
        return None


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


def assert_equivalent(
    new_net: SelfHealingNetwork, seed_net: SelfHealingNetwork
):
    """Full-state equivalence between a union-find and a seed-tracker run."""
    assert len(new_net.events) == len(seed_net.events)
    for ev_new, ev_seed in zip(new_net.events, seed_net.events):
        for f in EVENT_FIELDS:
            assert getattr(ev_new, f) == getattr(ev_seed, f), (
                f"round {ev_new.step}: {f} diverged "
                f"({getattr(ev_new, f)!r} != {getattr(ev_seed, f)!r})"
            )
    new_tr, seed_tr = new_net.tracker, seed_net.tracker
    assert new_tr.labels() == dict(seed_tr.label)
    assert new_tr.components() == {
        lbl: frozenset(mem) for lbl, mem in seed_tr.members.items()
    }
    assert new_tr.id_changes == seed_tr.id_changes
    assert new_tr.messages_sent == seed_tr.messages_sent
    assert new_tr.messages_received == seed_tr.messages_received
    assert new_net.graph == seed_net.graph
    assert new_net.healing_graph == seed_net.healing_graph
    assert new_net.peak_delta == seed_net.peak_delta


@pytest.mark.parametrize("healer_name", healer_names())
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_full_campaign_matches_seed_accounting(healer_name, seed):
    """Sequential full-kill campaigns: every healer, BFS-verified rounds."""

    def campaign(tracker_cls, check):
        g = preferential_attachment(60, 2, seed=seed)
        with swap_tracker(tracker_cls):
            return run_campaign(
                g,
                HEALERS[healer_name](),
                RandomAttack(seed=seed),
                id_seed=seed,
                check_invariants=check,
                keep_events=True,
                keep_network=True,
            )

    new_run = campaign(UnionFindTracker, check=True)
    seed_run = campaign(SeedTracker, check=False)
    assert new_run.final_alive == 0
    assert_equivalent(new_run.network, seed_run.network)


@pytest.mark.parametrize("healer_name", ["dash", "sdash", "graph-heal"])
def test_targeted_attack_matches_seed_accounting(healer_name):
    """NMS attack concentrates merges on the hub — a different round mix."""

    def campaign(tracker_cls, check):
        g = erdos_renyi(50, 0.12, seed=5)
        with swap_tracker(tracker_cls):
            return run_campaign(
                g,
                HEALERS[healer_name](),
                NeighborOfMaxAttack(seed=5),
                id_seed=5,
                check_invariants=check,
                keep_events=True,
                keep_network=True,
            )

    new_run = campaign(UnionFindTracker, check=True)
    seed_run = campaign(SeedTracker, check=False)
    assert_equivalent(new_run.network, seed_run.network)


@pytest.mark.parametrize("healer_name", ["dash", "sdash", "binary-tree-heal"])
@pytest.mark.parametrize("seed", [3, 11])
def test_batch_waves_match_seed_accounting(healer_name, seed):
    """Simultaneous multi-node waves drive ``batch_round`` (always the
    traversal path) through the shared union-find apply step."""

    def campaign(tracker_cls, check):
        g = preferential_attachment(48, 2, seed=seed)
        with swap_tracker(tracker_cls):
            net = SelfHealingNetwork(
                g, HEALERS[healer_name](), seed=seed, check_invariants=check
            )
            net.tracker  # built on first use: bind tracker_cls here
        rng = random.Random(seed)
        while net.num_alive > 6:
            alive = sorted(net.graph.nodes())
            wave = rng.sample(alive, min(len(alive) - 1, rng.randint(2, 5)))
            net.delete_batch_and_heal(wave)
        return net

    new_net = campaign(UnionFindTracker, check=True)
    seed_net = campaign(SeedTracker, check=False)
    assert_equivalent(new_net, seed_net)


@pytest.mark.parametrize("seed", [0, 9])
def test_mixed_single_and_batch_rounds(seed):
    """Interleaved single deletions and waves keep both paths honest.

    Full paranoid mode is off here — batch heals may legitimately leave
    G′ with cycles, so a later component-safe single round would trip the
    Lemma 1 forest assertion (a model property, not a tracker concern).
    The tracker's own BFS ground-truth check still runs every round.
    """

    def campaign(tracker_cls, check):
        g = preferential_attachment(40, 2, seed=seed)
        with swap_tracker(tracker_cls):
            net = SelfHealingNetwork(g, HEALERS["dash"](), seed=seed)
            net.tracker  # built on first use: bind tracker_cls here
        rng = random.Random(seed)
        while net.num_alive > 5:
            alive = sorted(net.graph.nodes())
            if rng.random() < 0.5:
                net.delete_and_heal(rng.choice(alive))
            else:
                wave = rng.sample(alive, min(len(alive) - 1, 3))
                net.delete_batch_and_heal(wave)
            if check:
                net.tracker.check_consistency()
        return net

    new_net = campaign(UnionFindTracker, check=True)
    seed_net = campaign(SeedTracker, check=False)
    assert_equivalent(new_net, seed_net)
