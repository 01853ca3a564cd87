"""Differential tests for the unified campaign engine.

The byte-identity contract: every field of the
:class:`SimulationResult` that :func:`repro.sim.engine.run_campaign`
returns — including the full :class:`HealEvent` stream — must match the
pre-engine loops preserved verbatim in ``tests/sim/_seed_simulator.py``,
across topologies × healers × adversary shapes, for single-victim rounds
and wave rounds (routed by the adversary's ``batch_rounds`` flag). Plus
direct engine-behavior tests: round routing, duplicate-wave accounting,
the round/node budgets.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES, make_adversary
from repro.adversary.waves import RandomWaveAttack, WaveAdversary
from repro.core.registry import make_healer
from repro.errors import SimulationError
from repro.graph.generators import (
    erdos_renyi,
    grid_graph,
    preferential_attachment,
    random_tree,
)
from repro.sim.engine import run_campaign
from repro.sim.metrics import ConnectivityMetric, default_metrics

from tests.core._eager_tracker import eager_tracker
from tests.sim._seed_simulator import (
    seed_run_simulation,
    seed_run_wave_simulation,
)

TOPOLOGIES = {
    "pa": lambda: preferential_attachment(48, 2, seed=11),
    "er": lambda: erdos_renyi(40, 0.15, seed=12),
    "tree": lambda: random_tree(40, seed=13),
    "grid": lambda: grid_graph(6, 6),
}

HEALERS_UNDER_TEST = ("dash", "sdash", "line-heal")


def assert_results_identical(a, b):
    assert a.initial_n == b.initial_n
    assert a.deletions == b.deletions
    assert a.final_alive == b.final_alive
    assert a.peak_delta == b.peak_delta
    assert a.values == b.values
    assert a.events == b.events  # full HealEvent streams, field by field


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("healer_name", HEALERS_UNDER_TEST)
class TestEngineMatchesSeedLoops:
    def test_single_victim_full_kill(self, topo, healer_name):
        def kwargs():
            # fresh metric instances per run — metrics are stateful
            return dict(
                id_seed=5,
                metrics=default_metrics() + [ConnectivityMetric()],
                keep_events=True,
            )

        new = run_campaign(
            TOPOLOGIES[topo](),
            make_healer(healer_name),
            make_adversary("neighbor-of-max", seed=7),
            **kwargs(),
        )
        old = seed_run_simulation(
            TOPOLOGIES[topo](),
            make_healer(healer_name),
            make_adversary("neighbor-of-max", seed=7),
            **kwargs(),
        )
        assert_results_identical(new, old)
        assert new.final_alive == 0

    def test_wave_full_kill(self, topo, healer_name):
        def kwargs():
            return dict(
                id_seed=5,
                metrics=default_metrics() + [ConnectivityMetric()],
                keep_events=True,
            )

        new = run_campaign(
            TOPOLOGIES[topo](),
            make_healer(healer_name),
            RandomWaveAttack(("constant", 5), seed=7),
            **kwargs(),
        )
        old = seed_run_wave_simulation(
            TOPOLOGIES[topo](),
            make_healer(healer_name),
            RandomWaveAttack(("constant", 5), seed=7),
            **kwargs(),
        )
        assert_results_identical(new, old)
        assert new.final_alive == 0

    def test_wave_stop_conditions(self, topo, healer_name):
        for engine_stop, seed_stop in (
            ({"stop_alive": 9}, {"stop_alive": 9}),
            ({"max_rounds": 3}, {"max_waves": 3}),
        ):
            new = run_campaign(
                TOPOLOGIES[topo](),
                make_healer(healer_name),
                RandomWaveAttack(("geometric", 2, 2.0), seed=3),
                id_seed=1,
                keep_events=True,
                **engine_stop,
            )
            old = seed_run_wave_simulation(
                TOPOLOGIES[topo](),
                make_healer(healer_name),
                RandomWaveAttack(("geometric", 2, 2.0), seed=3),
                id_seed=1,
                keep_events=True,
                **seed_stop,
            )
            assert_results_identical(new, old)


class _DuplicateWave(WaveAdversary):
    """Names the same victim several times within one wave."""

    name = "dup-wave"

    def _pick(self, network, size):
        survivors = sorted(network.graph.nodes())
        wave = survivors[:size]
        return wave + wave  # every victim listed twice


class TestEngineRoundSemantics:
    def test_duplicate_wave_counted_once(self):
        res = run_campaign(
            preferential_attachment(20, 2, seed=1),
            make_healer("dash"),
            _DuplicateWave(("constant", 4)),
            id_seed=0,
            max_rounds=2,
        )
        # Two waves of 4 distinct victims each, despite duplicates.
        assert res.deletions == 8
        assert res.values["waves"] == 2.0

    def test_classic_adversary_yields_singleton_rounds(self):
        adv = make_adversary("neighbor-of-max", seed=1)
        res = run_campaign(
            preferential_attachment(15, 2, seed=1),
            make_healer("dash"),
            adv,
            id_seed=0,
        )
        assert res.deletions == 15
        assert "waves" not in res.values  # single-victim campaign

    def test_wave_values_include_rounds(self):
        res = run_campaign(
            preferential_attachment(20, 2, seed=1),
            make_healer("dash"),
            RandomWaveAttack(("constant", 5), seed=1),
            id_seed=0,
        )
        assert res.values["waves"] == 4.0

    def test_max_deletions_bounds_wave_campaigns_between_rounds(self):
        res = run_campaign(
            preferential_attachment(20, 2, seed=1),
            make_healer("dash"),
            RandomWaveAttack(("constant", 6), seed=1),
            id_seed=0,
            max_deletions=7,
        )
        # Budget is checked between rounds: the second wave starts
        # (7 > 6 deleted) and completes, then the loop stops.
        assert res.deletions == 12

    def test_batch_rounds_false_rejects_multi_victim_round(self):
        class SingleVictimWaves(RandomWaveAttack):
            """Yields waves but declares single-victim rounds."""

            batch_rounds = False

        with pytest.raises(SimulationError, match="batch rounds are disabled"):
            run_campaign(
                preferential_attachment(20, 2, seed=1),
                make_healer("dash"),
                SingleVictimWaves(("constant", 3), seed=1),
            )

    def test_dead_victim_detected_inside_wave(self):
        class Ghost(WaveAdversary):
            name = "ghost-wave"

            def _pick(self, network, size):
                return ["ghost"]

        with pytest.raises(SimulationError, match="dead node"):
            run_campaign(
                preferential_attachment(10, 2, seed=1),
                make_healer("dash"),
                Ghost(("constant", 1)),
            )

    def test_traversal_path_still_forceable(self):
        fast = run_campaign(
            preferential_attachment(40, 2, seed=1),
            make_healer("dash"),
            RandomWaveAttack(("constant", 6), seed=2),
            id_seed=3,
            keep_events=True,
            keep_network=True,
        )
        with eager_tracker():
            slow = run_campaign(
                preferential_attachment(40, 2, seed=1),
                make_healer("dash"),
                RandomWaveAttack(("constant", 6), seed=2),
                id_seed=3,
                keep_events=True,
                keep_network=True,
            )
        assert fast.events == slow.events
        assert fast.network.tracker.fast_batch_rounds > 0
        assert slow.network.tracker.fast_batch_rounds == 0


@pytest.fixture
def gc_disabled():
    """Only reference counting frees objects inside the test."""
    import gc

    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestFinishedCampaignIsFreed:
    """A campaign that returns no network leaves no reference cycle
    behind: its healer (held by the network) dies with the caller's last
    reference to the graph and the result, no cyclic GC needed."""

    @pytest.mark.parametrize("observed", [False, True], ids=["fused", "obs"])
    @pytest.mark.parametrize(
        "adversary",
        [
            "random",
            "neighbor-of-max",
            "max-node",
            "random-wave:size=4",
            "churn:rate=2.0,rounds=10",
        ],
    )
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_healer_dies_with_graph_and_result(
        self, gc_disabled, backend, adversary, observed
    ):
        import weakref

        from repro.graph.generators import GENERATORS

        graph = GENERATORS.make(f"pa:n=120,backend={backend}", seed=3)
        healer = make_healer("dash")
        alive = weakref.ref(healer)
        result = run_campaign(
            graph,
            healer,
            ADVERSARIES.make(adversary, seed=4),
            metrics=(
                default_metrics() + [ConnectivityMetric()] if observed else ()
            ),
            max_rounds=40,
        )
        del healer, graph, result
        assert alive() is None

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_network_with_built_indexes_is_freed(self, gc_disabled, backend):
        """A kept network whose degree index a targeted campaign built,
        and whose δ index a query built, dies with the caller's last
        reference: each index's oracle holds the graph, not the
        network."""
        import weakref

        from repro.graph.generators import GENERATORS

        result = run_campaign(
            GENERATORS.make(f"pa:n=120,backend={backend}", seed=3),
            make_healer("dash"),
            ADVERSARIES.make("neighbor-of-max", seed=4),
            max_rounds=40,
            keep_network=True,
        )
        network = result.network
        assert network._degree_index is not None
        network.max_delta()
        alive = weakref.ref(network)
        del network, result
        assert alive() is None

    def test_resumed_campaign_is_freed(self, gc_disabled, tmp_path):
        import weakref

        from repro.errors import SimulatedCrash
        from repro.recovery import CrashAtRound, resume_from_ledger

        ledger = tmp_path / "campaign.jsonl"
        with pytest.raises(SimulatedCrash):
            run_campaign(
                preferential_attachment(120, 2, seed=3),
                make_healer("dash"),
                make_adversary("max-node"),
                metrics=default_metrics() + [CrashAtRound(30)],
                checkpoint_every=8,
                checkpoint_dir=tmp_path / "checkpoints",
                ledger=ledger,
            )
        healer = make_healer("dash")
        alive = weakref.ref(healer)
        result = resume_from_ledger(ledger, healer=healer)
        assert result.final_alive == 0
        del healer, result
        assert alive() is None
