"""Tests for the wave adversaries and their size schedules."""

from __future__ import annotations

import pytest

from repro.adversary import make_adversary
from repro.adversary.waves import (
    RandomWaveAttack,
    TargetedWaveAttack,
    constant_schedule,
    fraction_schedule,
    geometric_schedule,
    make_wave_schedule,
)
from repro.core.network import SelfHealingNetwork
from repro.core.registry import make_healer
from repro.errors import ConfigurationError
from repro.graph.generators import cycle_graph, preferential_attachment
from repro.api import run_campaign


class TestSchedules:
    def test_constant(self):
        s = constant_schedule(5)
        assert [s(i, 100) for i in range(4)] == [5, 5, 5, 5]

    def test_geometric(self):
        s = geometric_schedule(2, 2.0)
        assert [s(i, 1000) for i in range(5)] == [2, 4, 8, 16, 32]

    def test_geometric_floor_one(self):
        s = geometric_schedule(1, 0.5)
        assert s(10, 100) == 1

    def test_fraction(self):
        s = fraction_schedule(0.25)
        assert s(0, 100) == 25
        assert s(3, 7) == 2  # ceil(1.75)
        assert s(0, 1) == 1

    def test_make_schedule_coercions(self):
        assert make_wave_schedule(3)(0, 10) == 3
        assert make_wave_schedule(0.5)(0, 10) == 5
        assert make_wave_schedule(("constant", 4))(0, 10) == 4
        assert make_wave_schedule(("geometric", 1, 3.0))(2, 99) == 9
        assert make_wave_schedule(("fraction", 0.1))(0, 50) == 5
        f = lambda i, n: 7  # noqa: E731
        assert make_wave_schedule(f) is f

    @pytest.mark.parametrize(
        "bad", [0, -1, 1.5, 0.0, ("constant", 0), ("nope", 3), "x", True]
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            make_wave_schedule(bad)


class TestRandomWaveAttack:
    def test_deterministic_across_resets(self):
        def victims(seed):
            net = SelfHealingNetwork(
                preferential_attachment(60, 2, seed=1), make_healer("dash"),
                seed=1,
            )
            adv = RandomWaveAttack(("constant", 5), seed=seed)
            adv.reset(net)
            out = []
            while net.num_alive > 0:
                wave = adv.choose_wave(net)
                if not wave:
                    break
                out.append(tuple(wave))
                net.delete_batch_and_heal(wave)
            return out

        assert victims(3) == victims(3)
        assert victims(3) != victims(4)

    def test_clamps_to_survivors_and_terminates(self):
        net = SelfHealingNetwork(
            preferential_attachment(30, 2, seed=2), make_healer("dash"), seed=2
        )
        adv = RandomWaveAttack(("geometric", 4, 3.0), seed=0)
        adv.reset(net)
        while net.num_alive > 0:
            wave = adv.choose_wave(net)
            assert wave is not None
            assert len(wave) <= 30
            assert len(set(wave)) == len(wave)
            net.delete_batch_and_heal(wave)
        assert adv.choose_wave(net) is None
        assert adv.waves_launched >= 3

    def test_resyncs_after_out_of_band_deletions(self):
        net = SelfHealingNetwork(
            preferential_attachment(40, 2, seed=3), make_healer("dash"), seed=3
        )
        adv = RandomWaveAttack(("constant", 3), seed=1)
        adv.reset(net)
        net.delete_batch_and_heal(adv.choose_wave(net))
        # Deletions the adversary never saw:
        net.delete_batch_and_heal(sorted(net.graph.nodes())[:5])
        wave = adv.choose_wave(net)
        assert wave is not None
        assert all(net.graph.has_node(v) for v in wave)

    def test_resamples_after_count_preserving_churn(self):
        # One death and one join behind its back keep the node count, so
        # the length check passes while the sequence still holds node 5.
        net = SelfHealingNetwork(
            preferential_attachment(30, 2, seed=0), make_healer("dash")
        )
        adv = RandomWaveAttack(size=30)
        adv.reset(net)
        net.delete_batch_and_heal([5])
        net.insert_and_heal(100, [1, 2])
        wave = adv.choose_wave(net)
        assert sorted(wave) == sorted(net.graph.nodes())
        net.delete_batch_and_heal(wave)
        assert net.num_alive == 0


class TestTargetedWaveAttack:
    def test_picks_top_degree_with_label_tiebreak(self):
        net = SelfHealingNetwork(
            preferential_attachment(50, 2, seed=4), make_healer("dash"), seed=4
        )
        adv = TargetedWaveAttack(("constant", 6))
        adv.reset(net)
        wave = adv.choose_wave(net)
        assert wave is not None and len(wave) == 6
        expected = sorted(
            net.graph.nodes(),
            key=lambda u: (-net.graph.degree(u), u),
        )[:6]
        assert wave == expected

    def test_tiebreak_on_degree_plateau(self):
        # Every cycle node has degree 2: pure label ordering.
        net = SelfHealingNetwork(cycle_graph(12), make_healer("dash"), seed=5)
        adv = TargetedWaveAttack(("constant", 4))
        adv.reset(net)
        assert adv.choose_wave(net) == [0, 1, 2, 3]

    def test_full_kill(self):
        res = run_campaign(
            preferential_attachment(80, 2, seed=6),
            make_healer("dash"),
            TargetedWaveAttack(("fraction", 0.2)),
            id_seed=6,
        )
        assert res.final_alive == 0
        assert res.deletions == 80
        assert res.values["waves"] > 1


class TestRegistryAndSimulator:
    def test_registry_names(self):
        assert isinstance(
            make_adversary("random-wave", schedule=4, seed=1), RandomWaveAttack
        )
        assert isinstance(make_adversary("targeted-wave"), TargetedWaveAttack)

    def test_wave_campaign_stop_alive_and_max_rounds(self):
        res = run_campaign(
            preferential_attachment(50, 2, seed=7),
            make_healer("dash"),
            RandomWaveAttack(("constant", 5), seed=7),
            id_seed=7,
            stop_alive=20,
        )
        assert res.final_alive == 20
        res = run_campaign(
            preferential_attachment(50, 2, seed=7),
            make_healer("dash"),
            RandomWaveAttack(("constant", 5), seed=7),
            id_seed=7,
            max_rounds=3,
        )
        assert res.values["waves"] == 3
        assert res.deletions == 15

    def test_wave_campaign_rejects_bad_config(self):
        g = preferential_attachment(20, 2, seed=8)
        with pytest.raises(ConfigurationError):
            run_campaign(
                g, make_healer("dash"), RandomWaveAttack(2), stop_alive=-1
            )
        with pytest.raises(ConfigurationError):
            run_campaign(
                g, make_healer("dash"), RandomWaveAttack(2), max_rounds=-1
            )
