"""Tests for the metric trackers."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.adversary import RandomAttack, ScriptedAttack
from repro.core.dash import Dash
from repro.core.naive import GraphHeal, NoHeal
from repro.errors import ConfigurationError
from repro.graph.generators import preferential_attachment, star_graph
from repro.graph.graph import Graph
from repro.sim.metrics import (
    METRICS,
    ComponentMetric,
    ConnectivityMetric,
    DegreeMetric,
    EdgeBudgetMetric,
    IdChangeMetric,
    LatencyMetric,
    MessageMetric,
    StretchMetric,
    default_metrics,
)
from repro.api import run_campaign


def run_with(graph, healer, adversary, metrics, **kw):
    return run_campaign(graph, healer, adversary, metrics=metrics, **kw)


class TestDegreeMetric:
    def test_peak_vs_final(self):
        g = star_graph(5)
        res = run_with(
            g, Dash(), ScriptedAttack([0]), [DegreeMetric()]
        )
        assert res["max_degree_increase"] == 1.0
        assert res["final_max_degree_increase"] <= res["max_degree_increase"]


class TestIdChangeMetric:
    def test_star_hub_deletion(self):
        """Deleting the hub merges 4 singleton components: 3 nodes adopt
        the minimum ID → total 3, max 1."""
        g = star_graph(5)
        res = run_with(g, Dash(), ScriptedAttack([0]), [IdChangeMetric()])
        assert res["total_id_changes"] == 3.0
        assert res["max_id_changes"] == 1.0


class TestMessageMetric:
    def test_counts_sent_plus_received(self):
        g = star_graph(3)  # hub 0, leaves 1, 2
        res = run_with(g, Dash(), ScriptedAttack([0]), [MessageMetric()])
        # one of {1,2} adopts the other's ID and tells its single neighbor:
        # sent=1 for the adopter, received=1 for the other → max 1.
        assert res["total_messages_sent"] == 1.0
        assert res["max_messages"] == 1.0


class TestLatencyMetric:
    def test_amortized_is_mean_of_rounds(self):
        g = star_graph(5)
        res = run_with(g, Dash(), ScriptedAttack([0]), [LatencyMetric()])
        assert res["total_propagation"] == 3.0
        assert res["amortized_propagation"] == 3.0  # one round
        assert res["max_round_propagation"] == 3.0

    @staticmethod
    def fed(changes):
        metric = LatencyMetric()
        for c in changes:
            metric.on_event(None, SimpleNamespace(id_changes=c))
        return metric

    def test_state_does_not_grow_with_the_campaign(self):
        changes = [(7 * i) % 13 for i in range(1000)]
        short = self.fed(changes[:10]).export_state()
        long = self.fed(changes).export_state()
        assert short.keys() == long.keys()
        assert all(type(v) is int for v in long.values())
        # Only the counters' digits differ.
        assert len(json.dumps(long)) - len(json.dumps(short)) < 8

    def test_values_match_the_per_round_list(self):
        changes = [(7 * i) % 13 for i in range(1000)]
        expected = {
            "amortized_propagation": sum(changes) / len(changes),
            "max_round_propagation": float(max(changes)),
            "total_propagation": float(sum(changes)),
        }
        assert self.fed(changes).finalize(None) == expected
        assert self.fed([]).finalize(None) == {
            "amortized_propagation": 0.0,
            "max_round_propagation": 0.0,
            "total_propagation": 0.0,
        }

    def test_old_per_round_state_imports(self):
        """A snapshot written when the metric kept one count per heal
        restores to the same values, and keeps counting from there."""
        changes = [(7 * i) % 13 for i in range(200)]
        old = LatencyMetric.__new__(LatencyMetric)
        old.import_state(json.loads(json.dumps({"_per_round": changes})))
        assert old.finalize(None) == self.fed(changes).finalize(None)
        old.on_event(None, SimpleNamespace(id_changes=40))
        assert old.finalize(None) == self.fed(changes + [40]).finalize(None)


class TestConnectivityMetric:
    def test_dash_always_connected(self):
        g = preferential_attachment(20, 2, seed=0)
        res = run_with(
            g, Dash(), RandomAttack(seed=0), [ConnectivityMetric()]
        )
        assert res["always_connected"] == 1.0
        assert res["first_disconnect_step"] == -1.0

    def test_noheal_disconnects(self):
        g = star_graph(6)
        res = run_with(
            g, NoHeal(), ScriptedAttack([0]), [ConnectivityMetric()]
        )
        assert res["always_connected"] == 0.0
        assert res["first_disconnect_step"] == 1.0

    def test_period_skips_checks_but_finalize_catches(self):
        g = star_graph(6)
        res = run_with(
            g, NoHeal(), ScriptedAttack([0]), [ConnectivityMetric(period=10)]
        )
        assert res["always_connected"] == 0.0

    def test_disconnected_at_step_zero(self):
        """A graph that starts disconnected fails at step 0, which must
        not read as the "never disconnected" sentinel -1."""
        g = Graph.from_edges([(0, 1), (2, 3)])
        res = run_with(
            g,
            Dash(),
            RandomAttack(seed=0),
            [ConnectivityMetric()],
            max_deletions=0,
        )
        assert res["always_connected"] == 0.0
        assert res["first_disconnect_step"] == 0.0


class TestMetricArguments:
    @pytest.mark.parametrize("period", (0, -3))
    def test_periods_below_one_raise(self, period):
        g = star_graph(4)
        for make in (
            lambda: ConnectivityMetric(period=period),
            lambda: ComponentMetric(period=period),
            lambda: StretchMetric(g, period=period),
        ):
            with pytest.raises(ConfigurationError, match="period"):
                make()

    @pytest.mark.parametrize(
        "spec", ("connectivity:period=0", "capacity:headroom=-1")
    )
    def test_registry_builds_raise(self, spec):
        with pytest.raises(ConfigurationError):
            METRICS.make(spec)


class TestComponentMetric:
    def test_counts_fragments(self):
        g = star_graph(6)
        res = run_with(g, NoHeal(), ScriptedAttack([0]), [ComponentMetric()])
        assert res["max_components"] == 5.0


class TestEdgeBudgetMetric:
    def test_graph_heal_spends_more(self):
        res_by_healer = {}
        for healer in (Dash(), GraphHeal()):
            g = preferential_attachment(30, 3, seed=1)
            res = run_with(
                g, healer, RandomAttack(seed=1), [EdgeBudgetMetric()]
            )
            res_by_healer[healer.name] = res["healing_edges_planned"]
        assert res_by_healer["graph-heal"] > res_by_healer["dash"]

    def test_max_per_round(self):
        g = star_graph(6)
        res = run_with(g, Dash(), ScriptedAttack([0]), [EdgeBudgetMetric()])
        assert res["max_edges_per_round"] == 4.0  # binary tree over 5


class TestStretchMetric:
    def test_records_running_max(self):
        g = preferential_attachment(25, 2, seed=2)
        metric = StretchMetric(g.copy(), period=1)
        res = run_with(g, Dash(), RandomAttack(seed=2), [metric])
        assert res["max_stretch"] >= 1.0
        assert res["stretch_ever_disconnected"] == 0.0

    def test_disconnection_flagged(self):
        g = star_graph(8)
        metric = StretchMetric(g.copy(), period=1, min_alive_fraction=0.0)
        res = run_with(g, NoHeal(), ScriptedAttack([0]), [metric])
        assert res["stretch_ever_disconnected"] == 1.0

    def test_period_respected(self):
        g = preferential_attachment(20, 2, seed=3)
        metric = StretchMetric(g.copy(), period=1000)
        res = run_with(g, Dash(), RandomAttack(seed=3), [metric])
        assert res["max_stretch"] == 0.0  # never measured


class TestDefaultMetrics:
    def test_no_duplicate_keys(self):
        g = preferential_attachment(15, 2, seed=4)
        res = run_campaign(
            g, Dash(), RandomAttack(seed=4), metrics=default_metrics()
        )
        # presence of the flagship keys
        for key in (
            "max_degree_increase",
            "max_id_changes",
            "max_messages",
            "amortized_propagation",
            "healing_edges_planned",
        ):
            assert key in res.values
