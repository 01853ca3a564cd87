"""Differential test: the connectivity certificate against the BFS.

:class:`~repro.sim.metrics.ConnectivityMetric` skips its BFS while every
heal since the last BFS that proved the graph connected passed the
network's local certificate
(:attr:`~repro.core.network.SelfHealingNetwork.uncertified_heals` has
not moved). The reference metric below is the metric's former body — a
BFS at every check round and at the end — and both observe the same
campaign: their values must be equal for every registered healer, four
topologies (ER graphs often start disconnected), single-victim, wave
and churn rounds, and check periods 1 and 3.

Two test healers break connectivity in ways no registered healer does:
DASH with one tree edge dropped (still claiming ``component_safe``), and
a DASH tree that leaves one representative that is not a G′-neighbour
out of its plan. A certificate over the plan's participants, or one
that trusts a wave or a label set without checking it, fails here.

The BFS counts below pin the point of the certificate: a paper sweep
cell, a DASH churn campaign and a DASH wave campaign each run one BFS.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.sim.metrics as metrics_module
from repro.churn import ScriptedChurn
from repro.core.base import ReconnectionPlan
from repro.core.dash import Dash
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS, make_healer
from repro.graph.generators import preferential_attachment
from repro.graph.traversal import is_connected
from repro.harness.fig8 import spec_fig8
from repro.registry import component_registries
from repro.sim.engine import run_campaign
from repro.sim.experiment import expand_tasks, run_task
from repro.sim.metrics import ConnectivityMetric, Metric

REGISTRIES = component_registries()

TOPOLOGIES = (
    "preferential_attachment:n=40,m=2",
    "erdos_renyi:n=40,p=0.06",
    "random_tree:n=40",
    "grid:rows=6,cols=7",
)
ADVERSARIES = (
    "random",
    "neighbor-of-max",
    "max-node",
    "random-wave:size=4",
    "churn:rate=1.5,mean=6,rounds=40",
)


class BfsConnectivity(Metric):
    """The reference: a BFS at every check round and at the end."""

    def __init__(self, period: int) -> None:
        self.period = period
        self.first_disconnect: int | None = None
        self._round = 0

    def on_event(self, network, event) -> None:
        self._round += 1
        if self.first_disconnect is not None:
            return
        if self._round % self.period == 0 and not is_connected(network.graph):
            self.first_disconnect = self._round

    def finalize(self, network) -> dict[str, float]:
        if self.first_disconnect is None and not is_connected(network.graph):
            self.first_disconnect = self._round
        first = self.first_disconnect
        return {
            "bfs_always_connected": 1.0 if first is None else 0.0,
            "bfs_first_disconnect_step": (
                -1.0 if first is None else float(first)
            ),
        }


class DashMinusEdge(Dash):
    """DASH with the last edge of its reconstruction tree dropped; the
    plan still claims ``component_safe``."""

    name = "dash-minus-edge"

    def plan(self, snapshot) -> ReconnectionPlan:
        plan = super().plan(snapshot)
        return replace(plan, edges=tuple(plan.edges)[:-1])


class SkipRep(Dash):
    """A line over DASH's participants minus the first one that is not a
    G′-neighbour of the victim (a representative of another G′
    component): its component is left out of the heal."""

    name = "skip-rep"

    def plan(self, snapshot) -> ReconnectionPlan:
        plan = super().plan(snapshot)
        skip = next(
            (
                u
                for u in plan.participants
                if u not in snapshot.gprime_neighbors
            ),
            None,
        )
        if skip is None:
            return plan
        kept = tuple(u for u in plan.participants if u != skip)
        return ReconnectionPlan(
            participants=kept,
            edges=tuple(zip(kept, kept[1:])),
            kind="line",
            component_safe=False,
        )


TEST_HEALERS = {"dash-minus-edge": DashMinusEdge, "skip-rep": SkipRep}


def _healer(name: str):
    if name in TEST_HEALERS:
        return TEST_HEALERS[name]()
    return REGISTRIES["healer"].make(name, seed=2)


def _observe(healer: str, topology: str, adversary: str, period: int):
    """One campaign observed by both metrics; returns its values."""
    graph = REGISTRIES["generator"].make(topology, seed=5)
    result = run_campaign(
        graph,
        _healer(healer),
        REGISTRIES["adversary"].make(adversary, seed=1),
        id_seed=3,
        metrics=[ConnectivityMetric(period), BfsConnectivity(period)],
    )
    return result.values


def _count_bfs(monkeypatch) -> list:
    calls: list = []
    monkeypatch.setattr(
        metrics_module,
        "is_connected",
        lambda graph: calls.append(1) or is_connected(graph),
    )
    return calls


@pytest.mark.parametrize("period", (1, 3))
@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("healer", [*HEALERS, *TEST_HEALERS])
def test_certificate_matches_bfs(healer, topology, adversary, period):
    values = _observe(healer, topology, adversary, period)
    assert (
        values["always_connected"],
        values["first_disconnect_step"],
    ) == (
        values["bfs_always_connected"],
        values["bfs_first_disconnect_step"],
    )


@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize("healer", sorted(TEST_HEALERS))
def test_test_healers_disconnect(healer, adversary):
    """The broken healers do break connectivity on PA graphs, so the
    matrix above compares certificates on disconnecting campaigns."""
    broken = [
        seed
        for seed in range(4)
        if _observe(
            healer,
            f"preferential_attachment:n=40,m=2,seed={seed}",
            adversary,
            1,
        )["bfs_always_connected"]
        == 0.0
    ]
    assert broken


@pytest.mark.parametrize("period", (1, 3))
def test_edgeless_join_is_not_certified(period):
    """A join that gets no edge leaves a connected graph disconnected."""
    ops = [
        [("delete", 0)],
        [("add", 100, [1])],
        [("add", 101, [])],
        [("delete", 2)],
    ]
    values = run_campaign(
        preferential_attachment(20, 2, seed=1),
        make_healer("dash"),
        ScriptedChurn(ops),
        metrics=[ConnectivityMetric(period), BfsConnectivity(period)],
    ).values
    assert values["first_disconnect_step"] == 3.0
    assert values["bfs_first_disconnect_step"] == 3.0


def test_mark_is_per_network_and_never_exported(monkeypatch):
    calls = _count_bfs(monkeypatch)
    metric = ConnectivityMetric()
    first = SelfHealingNetwork(
        preferential_attachment(30, 2, seed=1), make_healer("dash")
    )
    second = SelfHealingNetwork(
        preferential_attachment(30, 2, seed=2), make_healer("dash")
    )
    metric.finalize(first)
    metric.finalize(first)
    assert len(calls) == 1
    metric.finalize(second)
    assert len(calls) == 2
    state = metric.export_state()
    assert "_mark" not in state
    restored = ConnectivityMetric.__new__(ConnectivityMetric)
    restored.import_state(state)
    restored.finalize(second)
    assert len(calls) == 3


def test_fig8_sweep_runs_at_most_one_bfs_per_cell(monkeypatch):
    """Every paper healer under neighbor-of-max, as Fig. 8 runs them."""
    calls = _count_bfs(monkeypatch)
    spec = spec_fig8(sizes=(50, 100), repetitions=1)
    for task in expand_tasks(spec):
        before = len(calls)
        _, values = run_task(*task)
        assert values["always_connected"] == 1.0
        assert len(calls) - before <= 1, task[1:]


@pytest.mark.parametrize(
    "adversary",
    ("churn:rate=2,mean=40,rounds=400", "random-wave:size=8"),
)
def test_dash_churn_and_wave_campaigns_run_one_bfs(monkeypatch, adversary):
    calls = _count_bfs(monkeypatch)
    values = run_campaign(
        preferential_attachment(400, 3, seed=1),
        make_healer("dash"),
        REGISTRIES["adversary"].make(adversary, seed=1),
        metrics=[ConnectivityMetric()],
    ).values
    assert values["always_connected"] == 1.0
    assert len(calls) == 1
