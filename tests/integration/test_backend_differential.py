"""Backend differential: array campaigns are byte-identical to object.

The array backend's whole promise is "same results, different storage".
These tests run full campaigns — healers × topologies × single-victim,
wave, and mixed churn schedules — once per backend and compare
everything observable:
the HealEvent streams, the result scalars, the tracker accounting and
labels, and the final graphs.

``keep_events=True`` keeps the array side on the generic engine (the
fused kernel refuses observed campaigns), so this suite exercises
ArrayGraph under the unmodified network code and the one component
tracker both backends share; the fused kernel has its own differential
suite in ``tests/sim/test_fused_kernel.py``.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES
from repro.core.registry import HEALERS
from repro.graph.generators import (
    erdos_renyi,
    preferential_attachment,
    random_tree,
    watts_strogatz,
)
from repro.sim.engine import run_campaign

from tests.core._eager_tracker import eager_tracker

TOPOLOGIES = {
    "pa": lambda backend: preferential_attachment(
        96, 3, seed=5, backend=backend
    ),
    "gnp": lambda backend: erdos_renyi(80, 0.08, seed=6, backend=backend),
    "ws": lambda backend: watts_strogatz(80, 4, 0.1, seed=7, backend=backend),
    "tree": lambda backend: random_tree(90, seed=8, backend=backend),
}

HEALER_NAMES = ["dash", "sdash", "graph-heal"]
SCHEDULES = ["random", "random-wave:size=5"]


def campaign(backend: str, topology: str, healer: str, schedule: str):
    graph = TOPOLOGIES[topology](backend)
    return run_campaign(
        graph,
        HEALERS.make(healer),
        ADVERSARIES.make(schedule, seed=13),
        id_seed=3,
        keep_events=True,
        keep_network=True,
    )


def assert_identical(obj_result, arr_result):
    assert arr_result.events == obj_result.events
    for attr in ("initial_n", "deletions", "final_alive", "peak_delta",
                 "values"):
        assert getattr(arr_result, attr) == getattr(obj_result, attr), attr
    obj_net, arr_net = obj_result.network, arr_result.network
    assert arr_net.graph == obj_net.graph
    assert arr_net.healing_graph == obj_net.healing_graph
    obj_tr, arr_tr = obj_net.tracker, arr_net.tracker
    assert type(arr_tr) is type(obj_tr)
    assert arr_tr.id_changes == obj_tr.id_changes
    assert arr_tr.messages_sent == obj_tr.messages_sent
    assert arr_tr.messages_received == obj_tr.messages_received
    assert arr_tr.export_state() == obj_tr.export_state()
    for u in arr_net.graph.nodes():
        assert arr_tr.label_of(u) == obj_tr.label_of(u)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_backend_differential(healer, topology, schedule):
    assert_identical(
        campaign("object", topology, healer, schedule),
        campaign("array", topology, healer, schedule),
    )


@pytest.mark.parametrize(
    "adversary", ["neighbor-of-max", "neighbor-of-max-delta"]
)
def test_index_extreme_adversaries(adversary):
    """The degree/δ index extremes feed these adversaries' target choice;
    identical victim sequences prove the array backend's index streams."""
    results = {}
    for backend in ("object", "array"):
        results[backend] = run_campaign(
            preferential_attachment(96, 3, seed=9, backend=backend),
            HEALERS.make("dash"),
            ADVERSARIES.make(adversary, seed=17),
            id_seed=4,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["object"], results["array"])


CHURN_SCHEDULES = [
    "churn:rate=1.5,rounds=24",
    "churn:rate=2.0,lifetime=pareto,mean=4,shape=2.2,rounds=24",
]
CHURN_HEALERS = ["dash", "forgiving-tree", "forgiving-graph"]


@pytest.mark.parametrize("schedule", CHURN_SCHEDULES)
@pytest.mark.parametrize("healer", CHURN_HEALERS)
def test_churn_backend_differential(healer, schedule):
    """Mixed insert/delete rounds: the array slot maps grow for every
    joined node, and the whole observable surface — insert HealEvents
    included — must stay byte-identical to the object backend."""
    results = {}
    for backend in ("object", "array"):
        results[backend] = run_campaign(
            erdos_renyi(64, 0.08, seed=21, backend=backend),
            HEALERS.make(healer),
            ADVERSARIES.make(schedule, seed=23),
            id_seed=6,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["object"], results["array"])
    assert results["array"].insertions > 0
    assert any(e.action == "insert" for e in results["array"].events)


def test_scripted_churn_with_far_labels_matches():
    """Scripted joins far past the initial label range force genuine
    amortized-doubling gap growth in the array graph's slot store; the
    op stream must still replay byte-identically."""
    from repro.churn import ScriptedChurn

    script = [
        [("delete", 3)],
        [("add", 200, (0, 1)), ("delete", 5)],
        [("add", 300, ())],
        [("delete", 200), ("add", 201, (300,))],
    ]
    results = {}
    for backend in ("object", "array"):
        results[backend] = run_campaign(
            erdos_renyi(40, 0.1, seed=25, backend=backend),
            HEALERS.make("dash"),
            ScriptedChurn(script),
            id_seed=7,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["object"], results["array"])
    assert results["array"].insertions == 3


def test_eager_reference_mode_matches_too():
    """The eager reference tracker (every wave round by the honest
    traversal) must stay byte-identical across backends as well."""
    results = {}
    for backend in ("object", "array"):
        with eager_tracker():
            results[backend] = run_campaign(
                preferential_attachment(80, 3, seed=11, backend=backend),
                HEALERS.make("dash"),
                ADVERSARIES.make("random-wave:size=4", seed=19),
                id_seed=5,
                keep_events=True,
                keep_network=True,
            )
    assert_identical(results["object"], results["array"])
