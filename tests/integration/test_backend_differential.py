"""Reference differential: campaigns on the slot store are byte-identical
to the same campaigns on the dict-of-sets reference graph.

The one ``Graph`` keeps adjacency in a slot store; the dict-of-sets graph
it replaced lives on in ``tests/graph/_reference_graph.py``. These tests
run full campaigns — healers × topologies × single-victim, wave, and
mixed churn schedules — once on a generated graph and once on a
reference copy of it, and compare everything observable: the HealEvent
streams, the result scalars, the tracker accounting and labels, and the
final graphs.

``keep_events=True`` keeps the slot-store side on the generic engine
(the fused kernel refuses observed campaigns, and reference graphs
always), so this suite exercises both graphs under the unmodified
network code and the one component tracker; the fused kernel has its
own differential suite in ``tests/sim/test_fused_kernel.py``.
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
from tests.graph._reference_graph import ReferenceGraph, reference_copy

TOPOLOGIES = {
    "pa": lambda: preferential_attachment(96, 3, seed=5),
    "gnp": lambda: erdos_renyi(80, 0.08, seed=6),
    "ws": lambda: watts_strogatz(80, 4, 0.1, seed=7),
    "tree": lambda: random_tree(90, seed=8),
}

HEALER_NAMES = ["dash", "sdash", "graph-heal"]
SCHEDULES = ["random", "random-wave:size=5"]

#: the two substrates every campaign here runs on
SUBSTRATES = ("reference", "graph")


def on(substrate: str, graph):
    """``graph`` itself, or its reference copy."""
    return reference_copy(graph) if substrate == "reference" else graph


def campaign(substrate: str, topology: str, healer: str, schedule: str):
    return run_campaign(
        on(substrate, TOPOLOGIES[topology]()),
        HEALERS.make(healer),
        ADVERSARIES.make(schedule, seed=13),
        id_seed=3,
        keep_events=True,
        keep_network=True,
    )


def assert_identical(ref_result, result):
    ref_net, net = ref_result.network, result.network
    # A reference campaign stays on the reference: G′ has G's class.
    assert type(ref_net.graph) is type(ref_net.healing_graph)
    assert type(ref_net.graph) is ReferenceGraph
    assert result.events == ref_result.events
    for attr in ("initial_n", "deletions", "final_alive", "peak_delta",
                 "values"):
        assert getattr(result, attr) == getattr(ref_result, attr), attr
    assert net.graph == ref_net.graph
    assert net.healing_graph == ref_net.healing_graph
    ref_tr, tr = ref_net.tracker, net.tracker
    assert type(tr) is type(ref_tr)
    assert tr.id_changes == ref_tr.id_changes
    assert tr.messages_sent == ref_tr.messages_sent
    assert tr.messages_received == ref_tr.messages_received
    assert tr.export_state() == ref_tr.export_state()
    for u in net.graph.nodes():
        assert tr.label_of(u) == ref_tr.label_of(u)


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("healer", HEALER_NAMES)
def test_backend_differential(healer, topology, schedule):
    assert_identical(
        campaign("reference", topology, healer, schedule),
        campaign("graph", topology, healer, schedule),
    )


@pytest.mark.parametrize(
    "adversary", ["neighbor-of-max", "neighbor-of-max-delta"]
)
def test_index_extreme_adversaries(adversary):
    """The degree/δ index extremes feed these adversaries' target choice;
    identical victim sequences prove the slot store's index streams."""
    results = {}
    for substrate in SUBSTRATES:
        results[substrate] = run_campaign(
            on(substrate, preferential_attachment(96, 3, seed=9)),
            HEALERS.make("dash"),
            ADVERSARIES.make(adversary, seed=17),
            id_seed=4,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["reference"], results["graph"])


CHURN_SCHEDULES = [
    "churn:rate=1.5,rounds=24",
    "churn:rate=2.0,lifetime=pareto,mean=4,shape=2.2,rounds=24",
]
CHURN_HEALERS = ["dash", "forgiving-tree", "forgiving-graph"]


@pytest.mark.parametrize("schedule", CHURN_SCHEDULES)
@pytest.mark.parametrize("healer", CHURN_HEALERS)
def test_churn_backend_differential(healer, schedule):
    """Mixed insert/delete rounds: the slot store grows for every joined
    node, and the whole observable surface — insert HealEvents
    included — must stay byte-identical to the reference."""
    results = {}
    for substrate in SUBSTRATES:
        results[substrate] = run_campaign(
            on(substrate, erdos_renyi(64, 0.08, seed=21)),
            HEALERS.make(healer),
            ADVERSARIES.make(schedule, seed=23),
            id_seed=6,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["reference"], results["graph"])
    assert results["graph"].insertions > 0
    assert any(e.action == "insert" for e in results["graph"].events)


def test_scripted_churn_with_far_labels_matches():
    """Scripted joins far past the initial label range force genuine
    amortized-doubling gap growth in the slot store; the op stream must
    still replay byte-identically."""
    from repro.churn import ScriptedChurn

    script = [
        [("delete", 3)],
        [("add", 200, (0, 1)), ("delete", 5)],
        [("add", 300, ())],
        [("delete", 200), ("add", 201, (300,))],
    ]
    results = {}
    for substrate in SUBSTRATES:
        results[substrate] = run_campaign(
            on(substrate, erdos_renyi(40, 0.1, seed=25)),
            HEALERS.make("dash"),
            ScriptedChurn(script),
            id_seed=7,
            keep_events=True,
            keep_network=True,
        )
    assert_identical(results["reference"], results["graph"])
    assert results["graph"].insertions == 3


def test_eager_reference_mode_matches_too():
    """The eager reference tracker (every wave round by the honest
    traversal) must stay byte-identical across the two graphs as well."""
    results = {}
    for substrate in SUBSTRATES:
        with eager_tracker():
            results[substrate] = run_campaign(
                on(substrate, preferential_attachment(80, 3, seed=11)),
                HEALERS.make("dash"),
                ADVERSARIES.make("random-wave:size=4", seed=19),
                id_seed=5,
                keep_events=True,
                keep_network=True,
            )
    assert_identical(results["reference"], results["graph"])
