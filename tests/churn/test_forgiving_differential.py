"""Differential tests: Forgiving Tree / Forgiving Graph vs. references.

The production healers must produce heal-event streams *identical* to
the independent direct-from-the-dissertation references in
``_reference_forgiving.py``, across ≥4 topologies × ≥2 churn schedules —
and every insertion must respect the per-node degree-increase bound that
is the whole point of the algorithms (≤1 new edge per join for FT, ≤2
for FG, each pre-existing node gaining at most one of them).
"""

from __future__ import annotations

import pytest

from repro.adversary import make_adversary
from repro.churn.healers import ForgivingGraph, ForgivingTree
from repro.core.network import SelfHealingNetwork
from repro.graph.generators import GENERATORS
from repro.sim.engine import run_campaign

from _reference_forgiving import (
    ReferenceForgivingGraph,
    ReferenceForgivingTree,
)

#: ≥4 topologies: tree, sparse random, lattice, hub-heavy scale-free
TOPOLOGIES = [
    ("random_tree", {}),
    ("erdos_renyi", {"p": 0.12}),
    ("grid", {"rows": 6, "cols": 7}),
    ("preferential_attachment", {"m": 2}),
]

#: ≥2 churn schedules: memoryless mid-rate and heavy-tailed high-rate
SCHEDULES = [
    "churn:rate=1.0,lifetime=exp,mean=6,rounds=36",
    "churn:rate=2.0,lifetime=pareto,mean=4,shape=2.2,rounds=36",
]

PAIRS = [
    (ForgivingTree, ReferenceForgivingTree, 1),
    (ForgivingGraph, ReferenceForgivingGraph, 2),
]


def _make_graph(gen_name, params, seed=17):
    force = {"n": 42} if "rows" not in params else {}
    return GENERATORS.make(
        gen_name, seed=seed, overrides=dict(params), force=force
    )


@pytest.mark.parametrize("gen_name,params", TOPOLOGIES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("real_cls,ref_cls,max_edges", PAIRS)
def test_forgiving_matches_reference(
    gen_name, params, schedule, real_cls, ref_cls, max_edges
):
    """Identical churn schedule + identical initial graph ⇒ identical
    heal-event streams (full HealEvent dataclass equality)."""

    def run(healer):
        return run_campaign(
            _make_graph(gen_name, params),
            healer,
            make_adversary(schedule, seed=23),
            id_seed=31,
            keep_events=True,
            check_invariants=True,
        )

    real = run(real_cls())
    ref = run(ref_cls())

    assert real.insertions > 0 and real.deletions > 0  # schedule is live
    assert len(real.events) == len(ref.events)
    for i, (a, b) in enumerate(zip(real.events, ref.events)):
        assert a == b, f"event {i} diverged:\n  real: {a}\n  ref:  {b}"
    assert (real.deletions, real.insertions, real.peak_delta) == (
        ref.deletions, ref.insertions, ref.peak_delta
    )
    assert real.values == ref.values


@pytest.mark.parametrize("gen_name,params", TOPOLOGIES)
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("real_cls,_ref_cls,max_edges", PAIRS)
def test_insertion_degree_bound_every_round(
    gen_name, params, schedule, real_cls, _ref_cls, max_edges
):
    """Drive the network op-by-op and assert the O(1) degree-increase
    bound after *every* insertion: the joiner gains ≤ ``max_edges``
    edges, each pre-existing node gains ≤ 1, and nodes untouched by the
    join do not move at all."""
    network = SelfHealingNetwork(
        _make_graph(gen_name, params), real_cls(), seed=31
    )
    adversary = make_adversary(schedule, seed=23)
    adversary.reset(network)

    inserts = 0
    while True:
        ops = adversary.choose_round(network)
        if not ops:
            break
        for op in ops:
            if op[0] == "delete":
                network.delete_and_heal(op[1])
                continue
            _, node, targets = op
            before = {
                u: network.graph.degree(u) for u in network.graph.nodes()
            }
            event = network.insert_and_heal(node, targets)
            inserts += 1
            assert event.action == "insert"
            assert len(event.new_edges) <= max_edges
            assert len(set(event.new_edges)) == len(event.new_edges)
            assert network.graph.degree(node) == len(event.new_edges)
            touched = {u for edge in event.new_edges for u in edge}
            assert all(node in edge for edge in event.new_edges)
            for u, deg in before.items():
                gain = network.graph.degree(u) - deg
                assert gain == (1 if u in touched else 0), (
                    f"join of {node!r} moved degree of {u!r} by {gain}"
                )
    assert inserts > 0  # the schedule actually exercised the bound


def test_forgiving_graph_bridges_components():
    """FG's distinguishing behaviour: a join that announces targets in
    different components bridges them (kind='bridge', 3-way merge of
    {joiner, A, B}); FT on the identical join keeps its single edge and
    merges only {joiner, A}. Constructed: two disjoint triangles, one
    join naming a peer on each side."""
    from repro.churn import ScriptedChurn
    from repro.graph.graph import Graph

    def two_triangles():
        g = Graph(range(6))
        for a, b in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
            g.add_edge(a, b)
        return g

    result = run_campaign(
        two_triangles(),
        ForgivingGraph(),
        ScriptedChurn([[("add", 10, (0, 3))]]),
        id_seed=1,
        keep_events=True,
        check_invariants=True,
    )
    (event,) = result.events
    assert event.action == "insert"
    assert event.plan_kind == "bridge"
    assert len(event.new_edges) == 2
    assert event.components_merged == 3  # joiner + both triangles

    result_ft = run_campaign(
        two_triangles(),
        ForgivingTree(),
        ScriptedChurn([[("add", 10, (0, 3))]]),
        id_seed=1,
        keep_events=True,
        check_invariants=True,
    )
    (event_ft,) = result_ft.events
    assert event_ft.plan_kind == "leaf"
    assert len(event_ft.new_edges) == 1
    assert event_ft.components_merged == 2  # joiner + one triangle only
