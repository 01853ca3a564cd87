"""Differential tests for the fused scalar-only campaign kernel.

The kernel (``repro.sim.fastpath``) may only change *speed*: every
result scalar, the adversary's RNG stream, and the network's survivors
must be exactly what the generic engine produces. The generic array
path is obtained by forcing an observer (``keep_events=True``), which
makes the kernel ineligible.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import ADVERSARIES
from repro.adversary.classic import RandomAttack
from repro.churn.adversaries import ChurnAdversary
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import ReproError, SimulationError
from repro.graph.generators import preferential_attachment, random_tree
from repro.sim import fastpath
from repro.sim.engine import run_campaign

from tests.graph._reference_graph import reference_copy


def make(backend, n=160, seed=1):
    return preferential_attachment(n, 3, seed=seed, backend=backend)


def scalars(result):
    return (
        result.initial_n,
        result.deletions,
        result.final_alive,
        result.peak_delta,
        result.values,
        result.events,
        result.network,
    )


def run(graph, adversary, **kw):
    return run_campaign(
        graph, HEALERS.make("dash"), adversary, id_seed=7, **kw
    )


def run_kernel(
    graph, adversary, *, stop_alive=0, max_rounds=None, max_deletions=None
):
    """Run one campaign through :func:`fastpath.run_fused` directly and
    return (result, network), so the kernel's final state can be
    inspected; ``run`` keeps no network when it fuses."""
    network = SelfHealingNetwork(graph, HEALERS.make("dash"), seed=7)
    adversary.reset(network)
    assert fastpath.supports(network, adversary)
    result = fastpath.run_fused(
        network,
        adversary,
        stop_alive=stop_alive,
        max_rounds=max_rounds,
        max_deletions=max_deletions,
    )
    return result, network


CASES = [
    {},
    {"stop_alive": 40},
    {"max_rounds": 23},
    {"max_deletions": 57},
    {"max_rounds": 0},
]


@pytest.mark.parametrize("kw", CASES, ids=[str(c) for c in CASES])
def test_fused_matches_generic_and_object(kw):
    before = fastpath._fused_campaigns
    fused = run(make("array"), ADVERSARIES.make("random", seed=2), **kw)
    assert fastpath._fused_campaigns == before + 1

    adv_gen = ADVERSARIES.make("random", seed=2)
    generic = run(
        make("array"), adv_gen, keep_events=True, keep_network=True, **kw
    )
    obj = run(make("object"), ADVERSARIES.make("random", seed=2), **kw)

    expect = scalars(generic)[:5] + (None, None)
    assert scalars(fused) == expect
    assert scalars(obj) == scalars(fused)

    # The kernel must leave the adversary and the network exactly where
    # the generic engine leaves them: same future RNG stream, same
    # survivors.
    adv_fused = ADVERSARIES.make("random", seed=2)
    direct, network = run_kernel(make("array"), adv_fused, **kw)
    assert scalars(direct) == scalars(fused)
    assert adv_fused._rng.getstate() == adv_gen._rng.getstate()
    assert list(network.survivors()) == list(generic.network.survivors())


def test_fused_survivor_list_exact():
    fused, network = run_kernel(
        make("array", seed=3),
        ADVERSARIES.make("random", seed=5),
        stop_alive=50,
    )
    generic = run(
        make("array", seed=3),
        ADVERSARIES.make("random", seed=5),
        stop_alive=50,
        keep_events=True,
        keep_network=True,
    )
    survivors = sorted(generic.network.graph.nodes())
    assert list(network.survivors()) == survivors
    assert list(generic.network.survivors()) == survivors
    assert fused.final_alive == len(survivors) == 50


@pytest.mark.parametrize(
    "graph_seed,attack_seed,id_seed", [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
)
def test_fused_seed_grid(graph_seed, attack_seed, id_seed):
    results = []
    for backend, extra in (("array", {}), ("object", {})):
        r = run_campaign(
            make(backend, n=220, seed=graph_seed),
            HEALERS.make("dash"),
            ADVERSARIES.make("random", seed=attack_seed),
            id_seed=id_seed,
            **extra,
        )
        results.append((r.deletions, r.final_alive, r.peak_delta))
    assert results[0] == results[1]


def test_fused_engages_only_when_unobserved():
    before = fastpath._fused_campaigns
    ineligible = [
        dict(keep_events=True),
        dict(keep_network=True),
        dict(check_invariants=True),
    ]
    for kw in ineligible:
        run(make("array", n=40), ADVERSARIES.make("random", seed=1), **kw)
    # the dict-of-sets reference graph, non-Dash healer, non-random
    # adversary
    run(
        reference_copy(make("array", n=40)),
        ADVERSARIES.make("random", seed=1),
    )
    run_campaign(
        make("array", n=40), HEALERS.make("sdash"),
        ADVERSARIES.make("random", seed=1), id_seed=7,
    )
    run_campaign(
        make("array", n=40), HEALERS.make("dash"),
        ADVERSARIES.make("neighbor-of-max", seed=1), id_seed=7,
    )
    assert fastpath._fused_campaigns == before
    run(make("array", n=40), ADVERSARIES.make("random", seed=1))
    assert fastpath._fused_campaigns == before + 1


def test_fused_campaign_builds_no_tracker():
    """The kernel keeps its own union-find and the network builds its
    component tracker on first use, so a fused campaign builds none."""
    result, network = run_kernel(make("array"), RandomAttack(seed=2))
    assert result.final_alive == 0
    assert "tracker" not in vars(network)


def test_fused_on_tree_topology():
    results = []
    for backend in ("array", "object"):
        r = run_campaign(
            random_tree(150, seed=2, backend=backend),
            HEALERS.make("dash"),
            ADVERSARIES.make("random", seed=4),
            id_seed=1,
        )
        results.append((r.deletions, r.final_alive, r.peak_delta))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "kw", [{}, {"stop_alive": 33}, {"max_deletions": 57}]
)
def test_fused_draws_match_generic_with_tiny_blocks(monkeypatch, kw):
    """With two-label blocks the network's survivor sequence empties
    and reindexes blocks as the kernel kills; its victims, the RNG
    stream and the survivors it leaves must still be the generic
    engine's."""
    adv_gen = ADVERSARIES.make("random", seed=9)
    generic = run(
        make("array", n=180, seed=4),
        adv_gen,
        keep_events=True,
        keep_network=True,
        **kw,
    )

    monkeypatch.setattr("repro.graph.survivors._BLOCK", 2)
    adv_fused = RandomAttack(seed=9)
    fused, network = run_kernel(
        make("array", n=180, seed=4), adv_fused, **kw
    )

    assert network.deleted_nodes == generic.network.deleted_nodes
    assert scalars(fused)[:5] == scalars(generic)[:5]
    assert adv_fused._rng.getstate() == adv_gen._rng.getstate()
    assert list(network.survivors()) == list(generic.network.survivors())
    assert len(network.survivors()._blocks) < 180 // 2  # built in pairs


# ----------------------------------------------------------------------
# Fused churn kernel (joins and deletions both run inside it)
# ----------------------------------------------------------------------

def _schedule(tmp_path, rounds):
    path = tmp_path / "schedule.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rounds) + "\n")
    return path


def _churn_scalars(result):
    return (
        result.initial_n,
        result.deletions,
        result.insertions,
        result.final_alive,
        result.peak_delta,
        result.values,
    )


def _run_three_ways(make_adversary, **kw):
    """(fused, generic-array, object) results for one churn campaign,
    whose scalars and final graphs must all agree."""
    graphs = [make("array"), make("array"), make("object")]
    fused = run(graphs[0], make_adversary(), **kw)
    generic = run(graphs[1], make_adversary(), keep_events=True, **kw)
    obj = run(graphs[2], make_adversary(), keep_events=True, **kw)
    assert _churn_scalars(generic) == _churn_scalars(obj)
    assert _churn_scalars(fused) == _churn_scalars(generic)
    assert graphs[0] == graphs[1] == graphs[2]
    return fused, generic, obj


@pytest.mark.parametrize("kw", CASES, ids=[str(c) for c in CASES])
def test_fused_churn_pure_death_completes_in_kernel(kw):
    """A churn schedule that never inserts (rate=0) runs start to finish
    inside the kernel — one fused campaign, scalars identical to the
    generic array path and the object backend, under every cap.

    Expiry rounds delete several nodes at once, so ``max_deletions``
    overshoots by up to one round, exactly as in the generic loop. The
    counter moves once per kernel call, even one that runs no round
    (``max_rounds=0``)."""
    before = fastpath._fused_campaigns
    fused, _, _ = _run_three_ways(
        lambda: ADVERSARIES.make("churn:rate=0.0", seed=6), **kw
    )
    assert fastpath._fused_campaigns == before + 1
    if "max_deletions" in kw:
        assert fused.deletions > kw["max_deletions"]


#: lifetimes short enough that joiners merge into components and die
#: out of them again (the kernel's per-joiner union-find state at work)
STEADY_CHURN = [
    "churn:rate=1.5,lifetime=exp,mean=30,rounds=100",
    "churn:rate=1.5,lifetime=pareto,mean=30,rounds=100",
]


@pytest.mark.parametrize("spec", STEADY_CHURN)
@pytest.mark.parametrize("kw", CASES, ids=[str(c) for c in CASES])
def test_fused_steady_churn_runs_in_kernel(spec, kw):
    """Steady-state churn joins from round one; the whole campaign is
    one fused run whose scalars equal both generic backends'."""
    before = fastpath._fused_campaigns
    fused, _, _ = _run_three_ways(
        lambda: ADVERSARIES.make(spec, seed=3), **kw
    )
    assert fastpath._fused_campaigns == before + 1
    if kw.get("max_rounds") != 0:
        assert fused.insertions > 0


def test_fused_churn_delete_prefix_then_joins_in_kernel(tmp_path):
    """A trace with a long delete-only prefix and then joins (one
    attaching to an earlier joiner, which later dies) runs start to
    finish in the kernel, byte-identical to the generic engine."""
    rounds = [[["delete", u]] for u in range(40)]
    rounds.append([["delete", 77], ["delete", 78]])
    rounds.append([["add", 500, [100, 101]], ["delete", 100]])
    rounds.append([["add", 501, [500]]])
    rounds.append([["delete", 500]])
    path = _schedule(tmp_path, rounds)

    before = fastpath._fused_campaigns
    fused, generic, _ = _run_three_ways(
        lambda: ADVERSARIES.make(f"trace-churn:path={path}")
    )
    assert fastpath._fused_campaigns == before + 1
    assert fused.deletions == 44
    assert fused.insertions == 2
    assert generic.insertions == 2


def _kernel_network(path):
    """Run a trace through :func:`fastpath.run_fused` directly and return
    (result, network) so the kernel's final state can be inspected."""
    return run_kernel(
        make("array"), ADVERSARIES.make(f"trace-churn:path={path}")
    )


def test_fused_churn_joins_leave_generic_state(tmp_path):
    """After joins the kernel's network equals the generic engine's: G,
    G′, slot-store size, IDs, baselines, the join roster and every δ.
    The joins cover each way the slot store grows (a gap at 500,
    doubling at 600, slack slots at 160 and 700, a far label at 10,000,
    an append at 10,001), repeat a target, and later heal around the
    joiners."""
    rounds = [[["delete", u]] for u in range(0, 80, 2)]
    rounds.append([["delete", 81], ["delete", 83]])
    rounds.append([["add", 500, [101, 103]], ["delete", 101]])
    rounds.append([["add", 160, [105]], ["add", 600, [500, 107, 500]]])
    rounds.append([["add", 700, [600, 160]], ["delete", 105]])
    rounds.append(
        [
            ["add", 10000, [700, 109, 111]],
            ["add", 10001, [10000]],
            ["delete", 600],
        ]
    )
    rounds += [[["delete", u]] for u in (700, 109, 500, 113)]
    path = _schedule(tmp_path, rounds)

    result, network = _kernel_network(path)
    generic = run(
        make("array"),
        ADVERSARIES.make(f"trace-churn:path={path}"),
        keep_events=True,
        keep_network=True,
    )
    reference = generic.network
    assert _churn_scalars(result) == _churn_scalars(generic)
    assert network.graph == reference.graph
    assert network.healing_graph == reference.healing_graph
    assert len(network.graph._nbrs) == len(reference.graph._nbrs) == 10002
    assert len(network.healing_graph._nbrs) == 10002
    assert network.graph.num_edges == reference.graph.num_edges
    assert network.initial_ids == reference.initial_ids
    assert network.initial_degree == reference.initial_degree
    assert network.inserted_nodes == reference.inserted_nodes
    assert network.deleted_nodes == reference.deleted_nodes
    assert network.deltas() == reference.deltas()
    network.check_delta_index()
    network.check_degree_index()
    assert "tracker" not in vars(network)


def test_fused_churn_first_round_insertion_fuses(tmp_path):
    """Steady-state churn inserts from round one: the kernel runs the
    campaign itself — one fused campaign, no tracker built."""
    path = _schedule(
        tmp_path,
        [[["add", 500, [0]], ["delete", 1]], [["delete", 500]]],
    )
    before = fastpath._fused_campaigns
    _run_three_ways(lambda: ADVERSARIES.make(f"trace-churn:path={path}"))
    assert fastpath._fused_campaigns == before + 1
    _, network = _kernel_network(path)
    assert network.inserted_nodes == [500]
    assert "tracker" not in vars(network)


def test_fused_churn_leaves_survivors_exact(tmp_path):
    """Churn deaths and joins bypass the network's survivors, so a
    sequence built before the kernel ran is dropped, and the next
    ``survivors()`` call rebuilds it from the live graph."""
    path = _schedule(
        tmp_path,
        [[["add", 500, [0]], ["delete", 1]], [["add", 501, [500]]]],
    )
    network = SelfHealingNetwork(make("array"), HEALERS.make("dash"), seed=7)
    built = network.survivors()
    adversary = ADVERSARIES.make(f"trace-churn:path={path}")
    adversary.reset(network)
    fastpath.run_fused(
        network, adversary, stop_alive=0, max_rounds=None, max_deletions=None
    )
    assert network.survivors() is not built
    assert list(network.survivors()) == sorted(network.graph.nodes())
    assert 501 in network.survivors() and 1 not in network.survivors()


def test_fused_churn_joins_repair_graph_state(tmp_path):
    """After joins the graph must have accurate public counters and a
    valid adjacency, and the network a consistent degree index — the
    kernel bypassed all of them live."""
    rounds = [[["delete", u]] for u in range(30)]
    rounds.append([["add", 900, [50, 51]]])
    path = _schedule(tmp_path, rounds)
    g = make("array")
    _, network = run_kernel(g, ADVERSARIES.make(f"trace-churn:path={path}"))
    assert g.has_node(900)
    assert g.num_nodes == 160 - 30 + 1
    assert g.num_edges == sum(g.degrees().values()) // 2
    network.check_degree_index()
    from repro.graph.validation import validate_graph

    validate_graph(g)


JOIN_ERRORS = {
    "present-node": [[["add", 5, [0]]]],
    "reused-label": [[["delete", 5]], [["add", 5, [0]]]],
    "dead-target": [[["delete", 5]], [["add", 500, [0, 5]]]],
    "huge-label": [[["add", 2**62, [0]]]],
    "negative-label": [[["add", -4, [0]]]],
    "add-delete-attach": [
        [["add", 500, [0]], ["delete", 500], ["add", 501, [1, 500]]]
    ],
}


@pytest.mark.parametrize("rounds", JOIN_ERRORS.values(), ids=JOIN_ERRORS)
def test_fused_churn_join_error_parity(tmp_path, rounds):
    """A bad join raises the same error type and message from the kernel
    as from the generic loop (labels must be non-negative ints inside the
    graph's label bound)."""
    path = _schedule(tmp_path, rounds)
    raised = []
    for kw in ({}, {"keep_events": True}):
        before = fastpath._fused_campaigns
        with pytest.raises(ReproError) as exc:
            run(
                make("array"),
                ADVERSARIES.make(f"trace-churn:path={path}"),
                **kw,
            )
        raised.append((type(exc.value), str(exc.value)))
        assert fastpath._fused_campaigns == before + (not kw)
    assert raised[0] == raised[1]


@settings(max_examples=15)
@given(
    rate=st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
    lifetime=st.sampled_from(["exp", "pareto"]),
    mean=st.integers(1, 60),
    attach=st.integers(0, 4),
    rounds=st.integers(0, 150),
    seed=st.integers(0, 2**16),
)
def test_fused_churn_property(rate, lifetime, mean, attach, rounds, seed):
    """Any drawn churn campaign: the kernel's scalars and final graphs
    equal the generic engine's."""

    def adversary():
        return ChurnAdversary(
            rate=rate,
            lifetime=lifetime,
            mean=mean,
            attach=attach,
            rounds=rounds,
            seed=seed,
        )

    before = fastpath._fused_campaigns
    g_fused = make("array")
    fused = run(g_fused, adversary())
    assert fastpath._fused_campaigns == before + 1
    generic = run(make("array"), adversary(), keep_network=True)
    assert _churn_scalars(fused) == _churn_scalars(generic)
    assert g_fused == generic.network.graph


def test_fused_churn_dead_victim_error_parity(tmp_path):
    """A trace that re-kills a dead node raises the same SimulationError
    from the kernel's inlined check as from the generic loop."""
    path = _schedule(tmp_path, [[["delete", 3]], [["delete", 3]]])
    messages = {}
    for backend in ("array", "object"):
        with pytest.raises(SimulationError, match="dead node") as exc:
            run(make(backend), ADVERSARIES.make(f"trace-churn:path={path}"))
        messages[backend] = str(exc.value)
    assert messages["array"] == messages["object"]


def test_fused_repairs_graph_counters():
    """After a fused stop_alive campaign the graph's public counters and
    the network's degree machinery must be accurate (the kernel bypasses
    them live)."""
    g = make("array", n=120, seed=6)
    _, network = run_kernel(
        g, ADVERSARIES.make("random", seed=8), stop_alive=30
    )
    assert g.num_nodes == 30
    assert sorted(g.nodes()) == list(network.survivors())
    assert g.num_edges == sum(g.degrees().values()) // 2
    network.check_degree_index()
    from repro.graph.validation import validate_graph

    validate_graph(g)
