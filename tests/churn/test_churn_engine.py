"""Unit tests for the mixed-round (churn) engine machinery.

Covers the op protocol guardrails, insertion error handling, the
δ-neutrality of announced join edges, tracker accounting, and the
fast-path exclusion — the engine-level contract the churn subsystem
builds on.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES
from repro.adversary.base import Adversary
from repro.churn import ScriptedChurn
from repro.errors import (
    ConfigurationError,
    NodeNotFoundError,
    SimulationError,
)
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.sim.engine import run_campaign

from tests.graph._reference_graph import reference_copy


def _path(n=6):
    return GENERATORS.make("path", force={"n": n})


def _network(healer="dash", n=6, **kwargs):
    return SelfHealingNetwork(_path(n), HEALERS.make(healer), **kwargs)


# ----------------------------------------------------------------------
# Op protocol
# ----------------------------------------------------------------------

#: add ops whose targets are not a list or tuple of nodes
BAD_TARGETS = [
    ("add", 99, 7),                     # an int is not iterable
    ("add", 99, "ab"),                  # a str is not a target list
    ("add", 99, {1: 2}),                # nor is a dict (its keys)
]


class _RawChurn(Adversary):
    """The smallest mixed-round adversary: one round, one op, no eager
    decode — so the engine's own _normalize_churn_ops guard fires."""

    mixed_rounds = True

    def __init__(self, op):
        self._op = op

    def choose_round(self, network):
        op, self._op = self._op, None
        return None if op is None else [op]


@pytest.mark.parametrize("backend", ["object", "array"])
@pytest.mark.parametrize(
    "bad_op",
    [
        "delete",                       # not a tuple
        ("delete",),                    # missing victim
        ("delete", 1, 2),               # delete is binary
        ("add", 99),                    # add without targets
        ("add", 99, [1], "extra"),      # add is ternary
        ("rename", 1, [2]),             # unknown kind
        42,                             # not even a sequence
        *BAD_TARGETS,
    ],
)
def test_malformed_churn_op_raises(bad_op, backend):
    graph = GENERATORS.make(f"path:backend={backend}", force={"n": 6})
    with pytest.raises(SimulationError, match="malformed churn op"):
        run_campaign(graph, HEALERS.make("dash"), _RawChurn(bad_op), id_seed=0)


@pytest.mark.parametrize("bad_op", [("rename", 1, [2]), *BAD_TARGETS])
def test_scripted_churn_rejects_malformed_ops_eagerly(bad_op):
    with pytest.raises(SimulationError, match="malformed churn op"):
        ScriptedChurn([[bad_op]])


@pytest.mark.parametrize("label", [2.5, 7.0, True, "a"])
@pytest.mark.parametrize(
    "shape",
    [
        lambda u: ("add", u, [0]),      # the joiner
        lambda u: ("add", 99, [0, u]),  # an attach target
        lambda u: ("delete", u),        # a victim
    ],
    ids=["joiner", "target", "victim"],
)
def test_scripted_churn_rejects_non_int_labels(shape, label):
    """Node labels are ints: 2.5 cannot be one, True aliases node 1, and
    a string is none. A script obeys the JSONL rule (ints only) and
    fails at construction."""
    graph = _path()
    with pytest.raises(SimulationError, match="nodes must be ints"):
        run_campaign(
            graph,
            HEALERS.make("dash"),
            ScriptedChurn([[("delete", 5)], [shape(label)]]),
            id_seed=0,
        )
    assert graph.num_nodes == 6  # no round ran


def test_mixed_and_batch_rounds_are_mutually_exclusive():
    class Both(ScriptedChurn):
        batch_rounds = True

    with pytest.raises(ConfigurationError, match="mixed and batch"):
        run_campaign(_path(), HEALERS.make("dash"), Both([]), id_seed=0)


def test_deleting_a_dead_node_in_a_churn_round_raises():
    with pytest.raises(SimulationError, match="dead node"):
        run_campaign(
            _path(),
            HEALERS.make("dash"),
            ScriptedChurn([[("delete", 0)], [("delete", 0)]]),
            id_seed=0,
        )


# ----------------------------------------------------------------------
# insert_and_heal error handling
# ----------------------------------------------------------------------

def test_inserting_a_present_node_raises():
    network = _network()
    with pytest.raises(SimulationError, match="already"):
        network.insert_and_heal(3, (0,))


def test_reusing_a_deleted_label_raises():
    network = _network()
    network.delete_and_heal(3)
    with pytest.raises(SimulationError):
        network.insert_and_heal(3, (0,))


def test_inserting_with_a_dead_target_raises():
    network = _network()
    network.delete_and_heal(3)
    with pytest.raises(NodeNotFoundError):
        network.insert_and_heal(99, (3,))


#: (graph, keep_events): the fused kernel takes the unobserved DASH
#: campaign on the one graph, the generic loop every other one, and the
#: dict-of-sets reference graph never fuses
ENGINES = [("reference", False), ("graph", True), ("graph", False)]


@pytest.mark.parametrize("healer", ["dash", "forgiving-tree"])
@pytest.mark.parametrize("substrate,keep_events", ENGINES)
def test_bad_join_label_raises_before_mutation(
    tmp_path, substrate, keep_events, healer
):
    """A joiner past the graph's label bound would allocate its slots:
    the graph's label check refuses it by name, on both engines, before
    the graph changes."""
    from repro.sim import fastpath

    path = tmp_path / "schedule.jsonl"
    path.write_text(f'[["add", {2**62}, [1]]]\n')
    graph = GENERATORS.make("pa:m=2", seed=4, force={"n": 30})
    if substrate == "reference":
        graph = reference_copy(graph)
    before = graph.copy()
    fused = fastpath._fused_campaigns
    with pytest.raises(ConfigurationError, match=f"{2**62}.*bound"):
        run_campaign(
            graph,
            HEALERS.make(healer),
            ADVERSARIES.make(f"trace-churn:path={path}"),
            id_seed=0,
            keep_events=keep_events,
        )
    assert graph == before
    kernel = substrate == "graph" and not keep_events and healer == "dash"
    assert fastpath._fused_campaigns == fused + kernel


@pytest.mark.parametrize("healer", ["dash", "forgiving-tree"])
def test_scripted_str_join_on_int_graph_raises(healer):
    network = SelfHealingNetwork(
        GENERATORS.make("pa:m=2", seed=4, force={"n": 30}),
        HEALERS.make(healer),
    )
    # A script refuses it at construction, the network at the join.
    with pytest.raises(SimulationError, match="'a'"):
        run_campaign(
            network.graph.copy(),
            HEALERS.make(healer),
            ScriptedChurn([[("add", "a", [1])]]),
            id_seed=0,
        )
    with pytest.raises(ConfigurationError, match="'a'"):
        network.insert_and_heal("a", (1,))
    assert "a" not in network.graph and "a" not in network.healing_graph
    assert not network.inserted_nodes and "a" not in network.initial_ids


def test_str_labelled_graph_is_refused():
    """The churn adversary mints int labels; a graph labelled by strings,
    which they could not join, cannot be built at all."""
    with pytest.raises(ConfigurationError, match="non-negative ints"):
        Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])


# ----------------------------------------------------------------------
# Insertion semantics
# ----------------------------------------------------------------------

def test_isolated_join_registers_as_singleton_component():
    network = _network(check_invariants=True)
    event = network.insert_and_heal(99, ())
    assert event.action == "insert"
    assert event.new_edges == ()
    assert event.components_merged == 1  # just its own fresh label
    assert network.graph.has_node(99)
    assert network.graph.degree(99) == 0
    # The invariant checkers (run on the next op) must accept the
    # singleton — a deletion elsewhere exercises them.
    network.delete_and_heal(2)


def test_inserted_node_can_be_deleted_and_healed():
    network = _network(check_invariants=True)
    network.insert_and_heal(99, (0, 5))
    event = network.delete_and_heal(99)
    assert event.action == "delete"
    assert not network.graph.has_node(99)
    assert network.inserted_nodes == [99]  # roster keeps the history


def test_announced_join_edges_are_delta_neutral():
    """Edges created by a join absorb into both endpoints' baselines:
    δ stays 0 for everyone, and only *healing* (here: the deletion
    afterwards) moves it."""
    network = _network(n=8)
    deltas_before = dict(network.deltas())
    network.insert_and_heal(99, tuple(range(8)))  # default healer: all
    assert network.graph.degree(99) == 8
    assert network.delta(99) == 0
    for u, d in network.deltas().items():
        assert d == deltas_before.get(u, 0) == 0, u
    assert network.peak_delta == 0


def test_tracker_counts_insert_rounds():
    network = _network()
    assert network.tracker.insert_rounds == 0
    network.insert_and_heal(99, (0,))
    network.insert_and_heal(100, (99,))
    assert network.tracker.insert_rounds == 2


def test_insertions_surface_in_result_values():
    result = run_campaign(
        _path(),
        HEALERS.make("dash"),
        ScriptedChurn([[("add", 99, (0,)), ("delete", 3)]]),
        id_seed=0,
        keep_events=True,
    )
    assert result.insertions == 1
    assert result.deletions == 1
    assert result.values["insertions"] == 1.0
    assert [e.action for e in result.events] == ["insert", "delete"]


def test_duplicate_targets_are_deduped():
    network = _network()
    event = network.insert_and_heal(99, (0, 0, 1, 0))
    assert event.participants == (0, 1)


# ----------------------------------------------------------------------
# Fast path exclusion
# ----------------------------------------------------------------------

def test_fast_path_eligibility_for_mixed_round_adversaries():
    """Exactly the verbatim churn adversary classes may enter the fused
    kernel (which runs their joins and deletions alike) — a mixed-round
    flag on anything else, or a churn subclass, is a protocol mismatch
    and must be refused."""
    from repro.adversary.classic import RandomAttack
    from repro.churn.adversaries import ChurnAdversary
    from repro.sim import fastpath

    graph = GENERATORS.make("erdos_renyi:p=0.2,backend=array", force={"n": 32})
    network = SelfHealingNetwork(graph, HEALERS.make("dash"))

    adversary = RandomAttack(seed=1)
    adversary.reset(network)
    assert fastpath.supports(network, adversary)

    # Same verbatim type, but flagged as mixed-round: instantly refused
    # (it would yield victim lists, not op lists, to the churn kernel).
    adversary.mixed_rounds = True
    assert not fastpath.supports(network, adversary)

    # Or flagged as a wave adversary: its rounds are victim sets, which
    # the kernel does not heal.
    waves = RandomAttack(seed=1)
    waves.batch_rounds = True
    waves.reset(network)
    assert not fastpath.supports(network, waves)

    # The genuine churn classes qualify...
    churn = ChurnAdversary(rate=1.0, rounds=4, seed=1)
    churn.reset(network)
    assert fastpath.supports(network, churn)

    # ...but not with the flag stripped, and not as a subclass (either
    # may override hooks the kernel inlines).
    churn.mixed_rounds = False
    assert not fastpath.supports(network, churn)

    class TweakedChurn(ChurnAdversary):
        pass

    sub = TweakedChurn(rate=1.0, rounds=4, seed=1)
    sub.reset(network)
    assert not fastpath.supports(network, sub)


def test_scripted_churn_on_two_disjoint_edges_keeps_graph_consistent():
    """End-to-end mini-scenario touching every op kind, with paranoid
    invariant checking on."""
    g = Graph(range(4))
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    result = run_campaign(
        g,
        HEALERS.make("forgiving-graph"),
        ScriptedChurn(
            [
                [("add", 10, (1, 2))],        # bridge the two edges
                [("delete", 10)],             # and tear the bridge down
                [("add", 11, ()), ("add", 12, (11,))],
            ]
        ),
        id_seed=5,
        keep_events=True,
        check_invariants=True,
    )
    assert result.insertions == 3
    assert result.deletions == 1
    assert [e.action for e in result.events] == [
        "insert", "delete", "insert", "insert"
    ]
