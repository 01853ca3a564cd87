"""Record/replay tests for campaign traces: save/load round-trips,
bit-for-bit replay verification, divergence detection, healer swaps, and
the JSONL hand-off to the ``trace-churn`` adversary — for a churn
campaign and for delete-only ones (a trace without joins)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import pytest

from repro.adversary import make_adversary
from repro.churn.trace import (
    ChurnTraceRecorder,
    load_churn_trace,
    replay_churn_trace,
    save_churn_schedule,
    save_churn_trace,
)
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import SimulationError
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.sim.engine import run_campaign


def _churn_graph():
    return GENERATORS.make("erdos_renyi:p=0.2", seed=9, force={"n": 16})


def _pa_graph_with_isolated_node():
    graph = GENERATORS.make(
        "preferential_attachment:m=2", seed=3, force={"n": 60}
    )
    graph.add_node(999)  # an isolated node survives the round trip
    return graph


class Scenario(NamedTuple):
    graph: Callable[[], Graph]
    healer: str
    adversary: str
    #: the healer a swapped replay runs instead
    swap_healer: str
    #: the event actions the campaign produces
    actions: set[str]


SCENARIOS = {
    "churn": Scenario(
        _churn_graph,
        "forgiving-graph",
        "churn:rate=1.5,lifetime=exp,mean=5,rounds=20",
        "dash",
        {"insert", "delete"},
    ),
    "random": Scenario(
        _pa_graph_with_isolated_node,
        "dash",
        "random",
        "graph-heal",
        {"delete"},
    ),
    "neighbor-of-max": Scenario(
        _pa_graph_with_isolated_node,
        "dash",
        "neighbor-of-max",
        "graph-heal",
        {"delete"},
    ),
}


@pytest.fixture(params=SCENARIOS)
def scenario(request) -> Scenario:
    return SCENARIOS[request.param]


def _record(scenario: Scenario):
    graph = scenario.graph()
    recorder = ChurnTraceRecorder(graph, scenario.healer, id_seed=4)
    result = run_campaign(
        graph,
        HEALERS.make(scenario.healer),
        make_adversary(scenario.adversary, seed=6),
        id_seed=4,
        metrics=[recorder],
        keep_events=True,
    )
    return recorder.trace, result


def test_recorder_captures_every_event(scenario):
    trace, result = _record(scenario)
    assert len(trace.schedule) == len(result.events)
    assert len(trace.fingerprints) == len(result.events)
    assert result.values["trace_rounds"] == float(len(result.events))
    actions = {fp[0] for fp in trace.fingerprints}
    assert actions == scenario.actions  # mixed, or delete-only
    # Each recorded round carries exactly one op, in event order.
    for round_ops, event in zip(trace.schedule, result.events):
        (op,) = round_ops
        kind = "add" if event.action == "insert" else "delete"
        assert op[0] == kind and op[1] == event.deleted


def test_save_load_round_trip(tmp_path, scenario):
    trace, original = _record(scenario)
    assert trace.initial_graph() == scenario.graph()
    path = save_churn_trace(trace, tmp_path / "t.json")
    loaded = load_churn_trace(path)
    assert loaded == trace
    assert replay_churn_trace(loaded).events == original.events


def test_load_rejects_non_trace_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(SimulationError, match="not a repro churn trace"):
        load_churn_trace(path)


def test_replay_reproduces_fingerprints_bit_for_bit(scenario):
    trace, original = _record(scenario)
    replayed = replay_churn_trace(trace)  # raises on any divergence
    assert len(replayed.events) == len(original.events)
    assert replayed.events == original.events
    assert replayed.insertions == original.insertions
    assert replayed.peak_delta == original.peak_delta


def test_replay_detects_tampered_fingerprint(scenario):
    trace, _ = _record(scenario)
    trace.fingerprints[3][2] += 1  # corrupt one num_edges
    with pytest.raises(SimulationError, match="round 4 diverged"):
        replay_churn_trace(trace)


def test_replay_fails_in_the_round_that_diverges(scenario, monkeypatch):
    trace, _ = _record(scenario)
    trace.fingerprints[3][3] += 1  # corrupt one id_changes
    healed = []
    for name in ("delete_and_heal", "insert_and_heal"):
        real = getattr(SelfHealingNetwork, name)

        def spy(self, *args, _real=real):
            healed.append(args[0])
            return _real(self, *args)

        monkeypatch.setattr(SelfHealingNetwork, name, spy)
    with pytest.raises(SimulationError, match="round 4 diverged"):
        replay_churn_trace(trace)
    # Round 4 healed, round 5 never did.
    assert healed == [round_ops[0][1] for round_ops in trace.schedule[:4]]


def test_replay_detects_truncated_trace(scenario):
    trace, _ = _record(scenario)
    trace.fingerprints.pop()
    with pytest.raises(SimulationError, match="events"):
        replay_churn_trace(trace)


def test_healer_swap_replays_same_churn(scenario):
    """The recorded schedule replays against a different healer: same
    ops, same insertion count, no fingerprint check (plans differ)."""
    trace, original = _record(scenario)
    swapped = replay_churn_trace(trace, healer_name=scenario.swap_healer)
    assert swapped.insertions == original.insertions
    assert swapped.deletions == original.deletions
    assert [e.action for e in swapped.events] == [
        e.action for e in original.events
    ]
    # And the per-event victims/joiners line up even though plans differ.
    assert [e.deleted for e in swapped.events] == [
        e.deleted for e in original.events
    ]


def test_schedule_jsonl_feeds_trace_churn_adversary(tmp_path, scenario):
    """save_churn_schedule → trace-churn adversary → identical events:
    the on-disk JSONL hand-off loses nothing."""
    trace, original = _record(scenario)
    path = save_churn_schedule(trace, tmp_path / "sched.jsonl")

    result = run_campaign(
        trace.initial_graph(),
        HEALERS.make(trace.healer),
        make_adversary(f"trace-churn:path={path}"),
        id_seed=trace.id_seed,
        keep_events=True,
    )
    assert result.events == original.events
    fingerprints = [
        [e.action, e.plan_kind, len(e.new_edges), e.id_changes]
        for e in result.events
    ]
    assert fingerprints == trace.fingerprints
