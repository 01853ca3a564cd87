"""Unit tests for the churn adversaries: determinism, checkpointing,
constructor validation, and the trace replayer's fail-fast parsing."""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES, make_adversary
from repro.churn.adversaries import (
    ChurnAdversary,
    TraceChurnAdversary,
    load_churn_ops,
)
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS


def _network(n=12, seed=3):
    graph = GENERATORS.make("erdos_renyi:p=0.25", seed=seed, force={"n": n})
    return SelfHealingNetwork(graph, HEALERS.make("dash"), seed=seed)


def _drain(adversary, network):
    rounds = []
    while True:
        ops = adversary.choose_round(network)
        if not ops:
            return rounds
        rounds.append(list(ops))
        for op in ops:
            if op[0] == "add":
                network.insert_and_heal(op[1], op[2])
            else:
                network.delete_and_heal(op[1])


# ----------------------------------------------------------------------
# ChurnAdversary
# ----------------------------------------------------------------------

def test_registered_specs_construct():
    assert isinstance(make_adversary("churn"), ChurnAdversary)
    adv = make_adversary(
        "churn:rate=1.5,lifetime=pareto,mean=4,shape=2.1,attach=3,rounds=9"
    )
    assert (adv.rate, adv.lifetime, adv.mean, adv.shape) == (
        1.5, "pareto", 4.0, 2.1
    )
    assert (adv.attach, adv.rounds) == (3, 9)
    assert "churn" in ADVERSARIES.names()
    assert "trace-churn" in ADVERSARIES.names()


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"rate": -0.1}, "rate"),
        ({"lifetime": "uniform"}, "lifetime"),
        ({"mean": 0}, "mean"),
        ({"mean": -2.0}, "mean"),
        ({"lifetime": "pareto", "shape": 1.0}, "shape"),
        ({"attach": -1}, "attach"),
        ({"rounds": -5}, "rounds"),
    ],
)
def test_constructor_validation(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        ChurnAdversary(**kwargs)


@pytest.mark.parametrize("lifetime", ["exp", "pareto"])
def test_same_seed_same_schedule(lifetime):
    spec = f"churn:rate=1.5,lifetime={lifetime},mean=5,rounds=20"
    schedules = []
    for _ in range(2):
        network = _network()
        adversary = make_adversary(spec, seed=7)
        adversary.reset(network)
        schedules.append(_drain(adversary, network))
    assert schedules[0] == schedules[1]
    assert schedules[0]  # non-trivial

    network = _network()
    other = make_adversary(spec, seed=8)
    other.reset(network)
    assert _drain(other, network) != schedules[0]


def test_rounds_budget_limits_the_campaign():
    network = _network()
    adversary = ChurnAdversary(rate=1.0, mean=4.0, rounds=6, seed=1)
    adversary.reset(network)
    rounds = _drain(adversary, network)
    assert 0 < len(rounds) <= 6
    assert adversary.choose_round(network) is None  # budget stays spent


def test_rate_zero_is_a_pure_death_process():
    network = _network(n=8)
    adversary = ChurnAdversary(rate=0.0, mean=3.0, rounds=None, seed=2)
    adversary.reset(network)
    rounds = _drain(adversary, network)
    ops = [op for round_ops in rounds for op in round_ops]
    assert ops and all(op[0] == "delete" for op in ops)
    assert len(ops) == 8  # the whole initial population drains
    assert network.num_alive == 0


def test_joiner_never_dies_in_its_arrival_round():
    network = _network()
    adversary = ChurnAdversary(rate=2.0, mean=1.0, rounds=24, seed=5)
    adversary.reset(network)
    for round_ops in _drain(adversary, network):
        born = {op[1] for op in round_ops if op[0] == "add"}
        died = {op[1] for op in round_ops if op[0] == "delete"}
        assert not born & died


def test_export_import_resumes_identically():
    """Stop a churn run mid-way, snapshot, rebuild a fresh adversary from
    the snapshot: the remainder must match the uninterrupted run op for
    op (the property SIGKILL recovery rests on)."""
    spec = "churn:rate=1.5,lifetime=pareto,mean=5,rounds=18"

    network_a = _network()
    full_adv = make_adversary(spec, seed=11)
    full_adv.reset(network_a)
    prefix = []
    for _ in range(5):
        ops = full_adv.choose_round(network_a)
        assert ops
        prefix.append(list(ops))
        for op in ops:
            if op[0] == "add":
                network_a.insert_and_heal(op[1], op[2])
            else:
                network_a.delete_and_heal(op[1])
    state = full_adv.export_state()
    tail_full = _drain(full_adv, network_a)

    # Replay the prefix on an identical network, then restore.
    network_b = _network()
    resumed = make_adversary(spec, seed=999)  # seed must not matter
    resumed.reset(network_b)
    for round_ops in prefix:
        for op in round_ops:
            if op[0] == "add":
                network_b.insert_and_heal(op[1], op[2])
            else:
                network_b.delete_and_heal(op[1])
    resumed.import_state(state)
    assert _drain(resumed, network_b) == tail_full


def test_export_state_is_json_clean():
    import json

    network = _network()
    adversary = ChurnAdversary(rate=1.0, mean=4.0, seed=3)
    adversary.reset(network)
    for _ in range(3):
        adversary.choose_round(network)
    state = adversary.export_state()
    assert json.loads(json.dumps(state)) == state  # tuples would differ


# ----------------------------------------------------------------------
# TraceChurnAdversary / load_churn_ops
# ----------------------------------------------------------------------

def test_trace_replays_file_verbatim(tmp_path):
    path = tmp_path / "sched.jsonl"
    path.write_text(
        '[["delete", 0]]\n'
        '\n'  # blank lines are skipped
        '[["add", 100, [1, 2]], ["delete", 1]]\n'
    )
    adversary = TraceChurnAdversary(path)
    network = _network()
    adversary.reset(network)
    assert adversary.choose_round(network) == [("delete", 0)]
    assert adversary.choose_round(network) == [
        ("add", 100, (1, 2)), ("delete", 1)
    ]
    assert adversary.choose_round(network) is None

    adversary.import_state({**adversary.export_state(), "pos": 1})
    assert adversary.choose_round(network)[0] == ("add", 100, (1, 2))


def test_missing_trace_fails_at_construction(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        TraceChurnAdversary(tmp_path / "nope.jsonl")


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"round": 1}',              # not an array
        '[["delete"]]',              # missing victim
        '[["add", 1]]',              # missing targets
        '[["add", 1, 2]]',           # targets not a list
        '[["rename", 1, [2]]]',      # unknown kind
        '[["delete", 1.0]]',         # float victim (aliases node 1)
        '[["add", 500, [1.0]]]',     # float attach target
        '[["add", [7], [0]]]',       # unhashable node
        '[["delete", true]]',        # bool victim
        '[["delete", null]]',        # null victim
        '[["add", "a", [0]]]',       # str joiner (labels are ints)
        '[["add", 500, ["a"]]]',     # str attach target
    ],
)
def test_malformed_trace_lines_fail_fast_with_location(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('[["delete", 0]]\n' + line + "\n")
    with pytest.raises(ConfigurationError, match=r"bad\.jsonl:2"):
        load_churn_ops(path)
    with pytest.raises(ConfigurationError, match=r"bad\.jsonl:2"):
        TraceChurnAdversary(path)
