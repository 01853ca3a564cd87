"""Differential tests: the random adversaries against their sorted-list
references.

:class:`~repro.adversary.classic.RandomAttack` and
:class:`~repro.adversary.waves.RandomWaveAttack` draw from the network's
survivors (:meth:`~repro.core.network.SelfHealingNetwork.survivors`, a
:class:`~repro.graph.survivors.SurvivorSequence` the heals keep);
``_reference_random`` holds the implementations that kept their own
copy (one sorted list each, bisect-and-pop). Both must name the same
target or wave and leave the same RNG state after every round, and the
network's survivors, once built, must be exactly its live labels:
across out-of-band batch deletions and count-preserving swaps, and
across an ``import_state`` mid-campaign. A reference copy cannot see an
out-of-band heal, so each one drops it and it re-sorts from the live
graph. Labels are multiples of 7, inserted ascending or descending, and
joiners take labels between them, so label order is not insertion
order.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.classic import RandomAttack
from repro.adversary.waves import RandomWaveAttack
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.graph import survivors
from repro.graph.graph import Graph
from repro.graph.survivors import SurvivorSequence
from tests.adversary._reference_random import (
    SortedListRandomAttack,
    SortedListRandomWaveAttack,
)

_LABELS = {
    "int7": lambda i: 7 * i,
    "int7-desc": lambda i: 7 * (400 - i),  # n <= 400
}
#: labels for out-of-band joiners: between the initial ones in order
_JOINERS = {
    "int7": lambda j: 7 * j + 3,
    "int7-desc": lambda j: 7 * (400 - j) + 3,
}


def _network(n, labels, seed):
    """A random connected graph on ``n`` relabelled nodes, under DASH."""
    rng = random.Random(seed)
    name = _LABELS[labels]
    g = Graph(name(i) for i in range(n))
    for i in range(1, n):
        g.add_edge(name(i), name(rng.randrange(i)))
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(name(u), name(v))
    return SelfHealingNetwork(g, HEALERS.make("dash"), seed=seed)


def _out_of_band(network, kind, k, labels, joined):
    """Churn behind the adversaries' backs: a batch deletion (the count
    disagrees) or one death plus one join (the count agrees)."""
    alive = sorted(network.graph.nodes())
    if not alive:
        return joined
    rng = random.Random(len(alive) * 31 + k)
    if kind == "batch":
        network.delete_batch_and_heal(rng.sample(alive, min(k, len(alive))))
        return joined
    victim = rng.choice(alive)
    network.delete_batch_and_heal([victim])
    rest = [u for u in alive if u != victim]
    targets = rng.sample(rest, min(2, len(rest)))
    network.insert_and_heal(_JOINERS[labels](joined), targets)
    return joined + 1


def _assert_same(fast, ref, network):
    assert fast._rng.getstate() == ref._rng.getstate()
    if network._survivors is not None:
        assert list(network.survivors()) == sorted(network.graph.nodes())


_PARAMS = dict(
    n=st.integers(0, 400),
    labels=st.sampled_from(sorted(_LABELS)),
    seed=st.integers(0, 2**16),
    block=st.sampled_from([1, 2, 5, 1024]),
    restore_at=st.integers(0, 60),
    churn=st.lists(
        st.tuples(
            st.integers(0, 60),
            st.sampled_from(["batch", "swap"]),
            st.integers(1, 6),
        ),
        max_size=4,
    ),
)


def _replay(make_fast, make_ref, network, labels, restore_at, churn, step):
    """Play both adversaries against one network until they stop.

    ``step(adversary, network)`` asks for a round; ``step(None, network,
    chosen)`` applies it."""
    fast, ref = make_fast(), make_ref()
    fast.reset(network)
    ref.reset(network)
    _assert_same(fast, ref, network)
    joined = 0
    played = 0
    while True:
        for at, kind, k in churn:
            if at == played:
                joined = _out_of_band(network, kind, k, labels, joined)
                ref._alive = None
        if played == restore_at:
            restored, restored_ref = make_fast(1), make_ref(1)
            restored.import_state(fast.export_state())
            restored_ref.import_state(ref.export_state())
            fast, ref = restored, restored_ref
            _assert_same(fast, ref, network)
        chosen = step(fast, network)
        assert chosen == step(ref, network)
        _assert_same(fast, ref, network)
        if chosen is None:
            return
        step(None, network, chosen)
        played += 1


def _factory(cls, **kwargs):
    """Builds ``cls``; a restore target gets another seed, which its
    ``import_state`` must overwrite."""

    def make(seed_offset=0):
        return cls(**{**kwargs, "seed": kwargs["seed"] + seed_offset})

    return make


def _target_step(adversary, network, chosen=None):
    if adversary is not None:
        return adversary.choose_target(network)
    network.delete_and_heal(chosen)


def _wave_step(adversary, network, chosen=None):
    if adversary is not None:
        return adversary.choose_wave(network)
    network.delete_batch_and_heal(chosen)


@settings(max_examples=60, deadline=None)
@given(**_PARAMS)
def test_random_attack_matches_sorted_list_reference(
    n, labels, seed, block, restore_at, churn
):
    """Every round: same target, same RNG state, exact survivors. Tiny
    block sizes make the sequence empty and reindex its blocks."""
    network = _network(n, labels, seed)
    with mock.patch.object(survivors, "_BLOCK", block):
        _replay(
            _factory(RandomAttack, seed=seed),
            _factory(SortedListRandomAttack, seed=seed),
            network,
            labels,
            restore_at,
            churn,
            _target_step,
        )
    assert network.num_alive == 0


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 40), **_PARAMS)
def test_random_wave_matches_sorted_list_reference(
    size, n, labels, seed, block, restore_at, churn
):
    """Every wave: same victims, same RNG state, exact survivors."""
    network = _network(n, labels, seed)
    with mock.patch.object(survivors, "_BLOCK", block):
        _replay(
            _factory(RandomWaveAttack, size=size, seed=seed),
            _factory(SortedListRandomWaveAttack, size=size, seed=seed),
            network,
            labels,
            restore_at,
            churn,
            _wave_step,
        )
    assert network.num_alive == 0


@pytest.mark.parametrize("key", [None, repr], ids=["natural", "repr"])
def test_survivor_sequence_indexes_like_a_sorted_list(key):
    """``random.choice`` reads ``len`` and indexes, ``random.sample``
    also iterates small populations; all three must match the sorted
    list, under either key."""
    labels = [7 * i for i in range(300)]
    with mock.patch.object(survivors, "_BLOCK", 4):
        seq = SurvivorSequence(sorted(labels, key=key), key=key)
        expected = sorted(labels, key=key)
        for label in (5, 2100, 6, 999_999, 14, 0):
            seq.add(label)
            expected.append(label)
        for label in (7, 2100, 0, 13, 294):  # 13 was never there
            seq.discard(label)
            if label in expected:
                expected.remove(label)
        expected.sort(key=key)
        assert len(seq) == len(expected)
        assert list(seq) == expected
        assert [seq[i] for i in range(len(seq))] == expected
        assert seq[-1] == expected[-1]
        with pytest.raises(IndexError):
            seq[len(seq)]
