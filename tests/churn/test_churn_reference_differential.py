"""Differential tests: the churn adversary against its sorted-list
reference, and the network's lazily built δ index.

:class:`~repro.churn.adversaries.ChurnAdversary` keeps its survivors in
an order-statistic sequence and the initial population's expiries in a
flat list. ``_reference_churn.SortedListChurnAdversary`` is the
implementation it replaced (one ``repr``-sorted list, one dict of
expiry lists). Both must emit the same ops, leave the same RNG state and
export the same state after every round — also across an
``import_state`` mid-campaign. The initial labels are multiples of 7,
not ``0..n-1``, so ``repr`` order interleaves joiners with the initial
population.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.churn.adversaries import ChurnAdversary
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.graph import survivors
from repro.graph.generators import preferential_attachment
from repro.sim import fastpath
from repro.sim.engine import run_campaign
from tests.churn._reference_churn import SortedListChurnAdversary


def _stub(nodes):
    """What the churn adversary may read: perfbench's churn-steady
    replays it against exactly this."""
    return SimpleNamespace(graph=SimpleNamespace(nodes=lambda: iter(nodes)))


def _assert_same(fast, ref):
    assert fast._rng.getstate() == ref._rng.getstate()
    assert fast.export_state() == ref.export_state()


_PARAMS = dict(
    n=st.integers(0, 400),
    rate=st.sampled_from([0.0, 0.3, 1.0, 2.5, 4.0]),
    lifetime=st.sampled_from(["exp", "pareto"]),
    mean=st.floats(0.5, 120.0),
    shape=st.floats(1.1, 4.0),
    attach=st.integers(0, 6),
    rounds=st.one_of(st.none(), st.integers(0, 120)),
    seed=st.integers(0, 2**16),
    restore_at=st.integers(0, 40),
    block=st.sampled_from([1, 2, 5, 1024]),
)


@settings(max_examples=80, deadline=None)
@given(**_PARAMS)
def test_matches_sorted_list_reference(
    n, rate, lifetime, mean, shape, attach, rounds, seed, restore_at, block
):
    """Every round: same ops, same RNG state, same exported state; and a
    fresh adversary restored mid-campaign carries on identically. Tiny
    block sizes make the survivor sequence split and empty its blocks."""
    if rounds is None and rate > 0:
        rounds = 150  # an unlimited budget only ends by draining
    kwargs = dict(
        rate=rate,
        lifetime=lifetime,
        mean=mean,
        shape=shape,
        attach=attach,
        rounds=rounds,
        seed=seed,
    )
    network = _stub([7 * i for i in range(n)])
    with mock.patch.object(survivors, "_BLOCK", block):
        fast = ChurnAdversary(**kwargs)
        ref = SortedListChurnAdversary(**kwargs)
        fast.reset(network)
        ref.reset(network)
        _assert_same(fast, ref)
        played = 0
        while True:
            if played == restore_at:
                restored = ChurnAdversary(**{**kwargs, "seed": seed + 1})
                restored.import_state(fast.export_state())
                fast = restored
                _assert_same(fast, ref)
            ops = fast.choose_round(network)
            assert ops == ref.choose_round(network)
            _assert_same(fast, ref)
            if ops is None:
                break
            played += 1


def test_perfbench_stub_replay_matches_reference():
    """churn-steady's own check: the adversary replayed against a stub
    network (``graph.nodes`` only) schedules the reference's ops."""
    n = 3_000
    kwargs = dict(rate=4, lifetime="exp", mean=n / 4, rounds=60, seed=9)
    fast, ref = ChurnAdversary(**kwargs), SortedListChurnAdversary(**kwargs)
    fast.reset(_stub(range(n)))
    ref.reset(_stub(range(n)))
    while (ops := fast.choose_round(None)) is not None:
        assert ops == ref.choose_round(None)
        _assert_same(fast, ref)
    assert ref.choose_round(None) is None


# ----------------------------------------------------------------------
# The lazily built δ index
# ----------------------------------------------------------------------


def _churn(seed=3, rounds=40, rate=1.5, attach=3):
    return ChurnAdversary(
        rate=rate,
        lifetime="exp",
        mean=30,
        attach=attach,
        rounds=rounds,
        seed=seed,
    )


def _graph(n=300):
    return preferential_attachment(n, 3, seed=5, backend="array")


def test_delta_index_is_built_by_the_first_query():
    network = SelfHealingNetwork(_graph(), HEALERS.make("dash"), seed=7)
    network.insert_and_heal(300, (0, 1))
    network.delete_and_heal(2)
    assert network._delta_index is None  # a heal builds none
    assert network.max_delta() == max(network.deltas().values())
    assert network._delta_index is not None  # the first query does
    # Each later heal pushes the nodes it touched.
    for heal in (
        lambda: network.delete_and_heal(3),
        lambda: network.insert_and_heal(301, (4, 5, 300)),
        lambda: network.delete_batch_and_heal([6, 7, 8]),
    ):
        heal()
        network.check_delta_index()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rounds=st.integers(0, 60),
    rate=st.sampled_from([0.0, 1.5, 4.0]),
    attach=st.integers(0, 4),
)
def test_fused_campaign_leaves_delta_index_unbuilt(
    seed, rounds, rate, attach
):
    """The kernel bypasses the δ index and leaves it unbuilt; the first
    query then answers like a generic run's index, kept current since
    its first round."""
    network = SelfHealingNetwork(_graph(), HEALERS.make("dash"), seed=7)
    adversary = _churn(seed, rounds, rate, attach)
    adversary.reset(network)
    before = fastpath._fused_campaigns
    fastpath.run_fused(
        network, adversary, stop_alive=0, max_rounds=None, max_deletions=None
    )
    assert fastpath._fused_campaigns == before + 1
    assert network._delta_index is None

    generic = run_campaign(
        _graph(),
        HEALERS.make("dash"),
        _churn(seed, rounds, rate, attach),
        id_seed=7,
        keep_network=True,
    ).network
    assert network.deltas() == generic.deltas()
    assert network.max_delta_node() == generic.max_delta_node()
    assert network.max_delta() == generic.max_delta()
    network.check_delta_index()
    generic.check_delta_index()
