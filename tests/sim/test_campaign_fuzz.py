"""Property-based campaign fuzzing over the live component registries.

Hypothesis previously only covered the ``graph/`` modules and
``analysis/weights``; this suite fuzzes whole campaigns. A strategy
draws *valid spec strings* from the live :data:`HEALERS`,
:data:`ADVERSARIES`, :data:`GENERATORS`, and :data:`WAVE_SCHEDULES`
registries — bare names that validate as-is plus parameterized variants
for factories with required arguments — builds the components exactly
the way :class:`~repro.sim.experiment.ExperimentSpec` would
(``Registry.make`` with centralized seed injection), runs a short
:func:`~repro.sim.engine.run_campaign` on a tiny graph, and asserts the
``check_component_labels`` and ``check_degree_index`` invariants, and
peak δ against fresh δ scans, after every round.

Because the spec pool is derived from the registries at import time, a
newly registered healer/adversary/generator/schedule is fuzzed
automatically — and a component whose bare spec stops validating drops
out loudly via :func:`test_strategies_draw_valid_specs`.
"""

from __future__ import annotations

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.adversary import ADVERSARIES
from repro.adversary.waves import WAVE_SCHEDULES
from repro.analysis import check_component_labels, check_degree_index
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError, InvariantViolation
from repro.graph.generators import GENERATORS
from repro.sim.engine import run_campaign
from repro.utils.rng import derive_seed


#: what a sweep supplies beyond the spec (a factory that does not take
#: ``n`` is not given one)
SWEEP_N = {"n": 8}


def _bare_valid(registry) -> list[str]:
    """Registry names that are valid specs as-is (required args are all
    defaulted or the sweep's ``n``)."""
    names = []
    for name in sorted(registry):
        try:
            registry.bind(name, force=SWEEP_N)
            names.append(name)
        except ConfigurationError:
            pass
    return names


#: live-registry pools — new registrations join the fuzz automatically
BARE_HEALERS = _bare_valid(HEALERS)
BARE_ADVERSARIES = _bare_valid(ADVERSARIES)
BARE_GENERATORS = _bare_valid(GENERATORS)


def healer_specs() -> st.SearchStrategy[str]:
    parameterized = st.integers(1, 3).map(
        lambda m: f"degree-bounded:max_increase={m}"
    )
    return st.one_of(st.sampled_from(BARE_HEALERS), parameterized)


def schedule_specs() -> st.SearchStrategy[str]:
    """Nested wave-schedule fragments (no commas — nested specs cannot
    contain them), one variant per registered schedule kind."""
    assert set(WAVE_SCHEDULES) >= {"constant", "geometric", "fraction"}
    return st.one_of(
        st.integers(1, 4).map(lambda k: f"constant:size={k}"),
        st.integers(1, 3).map(lambda k: f"geometric:initial={k}"),
        st.sampled_from(["fraction:fraction=0.3", "fraction:fraction=0.6"]),
    )


def churn_adversary_specs() -> st.SearchStrategy[str]:
    """Parameterized churn (mixed add/delete rounds): both lifetime
    distributions, sub- and super-unit join rates."""
    return st.builds(
        lambda rate, lifetime, mean, rounds: (
            f"churn:rate={rate},lifetime={lifetime},"
            f"mean={mean},rounds={rounds}"
        ),
        st.sampled_from([0.5, 1.0, 2.5]),
        st.sampled_from(["exp", "pareto"]),
        st.sampled_from([3.0, 6.0]),
        st.integers(4, 16),
    )


def adversary_specs() -> st.SearchStrategy[str]:
    wave_names = [n for n in BARE_ADVERSARIES if n.endswith("-wave")]
    waves = st.builds(
        lambda name, size, sched: f"{name}:size={size},schedule={sched}",
        st.sampled_from(wave_names),
        st.integers(1, 5),
        schedule_specs(),
    )
    level = st.integers(2, 3).map(lambda b: f"level-attack:branching={b}")
    return st.one_of(
        st.sampled_from(BARE_ADVERSARIES),
        waves,
        level,
        churn_adversary_specs(),
    )


def generator_specs() -> st.SearchStrategy[str]:
    parameterized = st.sampled_from(
        [
            "erdos_renyi:p=0.2",
            "watts_strogatz:k=4,p=0.2",
            "gnm_random:m=20",
            "grid:rows=3,cols=4",
            "complete_kary_tree:branching=2,depth=3",
        ]
    )
    return st.one_of(st.sampled_from(BARE_GENERATORS), parameterized)


campaign_specs = st.fixed_dictionaries(
    {
        "generator": generator_specs(),
        "healer": healer_specs(),
        "adversary": adversary_specs(),
        "n": st.integers(8, 18),
        "seed": st.integers(0, 2**20),
    }
)


class _CheckInvariantsMetric:
    """Asserts label and index ground truth after every heal event, and
    peak δ against the running maximum of fresh δ scans, which shares no
    bookkeeping with the network's peak."""

    #: churn ops heal one at a time, so a δ can rise and fall inside one
    #: round and the scan at its end may miss the peak
    churn = False
    #: the running maximum of the scans; every δ is 0 at Init
    peak = 0

    def __init__(self, churn: bool = False) -> None:
        self.churn = churn

    def on_event(self, network, event) -> None:
        check_component_labels(network)
        check_degree_index(network)
        initial_degree = network.initial_degree
        degrees = network.graph.degrees()
        scan = max(
            (d - initial_degree[u] for u, d in degrees.items()), default=0
        )
        self.peak = max(self.peak, scan)
        if self.churn:
            assert network.peak_delta >= scan
        else:
            assert network.peak_delta == self.peak

    def finalize(self, network) -> dict[str, float]:
        return {}


def run_fuzzed_campaign(spec: dict, *, max_rounds: int = 8):
    """Build every component from its spec string (seed injection as in
    ``ExperimentSpec``) and run a short invariant-checked campaign."""
    seed = spec["seed"]
    graph = GENERATORS.make(
        spec["generator"],
        seed=derive_seed(seed, "generator"),
        force={"n": spec["n"]},
    )
    healer = HEALERS.make(spec["healer"], seed=derive_seed(seed, "healer"))
    adversary = ADVERSARIES.make(
        spec["adversary"], seed=derive_seed(seed, "adversary")
    )
    return run_campaign(
        graph,
        healer,
        adversary,
        id_seed=derive_seed(seed, "ids"),
        metrics=[
            _CheckInvariantsMetric(getattr(adversary, "mixed_rounds", False))
        ],
        max_rounds=max_rounds,
        keep_network=True,
    )


@given(campaign_specs)
@settings(max_examples=40, deadline=None)
def test_fuzzed_campaigns_hold_invariants(spec):
    """Any healer × adversary × generator × schedule drawn from the live
    registries keeps component labels and degree/δ indexes exact every
    round, and leaves the tracker consistent at campaign end."""
    result = run_fuzzed_campaign(spec)
    assert result.deletions >= 0
    assert result.final_alive >= 0
    check_component_labels(result.network)
    check_degree_index(result.network)


@given(
    healer_specs(), adversary_specs(), generator_specs(), schedule_specs()
)
@settings(max_examples=40, deadline=None)
def test_strategies_draw_valid_specs(healer, adversary, generator, schedule):
    """Every drawn spec binds against its live registry with what a
    sweep supplies — the fail-fast contract ``ExperimentSpec`` relies
    on."""
    HEALERS.bind(healer, seed=1)
    ADVERSARIES.bind(adversary, seed=1)
    GENERATORS.bind(generator, seed=1, force=SWEEP_N)
    WAVE_SCHEDULES.bind(schedule)


def test_registry_pools_are_live_and_nonempty():
    """The pools come from the registries, not a hand-written list."""
    assert "dash" in BARE_HEALERS and "graph-heal" in BARE_HEALERS
    assert "forgiving-tree" in BARE_HEALERS
    assert "forgiving-graph" in BARE_HEALERS
    assert "random" in BARE_ADVERSARIES
    assert any(n.endswith("-wave") for n in BARE_ADVERSARIES)
    assert "scripted" not in BARE_ADVERSARIES  # needs a victim sequence
    assert "churn" in BARE_ADVERSARIES  # mixed rounds join the fuzz
    assert "trace-churn" not in BARE_ADVERSARIES  # needs a schedule file
    assert "random_tree" in BARE_GENERATORS


churn_campaign_specs = st.fixed_dictionaries(
    {
        "generator": generator_specs(),
        "healer": healer_specs(),
        "adversary": churn_adversary_specs(),
        "n": st.integers(8, 18),
        "seed": st.integers(0, 2**20),
    }
)


@given(churn_campaign_specs)
@settings(max_examples=30, deadline=None)
def test_fuzzed_churn_campaigns_hold_invariants(spec):
    """Mixed add/delete rounds under every healer in the pool keep
    component labels and the degree/δ indexes exact after *every* op —
    insertion events run the same ground-truth checks deletions do."""
    result = run_fuzzed_campaign(spec)
    assert result.insertions >= 0
    assert result.values.get("insertions") == float(result.insertions)
    assert result.final_alive >= 0
    check_component_labels(result.network)
    check_degree_index(result.network)


def test_fuzzer_shrinks_to_minimal_failing_spec():
    """Seeded violation: corrupt one tracker label mid-campaign and let
    Hypothesis hunt for a failing healer spec. Every spec fails, so the
    shrunk witness must be the *minimal* one — the first element of the
    healer pool (``sampled_from`` shrinks toward index 0)."""

    def violates(healer_spec: str) -> bool:
        graph = GENERATORS.make("random_tree", seed=3, force={"n": 10})
        healer = HEALERS.make(healer_spec, seed=1)
        net = SelfHealingNetwork(graph, healer, seed=0)
        net.delete_and_heal(sorted(net.graph.nodes())[0])
        tracker = net.tracker
        root = next(iter(tracker._root_members))
        tracker._root_label[root] = (2.0, 999)  # sabotage: bogus MINID
        try:
            check_component_labels(net)
        except InvariantViolation:
            return True
        return False

    minimal = find(st.sampled_from(BARE_HEALERS), violates)
    assert minimal == BARE_HEALERS[0]


crash_specs = st.fixed_dictionaries(
    {
        "generator": generator_specs(),
        "healer": healer_specs(),
        "adversary": adversary_specs(),
        "n": st.integers(10, 18),
        "seed": st.integers(0, 2**20),
        "crash_round": st.integers(1, 5),
        "checkpoint_every": st.integers(1, 4),
    }
)


def _build_campaign_components(spec: dict):
    seed = spec["seed"]
    graph = GENERATORS.make(
        spec["generator"],
        seed=derive_seed(seed, "generator"),
        force={"n": spec["n"]},
    )
    healer = HEALERS.make(spec["healer"], seed=derive_seed(seed, "healer"))
    adversary = ADVERSARIES.make(
        spec["adversary"], seed=derive_seed(seed, "adversary")
    )
    from repro.sim.metrics import METRICS

    return graph, healer, adversary, [METRICS.make("messages")]


@given(spec=crash_specs)
@settings(max_examples=25, deadline=None)
def test_fuzzed_crash_resume_is_byte_identical(tmp_path_factory, spec):
    """Inject a seeded crash at a fuzzed round into any checkpointable
    campaign drawn from the live registries; resuming from the last
    checkpoint must reproduce the uninterrupted run exactly — final
    metric values AND the full HealEvent stream."""
    from hypothesis import assume

    from repro.errors import SimulatedCrash
    from repro.recovery import CrashAtRound, resume_from_ledger

    graph, healer, adversary, metrics = _build_campaign_components(spec)
    assume(getattr(adversary, "checkpointable", False))

    straight = run_campaign(
        graph, healer, adversary,
        id_seed=derive_seed(spec["seed"], "ids"),
        metrics=metrics, keep_events=True,
    )

    graph2, healer2, adversary2, metrics2 = _build_campaign_components(spec)
    state = tmp_path_factory.mktemp("crash")
    ledger = state / "campaign.jsonl"
    try:
        resumed = run_campaign(
            graph2, healer2, adversary2,
            id_seed=derive_seed(spec["seed"], "ids"),
            metrics=metrics2 + [CrashAtRound(spec["crash_round"])],
            keep_events=True,
            checkpoint_every=spec["checkpoint_every"],
            checkpoint_dir=state / "checkpoints",
            ledger=ledger,
        )
        # Campaign ended before the crash round fired — the crash-run
        # result itself must already match.
    except SimulatedCrash:
        resumed = resume_from_ledger(ledger)

    assert resumed.values == straight.values
    assert (
        resumed.initial_n,
        resumed.deletions,
        resumed.final_alive,
        resumed.peak_delta,
    ) == (
        straight.initial_n,
        straight.deletions,
        straight.final_alive,
        straight.peak_delta,
    )
    assert resumed.events == straight.events


def test_seeded_violation_is_caught_every_round():
    """The per-round metric (not just campaign-end checks) is what trips
    on a mid-campaign corruption."""

    class _SabotageAtRound3(_CheckInvariantsMetric):
        def __init__(self):
            self._rounds = 0

        def on_event(self, network, event) -> None:
            self._rounds += 1
            if self._rounds == 3:
                tracker = network.tracker
                root = next(iter(tracker._root_members))
                tracker._root_label[root] = (3.0, 998)
            super().on_event(network, event)

    graph = GENERATORS.make("preferential_attachment", seed=5, force={"n": 16})
    with pytest.raises(InvariantViolation):
        run_campaign(
            graph,
            HEALERS.make("dash"),
            ADVERSARIES.make("random", seed=5),
            id_seed=5,
            metrics=[_SabotageAtRound3()],
        )
