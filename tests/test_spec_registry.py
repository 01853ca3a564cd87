"""Tests for the generic component registry and spec-string parsing.

Covers :mod:`repro.registry` itself plus the five registry instances —
healers, adversaries, generators, wave schedules, metrics — including a
round-trip of *every* registered name through spec-string construction
and the fail-fast error paths.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.adversary import ADVERSARIES
from repro.adversary.base import Adversary
from repro.adversary.waves import (
    WAVE_SCHEDULES,
    WaveAdversary,
    make_wave_schedule,
)
from repro.core.base import Healer
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.registry import Registry, component_registries, parse_spec
from repro.sim.metrics import METRICS, Metric


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("dash") == ("dash", (), {})

    def test_kwargs(self):
        name, args, kwargs = parse_spec(
            "random-wave:size=8,schedule=geometric"
        )
        assert name == "random-wave"
        assert args == ()
        assert kwargs == {"size": 8, "schedule": "geometric"}

    def test_positional(self):
        assert parse_spec("constant:8") == ("constant", (8,), {})

    def test_mixed_positional_then_keyword(self):
        name, args, kwargs = parse_spec("geometric:2,ratio=3.0")
        assert (name, args, kwargs) == ("geometric", (2,), {"ratio": 3.0})

    def test_literal_coercion(self):
        _, _, kwargs = parse_spec(
            "x:i=8,f=0.5,t=(1, 2),b=true,b2=False,n=none,s=hello"
        )
        assert kwargs == {
            "i": 8,
            "f": 0.5,
            "t": (1, 2),
            "b": True,
            "b2": False,
            "n": None,
            "s": "hello",
        }

    def test_nested_spec_value_stays_string(self):
        _, _, kwargs = parse_spec("random-wave:schedule=geometric:initial=4")
        assert kwargs == {"schedule": "geometric:initial=4"}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ":x=1",
            "name:",
            "name:,",
            "name:x=1,,y=2",
            "name:1 2=3",
            "name:x=1,x=2",
            "name:x=1,2",
            "pa:n=(100,m=3",
            "pa:n=100],m=3",
            "scripted:(0, 1",
            "name:s=a)b(",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            parse_spec(bad)

    def test_unbalanced_brackets_name_the_spec(self):
        with pytest.raises(ConfigurationError, match="unbalanced") as exc:
            parse_spec("pa:n=100],m=3")
        assert "'pa:n=100],m=3'" in str(exc.value)

    def test_non_string_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec(42)  # type: ignore[arg-type]


class TestRegistryCore:
    def test_mapping_protocol(self):
        reg = Registry("widget", {"a": int, "b": float})
        assert "a" in reg
        assert sorted(reg) == ["a", "b"]
        assert len(reg) == 2
        assert reg["a"] is int
        assert reg.names() == ["a", "b"]

    def test_register_decorator_and_duplicate(self):
        reg = Registry("widget")

        @reg.register("one")
        def make_one():
            return 1

        assert reg.make("one") == 1
        with pytest.raises(ConfigurationError, match="already registered"):
            reg.register("one", make_one)

    def test_unknown_name_lists_available(self):
        with pytest.raises(ConfigurationError, match="available"):
            HEALERS.make("nope")

    def test_seed_injected_only_where_accepted(self):
        # dash takes no seed; random does — same call pattern for both.
        assert not HEALERS.accepts("dash", "seed")
        assert ADVERSARIES.accepts("random", "seed")
        HEALERS.make("dash", seed=7)  # silently skipped
        a1 = ADVERSARIES.make("random", seed=7)
        a2 = ADVERSARIES.make("random", seed=7)
        assert a1._seed == a2._seed == 7

    def test_spec_seed_beats_injected_seed(self):
        adv = ADVERSARIES.make("random:seed=3", seed=7)
        assert adv._seed == 3

    def test_force_respects_acceptance(self):
        g = GENERATORS.make(
            "preferential_attachment", force={"n": 10, "rows": 99}
        )
        assert g.num_nodes == 10

    def test_bind_rejects_unknown_kwarg(self):
        with pytest.raises(ConfigurationError, match="invalid healer spec"):
            HEALERS.bind("dash:bogus=1")

    def test_bind_rejects_missing_required_argument(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            ADVERSARIES.bind("scripted")
        with pytest.raises(ConfigurationError, match="missing required"):
            ADVERSARIES.bind("level-attack")
        with pytest.raises(ConfigurationError, match="missing required"):
            GENERATORS.bind("grid")
        with pytest.raises(ConfigurationError, match="missing required"):
            METRICS.bind("stretch")
        ADVERSARIES.bind("scripted:(0, 1)")
        ADVERSARIES.bind("level-attack:3")
        GENERATORS.bind("grid:3,4")

    def test_bind_returns_what_make_builds_from(self):
        # Overrides beat the spec, force fills what the factory takes,
        # and a seed goes only where the factory takes one left open.
        bound = GENERATORS.bind(
            "pa:m=3,n=5", seed=7, overrides={"m": 2}, force={"rows": 9}
        )
        assert bound == ("pa", (), {"m": 2, "n": 5, "seed": 7})
        bound = GENERATORS.bind("erdos_renyi:p=0.5", force={"n": 6})
        assert bound == ("erdos_renyi", (), {"p": 0.5, "n": 6})
        assert ADVERSARIES.bind("random:seed=3", seed=7)[2] == {"seed": 3}
        assert HEALERS.bind("dash", seed=7) == ("dash", (), {})
        bound = ADVERSARIES.bind("level-attack:3", seed=7)
        assert bound == ("level-attack", (3,), {})

    def test_force_conflicts_with_spec_pinned_param(self):
        # A spec must not pin a runtime-owned (forced) parameter —
        # keyword or positional — instead of silently winning/losing.
        with pytest.raises(ConfigurationError, match="supplied by the runtime"):
            GENERATORS.make("erdos_renyi:n=50,p=0.2", force={"n": 10})
        with pytest.raises(ConfigurationError, match="supplied by the runtime"):
            GENERATORS.make("erdos_renyi:50,0.2", force={"n": 10})

    def test_params_reports_set_and_required(self):
        # None where the spec sets it, else whether it is required.
        params = GENERATORS.params("grid:rows=5")
        assert params["rows"] is None
        assert params["cols"] is True
        assert params["backend"] is False
        assert GENERATORS.params("erdos_renyi:40")["n"] is None
        with pytest.raises(ConfigurationError, match="invalid healer spec"):
            HEALERS.params("dash:bogus=1")

    def test_bind_refuses_a_pinned_forced_param(self):
        with pytest.raises(ConfigurationError, match="supplied by the runtime"):
            GENERATORS.bind("erdos_renyi:n=50,p=0.2", force={"n": 10})
        GENERATORS.bind("erdos_renyi:p=0.2", force={"n": 10})

    def test_empty_value_rejected(self):
        from repro.registry import parse_spec as ps

        with pytest.raises(ConfigurationError, match="empty value"):
            ps("degree-bounded:max_increase=")

    def test_bind_counts_only_what_the_caller_supplies(self):
        # No seeded factory requires its seed; a generator's `n` counts
        # as filled only where the caller supplies it.
        ADVERSARIES.bind("random")
        for spec in ("preferential_attachment", "erdos_renyi:p=0.1"):
            GENERATORS.bind(spec, force={"n": 10})
            GENERATORS.bind(spec, overrides={"n": 10})
            with pytest.raises(
                ConfigurationError, match=r"missing required argument\(s\) n"
            ):
                GENERATORS.bind(spec, seed=1)

    def test_bind_rejects_bad_override(self):
        with pytest.raises(ConfigurationError, match="invalid adversary spec"):
            ADVERSARIES.bind("random", overrides={"bogus": 1})

    def test_make_wraps_constructor_type_errors(self):
        # The arguments bind; the constructor's comparison raises.
        with pytest.raises(ConfigurationError, match="cannot build"):
            HEALERS.make("degree-bounded:max_increase=abc")


#: minimal constructor arguments for components whose factories require
#: them (everything else round-trips bare)
#: a tiny committed churn schedule (the trace-churn factory reads its
#: file at construction, so the round-trip needs a real path)
_CHURN_SCHEDULE = Path(__file__).parent / "data" / "churn_schedule.jsonl"

_REQUIRED = {
    "adversary": {
        "level-attack": "level-attack:3",
        "scripted": "scripted:(0, 1)",
        "trace-churn": f"trace-churn:path={_CHURN_SCHEDULE}",
    },
    "generator": {
        "complete_kary_tree": "complete_kary_tree:2,2",
        "grid": "grid:3,3",
        "watts_strogatz": "watts_strogatz:n=10,k=2,p=0.0",
        "path": "path:5",
        "cycle": "cycle:5",
        "star": "star:5",
        "complete": "complete:5",
        "erdos_renyi": "erdos_renyi:n=10,p=0.5",
        "gnm_random": "gnm_random:n=10,m=12",
        "random_tree": "random_tree:10",
        "preferential_attachment": "preferential_attachment:10",
        "pa": "pa:n=10,backend=array",
    },
    "metric": {"capacity": "capacity:headroom=2"},
}


class TestEveryRegisteredComponentRoundTrips:
    def test_every_healer(self):
        for name in HEALERS.names():
            healer = HEALERS.make(name, seed=1)
            assert isinstance(healer, Healer)
            assert healer.name == name

    def test_every_adversary(self):
        for name in ADVERSARIES.names():
            spec = _REQUIRED["adversary"].get(name, name)
            adversary = ADVERSARIES.make(spec, seed=1)
            assert isinstance(adversary, Adversary)
            assert adversary.name == name
            assert isinstance(adversary.batch_rounds, bool)

    def test_every_generator(self):
        for name in GENERATORS.names():
            spec = _REQUIRED["generator"].get(name, name)
            # n is runtime-owned in sweeps; here the specs pin their own
            # sizes, so no force is applied.
            graph = GENERATORS.make(spec, seed=1)
            assert isinstance(graph, Graph)
            assert graph.num_nodes >= 2

    def test_every_wave_schedule(self):
        for name in WAVE_SCHEDULES.names():
            spec = {"fraction": "fraction:0.5"}.get(name, f"{name}:4")
            schedule = make_wave_schedule(spec)
            size = schedule(0, 100)
            assert 1 <= size <= 100
            # the normalized description round-trips through the parser
            assert parse_spec(schedule.spec_string)[0] == name

    def test_every_metric(self):
        from repro.graph.generators import path_graph

        for name in METRICS.names():
            if name == "stretch":
                metric = METRICS.make(
                    "stretch", overrides={"original": path_graph(4)}
                )
            else:
                metric = METRICS.make(_REQUIRED["metric"].get(name, name))
            assert isinstance(metric, Metric)

    def test_component_registries_complete(self):
        regs = component_registries()
        assert set(regs) == {
            "healer",
            "adversary",
            "generator",
            "wave-schedule",
            "metric",
        }
        for reg in regs.values():
            assert isinstance(reg, Registry)
            assert len(reg) > 0


class TestWaveScheduleSpecs:
    def test_string_specs(self):
        assert make_wave_schedule("constant:8")(0, 100) == 8
        assert make_wave_schedule(
            "geometric:initial=2,ratio=3.0"
        )(2, 999) == 18
        assert make_wave_schedule("fraction:0.1")(0, 50) == 5

    def test_size_fills_open_size_param(self):
        assert make_wave_schedule("constant", size=5)(0, 100) == 5
        assert make_wave_schedule("geometric", size=4)(0, 100) == 4
        assert make_wave_schedule(None, size=3)(0, 100) == 3

    def test_size_ignored_where_inapplicable(self):
        # fraction has no fixed wave size; explicit specs win over size.
        assert make_wave_schedule("fraction:0.5", size=9)(0, 10) == 5
        assert make_wave_schedule("constant:2", size=9)(0, 10) == 2

    def test_default_is_constant_eight(self):
        assert make_wave_schedule(None)(0, 100) == 8

    def test_unknown_schedule_name(self):
        with pytest.raises(ConfigurationError, match="available"):
            make_wave_schedule("bogus:1")

    def test_wave_adversary_spec_end_to_end(self):
        adv = ADVERSARIES.make("random-wave:size=8,schedule=geometric", seed=1)
        assert isinstance(adv, WaveAdversary)
        assert adv.schedule(0, 10_000) == 8
        assert adv.schedule(1, 10_000) == 16
        assert adv.schedule_spec == "geometric:initial=8,ratio=2.0"
