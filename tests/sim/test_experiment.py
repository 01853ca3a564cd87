"""Tests for experiment specs, seeding discipline, parallel execution,
and first-class wave sweeps through the unified engine."""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES
from repro.core.registry import make_healer
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.recovery.ledger import read_ledger
from repro.sim.experiment import (
    ExperimentSpec,
    expand_tasks,
    run_experiment,
    run_task,
)
from repro.sim.metrics import ConnectivityMetric, default_metrics
from repro.sim import parallel
from repro.sim.parallel import RetryPolicy, run_tasks
from repro.api import run_campaign
from repro.utils.rng import derive_seed


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="tiny",
        sizes=(12, 16),
        healers=("dash", "line-heal"),
        adversary="random",
        repetitions=2,
        master_seed=99,
        connectivity_period=1,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_valid(self):
        tiny_spec()

    def test_bad_repetitions(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(repetitions=0)

    def test_bad_generator(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(generator="nope")

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(sizes=(1,))

    def test_with_overrides(self):
        spec = tiny_spec().with_overrides(repetitions=5)
        assert spec.repetitions == 5
        assert spec.name == "tiny"

    def test_unknown_healer_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="available"):
            tiny_spec(healers=("dash", "nope"))

    def test_unknown_adversary_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="available"):
            tiny_spec(adversary="nope")

    def test_bad_adversary_spec_argument(self):
        with pytest.raises(ConfigurationError, match="invalid adversary"):
            tiny_spec(adversary="random:bogus=1")

    def test_bad_adversary_params(self):
        with pytest.raises(ConfigurationError, match="invalid adversary"):
            tiny_spec(adversary_params={"bogus": 1})

    def test_bad_healer_params(self):
        with pytest.raises(ConfigurationError, match="invalid healer"):
            tiny_spec(healer_params={"dash": {"bogus": 1}})

    def test_bad_generator_spec(self):
        with pytest.raises(ConfigurationError, match="invalid generator"):
            tiny_spec(generator="erdos_renyi:bogus=1")

    def test_bad_extra_metric(self):
        with pytest.raises(ConfigurationError, match="available"):
            tiny_spec(extra_metrics=("nope",))

    def test_max_waves_rejected_for_single_victim_adversary(self):
        with pytest.raises(ConfigurationError, match="wave adversaries"):
            tiny_spec(adversary="random", max_waves=3)
        # fine on a wave adversary
        tiny_spec(adversary="random-wave:size=4", max_waves=3)

    def test_duplicate_extra_metric_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            tiny_spec(extra_metrics=("connectivity",))
        with pytest.raises(ConfigurationError, match="duplicates"):
            tiny_spec(extra_metrics=("degree",))
        with pytest.raises(ConfigurationError, match="duplicates"):
            tiny_spec(extra_metrics=("components", "components"))
        # connectivity is only reserved while the periodic check is on
        tiny_spec(
            connectivity_period=0, extra_metrics=("connectivity:period=5",)
        )

    def test_bad_periods_fail_at_construction(self):
        with pytest.raises(ConfigurationError, match="connectivity_period"):
            tiny_spec(connectivity_period=-2)
        for period in (0, -5):
            with pytest.raises(ConfigurationError, match="stretch_period"):
                tiny_spec(stretch_period=period)

    @pytest.mark.parametrize(
        "metric",
        (
            "capacity:headroom=-1",
            "connectivity:period=0",
            "components:period=-1",
        ),
    )
    def test_extra_metric_arguments_fail_at_construction(self, metric):
        with pytest.raises(ConfigurationError):
            tiny_spec(connectivity_period=0, extra_metrics=(metric,))

    def test_spec_pinning_sweep_size_fails_at_construction(self):
        # `n` is owned by the sweep (one value per cell); a generator
        # spec pinning it would silently mislabel every result row.
        with pytest.raises(ConfigurationError, match="supplied by the runtime"):
            tiny_spec(generator="erdos_renyi:n=50,p=0.2")
        with pytest.raises(ConfigurationError, match="supplied by the runtime"):
            tiny_spec(generator_params={"n": 50})

    def test_missing_required_argument_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            tiny_spec(adversary="scripted")  # sequence is required
        with pytest.raises(ConfigurationError, match="missing required"):
            tiny_spec(generator="grid")  # rows/cols required, n ignored
        with pytest.raises(ConfigurationError, match="missing required"):
            tiny_spec(extra_metrics=("stretch",))  # needs `original`

    def test_negative_budgets(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(max_deletions=-1)
        with pytest.raises(ConfigurationError, match="max_waves"):
            tiny_spec(max_waves=-1)
        with pytest.raises(ConfigurationError):
            tiny_spec(stop_alive=-1)

    def test_spec_string_components_validate(self):
        tiny_spec(
            generator="erdos_renyi:p=0.3",
            healers=("dash", "degree-bounded:max_increase=3"),
            adversary="random-wave:size=4,schedule=geometric",
        )


class TestExpansion:
    def test_task_count(self):
        tasks = expand_tasks(tiny_spec())
        assert len(tasks) == 2 * 2 * 2

    def test_sizes_sorted(self):
        tasks = expand_tasks(tiny_spec(sizes=(30, 12)))
        assert tasks[0][1] == 12


class TestSeedingDiscipline:
    def test_same_graph_across_healers(self):
        """Paired design: (size, rep) determines the graph; the healer
        does not perturb it."""
        spec = tiny_spec()
        p1, v1 = run_task(spec, 12, "dash", 0)
        p2, v2 = run_task(spec, 12, "line-heal", 0)
        assert v1["deletions"] == v2["deletions"]  # same instance size/kill

    def test_reps_differ(self):
        spec = tiny_spec(healers=("dash",))
        _, v0 = run_task(spec, 12, "dash", 0)
        _, v1 = run_task(spec, 12, "dash", 1)
        # extremely likely to differ in some metric; check the id totals
        assert (
            v0["total_id_changes"] != v1["total_id_changes"]
            or v0["max_messages"] != v1["max_messages"]
            or v0["max_degree_increase"] != v1["max_degree_increase"]
        )

    def test_deterministic_repeat(self):
        spec = tiny_spec()
        out1 = run_task(spec, 16, "dash", 1)
        out2 = run_task(spec, 16, "dash", 1)
        assert out1 == out2


class TestRunExperiment:
    def test_row_count_and_params(self):
        spec = tiny_spec()
        rs = run_experiment(spec)
        assert len(rs) == 8
        healers = {r.params["healer"] for r in rs.rows}
        assert healers == {"dash", "line-heal"}

    def test_connectivity_always_holds(self):
        rs = run_experiment(tiny_spec())
        for row in rs.rows:
            assert row.values["always_connected"] == 1.0

    def test_stretch_collected_when_requested(self):
        spec = tiny_spec(
            sizes=(12,), healers=("dash",), measure_stretch=True,
            stretch_period=2,
        )
        rs = run_experiment(spec)
        assert all("max_stretch" in r.values for r in rs.rows)

    def test_retries_reach_run_tasks_as_a_policy(self, monkeypatch):
        """``run_tasks`` takes one retry spelling, a ``RetryPolicy``;
        ``run_experiment(retries=)`` builds it with the default backoff."""
        seen = []
        real = parallel.run_tasks

        def spy(tasks, **kwargs):
            seen.append(kwargs["retry_policy"])
            return real(tasks, **kwargs)

        monkeypatch.setattr(parallel, "run_tasks", spy)
        run_experiment(tiny_spec(sizes=(12,), repetitions=1), retries=3)
        assert seen == [RetryPolicy(retries=3, backoff=0.5)]

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(), retries=-1)


class TestParallel:
    def test_parallel_equals_serial(self):
        spec = tiny_spec()
        tasks = expand_tasks(spec)
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=2)
        assert serial == parallel

    def test_empty_tasks(self):
        assert run_tasks([], jobs=2) == []


def wave_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="wavy",
        sizes=(20, 28),
        healers=("dash", "sdash", "line-heal"),
        adversary="random-wave:size=5",
        repetitions=2,
        master_seed=41,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestWaveSweeps:
    """Wave campaigns are first-class citizens of run_experiment."""

    def test_rows_carry_wave_fields(self):
        rs = run_experiment(wave_spec())
        assert len(rs) == 2 * 3 * 2
        for row in rs.rows:
            assert row.params["adversary"] == "random-wave:size=5"
            assert row.params["wave_schedule"] == "constant:size=5"
            assert row.values["waves"] >= 1.0
            assert row.values["always_connected"] == 1.0

    def test_max_waves_bounds_rounds(self):
        rs = run_experiment(wave_spec(max_waves=2, sizes=(20,)))
        for row in rs.rows:
            assert row.values["waves"] == 2.0
            assert row.values["deletions"] == 10.0

    def test_sweep_matches_direct_wave_simulation(self):
        """Byte-identity: every cell of a process-parallel wave sweep
        equals a direct run_campaign call with the same derived
        seeds and a hand-built adversary."""
        spec = wave_spec(adversary="random-wave:size=4,schedule=geometric")
        rs = run_experiment(spec, jobs=2)
        assert len(rs) == 2 * 3 * 2
        for row in rs.rows:
            size = row.params["size"]
            rep = row.params["rep"]
            healer_name = row.params["healer"]
            graph_seed = derive_seed(
                spec.master_seed, spec.name, "graph", size, rep
            )
            id_seed = derive_seed(
                spec.master_seed, spec.name, "ids", size, rep
            )
            attack_seed = derive_seed(
                spec.master_seed, spec.name, "attack", size, rep
            )
            direct = run_campaign(
                GENERATORS.make(
                    spec.generator, seed=graph_seed, force={"n": size}
                ),
                make_healer(healer_name),
                ADVERSARIES.make(
                    "random-wave:size=4,schedule=geometric", seed=attack_seed
                ),
                id_seed=id_seed,
                metrics=default_metrics() + [ConnectivityMetric()],
            )
            expected = dict(direct.values)
            expected["deletions"] = float(direct.deletions)
            expected["final_alive"] = float(direct.final_alive)
            assert row.values == expected

    def test_parallel_equals_serial_for_waves(self):
        tasks = expand_tasks(wave_spec())
        assert run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=2)


class TestExtraMetrics:
    def test_extra_metric_spec_collected(self):
        spec = tiny_spec(
            sizes=(12,), healers=("dash",), extra_metrics=("components",)
        )
        rs = run_experiment(spec)
        for row in rs.rows:
            assert row.values["max_components"] >= 1.0

    def test_extra_metric_with_arguments(self):
        spec = tiny_spec(
            sizes=(12,),
            healers=("dash",),
            extra_metrics=("capacity:headroom=2",),
        )
        rs = run_experiment(spec)
        for row in rs.rows:
            assert "first_collapse_step" in row.values


class TestCrashSafeSweep:
    def test_recovery_dir_layout_and_rows(self, tmp_path):
        """Each cell of a crash-safe sweep gets its own ledger and
        checkpoint directory, named from the sanitized spec name and
        healer spec string, and crash safety changes no row: every
        ledger's end record holds exactly its cell's row."""
        spec = tiny_spec(
            name="crash safe",
            sizes=(12,),
            healers=("dash", "degree-bounded:max_increase=3"),
        )
        plain = run_experiment(spec)
        safe = run_experiment(
            spec.with_overrides(
                recovery_dir=str(tmp_path), checkpoint_every=3
            )
        )
        assert [(r.params, r.values) for r in safe.rows] == [
            (r.params, r.values) for r in plain.rows
        ]
        dirnames = {
            "dash": "dash",
            "degree-bounded:max_increase=3": "degree-bounded_max_increase_3",
        }
        cells = set()
        for row in safe.rows:
            healer, rep = dirnames[row.params["healer"]], row.params["rep"]
            cell = tmp_path / "crash_safe" / f"n12-{healer}-r{rep}"
            cells.add(cell)
            assert (cell / "checkpoints" / "static.json").is_file()
            records = read_ledger(cell / "campaign.jsonl")
            (end,) = [r for r in records if r["type"] == "end"]
            assert {
                **end["values"],
                "deletions": float(end["deletions"]),
                "final_alive": float(end["final_alive"]),
            } == row.values
        assert len(cells) == 4
        assert set((tmp_path / "crash_safe").iterdir()) == cells
