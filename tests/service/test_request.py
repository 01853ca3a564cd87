"""CampaignRequest: validation, identity, serialization, sweep expansion."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.request import CampaignRequest, run_request
from repro.sim.experiment import ExperimentSpec, expand_tasks, run_task
from repro.utils.rng import derive_seed


def tiny_request(**overrides) -> CampaignRequest:
    kwargs = dict(
        generator="preferential_attachment",
        generator_params={"n": 40},
        max_deletions=10,
    )
    kwargs.update(overrides)
    return CampaignRequest(**kwargs)


class TestValidation:
    def test_unknown_generator_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            tiny_request(generator="no-such-generator")

    def test_unknown_healer_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            tiny_request(healer="no-such-healer")

    def test_unknown_adversary_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            tiny_request(adversary="no-such-adversary")

    def test_generator_without_n_fails_at_construction(self):
        # run_request supplies no `n`: the spec or its params must.
        with pytest.raises(
            ConfigurationError, match=r"missing required argument\(s\) n"
        ):
            CampaignRequest(generator="pa:m=3")
        request = CampaignRequest(
            generator="pa:m=3", generator_params={"n": 50}
        )
        request.validate()

    def test_unknown_generator_param_fails(self):
        with pytest.raises(ConfigurationError):
            tiny_request(generator_params={"n": 40, "bogus": 1})

    def test_bad_extra_metric_fails(self):
        with pytest.raises(ConfigurationError):
            tiny_request(extra_metrics=("no-such-metric",))

    @pytest.mark.parametrize(
        "metric", ("capacity:headroom=-1", "connectivity:period=0")
    )
    def test_extra_metric_arguments_fail_at_submit(self, metric):
        with pytest.raises(ConfigurationError):
            tiny_request(extra_metrics=(metric,))

    def test_extra_metric_duplicating_default_fails(self):
        with pytest.raises(ConfigurationError, match="always-on"):
            tiny_request(extra_metrics=("degree",))

    def test_negative_bounds_fail(self):
        with pytest.raises(ConfigurationError):
            tiny_request(stop_alive=-1)
        with pytest.raises(ConfigurationError):
            tiny_request(max_rounds=-1)
        with pytest.raises(ConfigurationError):
            tiny_request(max_deletions=-1)

    def test_nested_schedule_left_open_fails_validation(self):
        # `schedule=geometric` leaves the schedule's `initial` open, and
        # no `size` fills it: the adversary cannot be built, so neither
        # the request nor the sweep may be. Its arguments bind, so the
        # request itself constructs (a stored job must still load).
        request = tiny_request(
            adversary="random-wave:schedule=geometric",
            max_deletions=None,
            max_rounds=2,
        )
        with pytest.raises(ConfigurationError, match="initial"):
            request.validate()
        with pytest.raises(ConfigurationError, match="initial"):
            ExperimentSpec(
                name="nested",
                sizes=(24,),
                healers=("dash",),
                repetitions=1,
                adversary="random-wave:schedule=geometric",
                max_waves=2,
            )
        tiny_request(
            adversary="random-wave:size=4,schedule=geometric",
            max_deletions=None,
            max_rounds=2,
        ).validate()

    def test_out_of_range_adversary_argument_fails_validation(self):
        # The argument binds, so the request constructs; building the
        # adversary refuses it as a configuration error, like every
        # other adversary constructor.
        request = tiny_request(
            generator="complete_kary_tree:2,4",
            generator_params={},
            adversary="level-attack:1",
        )
        with pytest.raises(ConfigurationError, match="branching"):
            request.validate()

    def test_stretch_metric_gets_the_pristine_graph(self):
        # The request path supplies `original`; a spec cannot pin it.
        request = tiny_request(extra_metrics=("stretch:period=2",))
        assert "max_stretch" in run_request(request).values
        with pytest.raises(ConfigurationError, match="supplied by"):
            tiny_request(extra_metrics=("stretch:original=1",))

    def test_spec_strings_accepted(self):
        request = tiny_request(
            adversary="random-wave:size=4,schedule=geometric",
            max_deletions=None,
            max_rounds=3,
        )
        assert request.adversary.startswith("random-wave")

    def test_churn_on_array_backend_validates_and_runs(self):
        """Churn × backend=array is a plain, runnable combination now
        that array slot maps grow for inserted nodes — the request-level
        fail-fast guard is gone, and both backends must agree exactly."""
        results = {}
        for backend in ("object", "array"):
            request = tiny_request(
                generator=f"erdos_renyi:p=0.1,backend={backend}",
                generator_params={"n": 32},
                adversary="churn:rate=2.0,rounds=6",
                max_deletions=None,
                seed=9,
            )
            results[backend] = run_request(request)
        assert results["array"].values == results["object"].values
        assert results["array"].insertions == results["object"].insertions
        assert results["array"].insertions > 0
        assert results["array"].deletions == results["object"].deletions


class TestIdentity:
    def test_spec_hash_is_stable(self):
        assert tiny_request().spec_hash() == tiny_request().spec_hash()

    def test_spec_hash_ignores_priority(self):
        low = tiny_request()
        high = low.with_priority(9)
        assert low.spec_hash() == high.spec_hash()
        assert high.priority == 9

    def test_spec_hash_differs_on_any_identity_field(self):
        base = tiny_request()
        assert base.spec_hash() != tiny_request(seed=1).spec_hash()
        assert (
            base.spec_hash()
            != tiny_request(generator_params={"n": 41}).spec_hash()
        )
        assert base.spec_hash() != tiny_request(healer="sdash").spec_hash()


class TestSerialization:
    def test_json_roundtrip(self):
        request = tiny_request(
            extra_metrics=("connectivity:period=2",), priority=3
        )
        clone = CampaignRequest.from_json(request.to_json())
        assert clone == request
        assert clone.spec_hash() == request.spec_hash()

    def test_unknown_field_rejected(self):
        payload = tiny_request().to_json()
        payload["surprise"] = 1
        with pytest.raises(ConfigurationError, match="unknown"):
            CampaignRequest.from_json(payload)

    def test_bad_version_rejected(self):
        payload = tiny_request().to_json()
        payload["version"] = 999
        with pytest.raises(ConfigurationError, match="version"):
            CampaignRequest.from_json(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignRequest.from_json([1, 2, 3])


class TestSeeds:
    def test_default_derivation_matches_cli(self):
        request = tiny_request(seed=7)
        assert request.seeds() == (
            derive_seed(7, "graph"),
            derive_seed(7, "ids"),
            derive_seed(7, "attack"),
        )

    def test_explicit_seeds_win(self):
        request = tiny_request(graph_seed=1, id_seed=2, attack_seed=3)
        assert request.seeds() == (1, 2, 3)


class TestExperimentExpansion:
    def test_cells_match_run_task(self):
        spec = ExperimentSpec(
            name="svc-expansion",
            sizes=(24,),
            healers=("dash",),
            repetitions=2,
            adversary="random-wave:size=4,schedule=geometric",
            max_waves=3,
            master_seed=11,
        )
        requests = CampaignRequest.from_experiment(spec)
        tasks = expand_tasks(spec)
        assert len(requests) == len(tasks) == 2
        for request, task in zip(requests, tasks):
            _, values = run_task(*task)
            result = run_request(request)
            for key, expected in values.items():
                if key in ("deletions", "final_alive"):
                    assert getattr(result, key) == expected
                else:
                    assert result.values[key] == expected

    @staticmethod
    def assert_cells_match_run_task(spec: ExperimentSpec) -> None:
        requests = CampaignRequest.from_experiment(spec)
        tasks = expand_tasks(spec)
        assert len(requests) == len(tasks)
        for request, task in zip(requests, tasks):
            _, values = run_task(*task)
            result = run_request(request)
            assert {
                **result.values,
                "deletions": float(result.deletions),
                "final_alive": float(result.final_alive),
            } == values

    def test_stretch_sweep_cells_match_run_task(self):
        # The stretch metric rides the request as a spec string with the
        # cell's stretch seed; run_request supplies the pristine graph.
        spec = ExperimentSpec(
            name="svc-stretch",
            sizes=(24,),
            healers=("dash", "sdash"),
            repetitions=2,
            adversary="random",
            measure_stretch=True,
            stretch_period=3,
            stretch_samples=5,
            master_seed=5,
        )
        for request in CampaignRequest.from_experiment(spec):
            assert request.extra_metrics[1].startswith("stretch:period=3,")
        self.assert_cells_match_run_task(spec)

    def test_grid_sweep_cells_match_run_task(self):
        # A generator that takes no `n` gets none: the grid's size is its
        # own rows × cols.
        spec = ExperimentSpec(
            name="svc-grid",
            generator="grid:rows=4,cols=5",
            sizes=(20,),
            healers=("dash", "graph-heal"),
            repetitions=2,
            adversary="random",
        )
        for request in CampaignRequest.from_experiment(spec):
            assert "n" not in request.generator_params
        self.assert_cells_match_run_task(spec)
