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

    @pytest.mark.parametrize("field", ["measure_stretch", "check_invariants"])
    def test_stretch_sweeps_rejected(self, field):
        # Neither survives the trip to a worker: StretchMetric does not
        # serialize and a request has no paranoid mode. Dropping either
        # silently would run a different sweep than the one asked for.
        spec = ExperimentSpec(
            name="svc-stretch",
            sizes=(24,),
            healers=("dash",),
            repetitions=1,
            **{field: True},
        )
        with pytest.raises(ConfigurationError, match=field):
            CampaignRequest.from_experiment(spec)
