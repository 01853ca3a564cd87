"""The ``backend`` spelling: accepted everywhere, selecting nothing.

Every configuration surface that took a backend name still takes one —
``generator="pa:n=...,backend=array"`` spec strings, the ``pa``
registry alias, generator keywords, and ``repro simulate --backend`` —
because stored specs, service jobs and scripts carry it. Both accepted
names build the one :class:`~repro.graph.graph.Graph`, and an unknown
name fails fast with the known set in the message.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS, path_graph
from repro.graph.graph import BACKEND_NAMES, Graph, check_backend
from repro.sim.experiment import ExperimentSpec, expand_tasks, run_task


class TestSpecRoundTrip:
    def test_both_spellings_build_the_one_graph(self):
        for spec in (
            "pa:n=60,m=3",
            "erdos_renyi:n=50,p=0.1",
            "random_tree:n=50",
        ):
            default = GENERATORS.make(spec, seed=4)
            for name in BACKEND_NAMES:
                g = GENERATORS.make(f"{spec},backend={name}", seed=4)
                assert type(g) is Graph and type(default) is Graph
                assert g == default, (spec, name)

    def test_pa_alias(self):
        a = GENERATORS.make("pa:n=40,m=3,backend=array", seed=2)
        b = GENERATORS.make(
            "preferential_attachment:n=40,m=3,backend=array", seed=2
        )
        assert a == b

    def test_alias_listed(self):
        assert "pa" in GENERATORS.names()

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ConfigurationError) as exc:
            GENERATORS.make("pa:n=10,backend=columnar", seed=1)
        msg = str(exc.value)
        assert "columnar" in msg
        assert "array" in msg and "object" in msg


class TestKeyword:
    def test_known_names(self):
        assert BACKEND_NAMES == ("array", "object")
        for name in BACKEND_NAMES:
            check_backend(name)
            assert path_graph(4, backend=name) == path_graph(4)

    def test_unknown_name(self):
        for name in ("", "numpy", "Object"):
            with pytest.raises(ConfigurationError):
                path_graph(4, backend=name)


class TestChurnSweeps:
    """Churn sweeps give the same results whichever name they spell."""

    def _spec(self, backend: str) -> ExperimentSpec:
        generator = "erdos_renyi:p=0.1"
        if backend != "object":
            generator += f",backend={backend}"
        # One name for every spelling: task seeds derive from spec.name.
        return ExperimentSpec(
            name="churn-backend-parity",
            generator=generator,
            sizes=(32,),
            healers=("dash",),
            repetitions=1,
            adversary="churn:rate=2.0,rounds=6",
            max_deletions=None,
            master_seed=5,
        )

    def test_churn_spec_on_array_backend_constructs(self):
        self._spec("array")  # no ConfigurationError at __post_init__

    def test_churn_sweep_results_identical_across_backends(self):
        results = {}
        for backend in ("object", "array"):
            tasks = expand_tasks(self._spec(backend))
            assert len(tasks) == 1
            _, values = run_task(*tasks[0])
            results[backend] = values
        assert results["array"] == results["object"]
        assert results["array"]["insertions"] > 0


class TestCli:
    def _simulate(self, *extra):
        return main(
            ["simulate", "--n", "60", "--adversary", "random",
             "--seed", "3", *extra]
        )

    def test_backend_flag_routes(self, capsys):
        assert self._simulate("--backend", "array") == 0
        out_array = capsys.readouterr().out
        assert self._simulate("--backend", "object") == 0
        out_object = capsys.readouterr().out
        assert self._simulate() == 0
        out_default = capsys.readouterr().out
        # identical campaigns: the spelling may not change any number
        assert out_array == out_object == out_default

    def test_backend_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            self._simulate("--backend", "columnar")
        assert "array" in capsys.readouterr().err

    def test_backend_flag_conflicts_with_spec_pin(self, capsys):
        rc = main(
            ["simulate", "--n", "20", "--generator", "pa:backend=array",
             "--backend", "object"]
        )
        assert rc == 2
        assert "backend" in capsys.readouterr().err

    def test_spec_pin_without_flag_works(self, capsys):
        rc = main(
            ["simulate", "--n", "40", "--generator", "pa:backend=array",
             "--adversary", "random", "--seed", "3"]
        )
        assert rc == 0
