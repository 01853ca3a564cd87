"""Experiment specification and sweep runner.

An :class:`ExperimentSpec` captures the full parameterization of one
paper-style experiment: graph family, sizes, healers, adversary,
repetitions, and which statistics to collect. :func:`run_experiment`
expands it to (size × healer × repetition) tasks, runs them (optionally
across processes — see :mod:`repro.sim.parallel`), and returns a
:class:`~repro.sim.results.ResultSet`.

Every component field accepts a registry *spec string* (see
:mod:`repro.registry`): ``healers=("dash", "degree-bounded:max_increase=3")``,
``adversary="random-wave:size=8,schedule=geometric"``,
``generator="erdos_renyi:p=0.1"``. Wave adversaries are first-class —
each cell runs through the unified :func:`~repro.sim.engine.run_campaign`
round loop, wave cells report ``values["waves"]`` plus a
``wave_schedule`` result parameter, and ``max_waves`` bounds their round
count. Specs are validated at construction (unknown names and unbindable
arguments raise immediately, not inside a worker process).

Seeding discipline: graph, ID, and attack seeds derive from
``(master_seed, size, repetition)`` but NOT from the healer, so every
healer faces the *identical* graph instance and attack randomness at each
repetition — a paired design that removes instance variance from the
cross-healer comparisons the paper's figures make. Seed *injection* is
centralized in :meth:`repro.registry.Registry.make`: a derived seed
reaches a component iff its factory takes a ``seed`` parameter and the
spec didn't pin one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.adversary import ADVERSARIES
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.sim.engine import run_campaign
from repro.sim.metrics import (
    METRICS,
    ConnectivityMetric,
    Metric,
    StretchMetric,
    default_metric_names,
    default_metrics,
)
from repro.sim.results import ResultSet
from repro.utils.rng import derive_seed

__all__ = [
    "ExperimentSpec",
    "run_experiment",
    "run_task",
    "expand_tasks",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameterization of one sweep (all fields picklable).

    Component fields (``generator``, ``healers`` entries, ``adversary``,
    ``extra_metrics`` entries) accept registry names or spec strings;
    all are validated at construction.
    """

    name: str
    #: graph generator name or spec string (see
    #: :data:`repro.graph.generators.GENERATORS`)
    generator: str = "preferential_attachment"
    #: extra generator kwargs (``n`` and ``seed`` are injected per task)
    generator_params: Mapping[str, object] = field(default_factory=dict)
    sizes: Sequence[int] = (100,)
    healers: Sequence[str] = ("dash",)
    #: healer kwargs per healer entry (keyed by the exact string used in
    #: ``healers``, spec suffix included)
    healer_params: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: adversary name or spec string — wave adversaries welcome
    #: (``"random-wave:size=8,schedule=geometric"``)
    adversary: str = "neighbor-of-max"
    adversary_params: Mapping[str, object] = field(default_factory=dict)
    #: independent graph instances per (size, healer); the paper uses 30
    repetitions: int = 30
    master_seed: int = 2008
    #: stop once ≤ this many nodes survive (0 = total destruction)
    stop_alive: int = 0
    #: node-deletion budget (checked between rounds)
    max_deletions: int | None = None
    #: round budget for wave adversaries (None = unlimited)
    max_waves: int | None = None
    #: connectivity-check cadence (rounds); 0 disables the check
    connectivity_period: int = 1
    measure_stretch: bool = False
    stretch_period: int = 1
    stretch_samples: int | None = None
    check_invariants: bool = False
    #: additional metric spec strings (e.g. ``("components",
    #: "capacity:headroom=2")``) appended to the default set
    extra_metrics: Sequence[str] = ()
    #: crash safety: write a checkpoint every N rounds per cell (None =
    #: off; requires ``recovery_dir``)
    checkpoint_every: int | None = None
    #: directory receiving one ``<cell>/campaign.jsonl`` ledger (and,
    #: with ``checkpoint_every``, a ``<cell>/checkpoints/`` directory)
    #: per sweep cell; None disables all crash-safety bookkeeping
    recovery_dir: str | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        for n in self.sizes:
            if n < 2:
                raise ConfigurationError(f"sizes must be >= 2, got {n}")
        if self.stop_alive < 0:
            raise ConfigurationError(
                f"stop_alive must be >= 0, got {self.stop_alive}"
            )
        if self.max_deletions is not None and self.max_deletions < 0:
            raise ConfigurationError(
                f"max_deletions must be >= 0, got {self.max_deletions}"
            )
        if self.max_waves is not None and self.max_waves < 0:
            raise ConfigurationError(
                f"max_waves must be >= 0, got {self.max_waves}"
            )
        if self.connectivity_period < 0:
            raise ConfigurationError(
                "connectivity_period must be >= 0 (0 disables the check), "
                f"got {self.connectivity_period}"
            )
        if self.stretch_period < 1:
            raise ConfigurationError(
                f"stretch_period must be >= 1, got {self.stretch_period}"
            )
        if self.checkpoint_every is not None:
            if self.checkpoint_every < 1:
                raise ConfigurationError(
                    f"checkpoint_every must be >= 1, got "
                    f"{self.checkpoint_every}"
                )
            if self.recovery_dir is None:
                raise ConfigurationError(
                    "checkpoint_every requires recovery_dir"
                )
            if self.measure_stretch:
                raise ConfigurationError(
                    "measure_stretch is incompatible with checkpointing "
                    "(StretchMetric holds the pristine graph and cannot "
                    "be serialized)"
                )
        # Fail fast: a typo'd component name or argument should explode
        # here, at construction, not deep inside a worker process.
        GENERATORS.validate_spec(
            self.generator,
            overrides=self.generator_params,
            reserved=("n",),
        )
        for healer in self.healers:
            HEALERS.validate_spec(
                healer, overrides=self.healer_params.get(healer, {})
            )
        adversary_name = ADVERSARIES.validate_spec(
            self.adversary, overrides=self.adversary_params
        )
        if self.max_waves is not None and not getattr(
            ADVERSARIES[adversary_name], "batch_rounds", False
        ):
            raise ConfigurationError(
                f"max_waves is a round budget for wave adversaries; "
                f"{self.adversary!r} is single-victim — use max_deletions"
            )
        # Metrics already in the run's base set would collide at finalize
        # (duplicate value names) only after a full campaign — reject the
        # known collisions here instead.
        active = default_metric_names()
        if self.connectivity_period > 0:
            active.add("connectivity")
        if self.measure_stretch:
            active.add("stretch")
        for metric in self.extra_metrics:
            name = METRICS.validate_spec(metric)
            if name in active:
                raise ConfigurationError(
                    f"extra metric {metric!r} duplicates the sweep's "
                    f"always-on {name!r} metric"
                )
            active.add(name)
            # Built once here so its own argument checks (a period or a
            # headroom out of range) fail the spec, not a worker.
            METRICS.make(metric)

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """A copy with fields replaced (for CLI --sizes/--reps overrides)."""
        return replace(self, **kwargs)


def _build_graph(spec: ExperimentSpec, n: int, seed: int):
    """Instantiate the spec's generator for one sweep cell: ``n`` is
    forced (where the factory takes one) and the derived graph seed is
    injected unless the spec pinned its own."""
    return GENERATORS.make(
        spec.generator,
        seed=seed,
        overrides=dict(spec.generator_params),
        force={"n": n},
    )


def _build_metrics(
    spec: ExperimentSpec, original, stretch_seed: int
) -> list[Metric]:
    metrics: list[Metric] = default_metrics()
    if spec.connectivity_period > 0:
        metrics.append(ConnectivityMetric(period=spec.connectivity_period))
    if spec.measure_stretch:
        assert original is not None
        metrics.append(
            StretchMetric(
                original,
                period=spec.stretch_period,
                sample_sources=spec.stretch_samples,
                seed=stretch_seed,
            )
        )
    for metric_spec in spec.extra_metrics:
        metrics.append(METRICS.make(metric_spec))
    return metrics


def _cell_recovery_dir(
    spec: ExperimentSpec, size: int, healer_name: str, rep: int
) -> Path:
    """Each cell gets its own ledger/checkpoint directory, named by its
    identity tuple (spec strings sanitized for the filesystem)."""
    safe_healer = re.sub(r"[^A-Za-z0-9_.-]+", "_", healer_name)
    assert spec.recovery_dir is not None
    return (
        Path(spec.recovery_dir)
        / re.sub(r"[^A-Za-z0-9_.-]+", "_", spec.name)
        / f"n{size}-{safe_healer}-r{rep}"
    )


def run_task(
    spec: ExperimentSpec, size: int, healer_name: str, rep: int
) -> tuple[dict, dict]:
    """Run one (size, healer, repetition) cell; returns (params, values).

    Module-level and picklable so process pools can execute it.
    """
    graph_seed = derive_seed(spec.master_seed, spec.name, "graph", size, rep)
    id_seed = derive_seed(spec.master_seed, spec.name, "ids", size, rep)
    attack_seed = derive_seed(spec.master_seed, spec.name, "attack", size, rep)
    stretch_seed = derive_seed(
        spec.master_seed, spec.name, "stretch", size, rep
    )

    graph = _build_graph(spec, size, graph_seed)
    original = graph.copy() if spec.measure_stretch else None

    healer = HEALERS.make(
        healer_name,
        seed=id_seed,
        overrides=dict(spec.healer_params.get(healer_name, {})),
    )
    adversary = ADVERSARIES.make(
        spec.adversary, seed=attack_seed, overrides=dict(spec.adversary_params)
    )
    metrics = _build_metrics(spec, original, stretch_seed)

    recovery: dict = {}
    if spec.recovery_dir is not None:
        cell_dir = _cell_recovery_dir(spec, size, healer_name, rep)
        recovery["ledger"] = cell_dir / "campaign.jsonl"
        if spec.checkpoint_every is not None:
            recovery["checkpoint_every"] = spec.checkpoint_every
            recovery["checkpoint_dir"] = cell_dir / "checkpoints"

    result = run_campaign(
        graph,
        healer,
        adversary,
        id_seed=id_seed,
        metrics=metrics,
        stop_alive=spec.stop_alive,
        max_rounds=spec.max_waves,
        max_deletions=spec.max_deletions,
        check_invariants=spec.check_invariants,
        **recovery,
    )
    params = {
        "experiment": spec.name,
        "size": size,
        "healer": healer_name,
        "adversary": spec.adversary,
        "rep": rep,
    }
    if getattr(adversary, "batch_rounds", False):
        params["wave_schedule"] = getattr(
            adversary, "schedule_spec", "custom"
        )
    values = dict(result.values)
    values["deletions"] = float(result.deletions)
    values["final_alive"] = float(result.final_alive)
    return params, values


def expand_tasks(
    spec: ExperimentSpec
) -> list[tuple[ExperimentSpec, int, str, int]]:
    """All (spec, size, healer, rep) cells of the sweep, in a cache-friendly
    order (largest sizes last so progress output front-loads fast cells)."""
    return [
        (spec, size, healer, rep)
        for size in sorted(spec.sizes)
        for healer in spec.healers
        for rep in range(spec.repetitions)
    ]


def run_experiment(
    spec: ExperimentSpec,
    *,
    jobs: int | None = None,
    progress: bool = False,
    timeout: float | None = None,
    retries: int = 2,
) -> ResultSet:
    """Run the full sweep; ``jobs`` > 1 shards cells over supervised
    processes (``timeout``/``retries`` forwarded to
    :func:`repro.sim.parallel.run_tasks`)."""
    from repro.sim.parallel import run_tasks

    tasks = expand_tasks(spec)
    outputs = run_tasks(
        tasks, jobs=jobs, progress=progress, timeout=timeout, retries=retries
    )
    results = ResultSet()
    for params, values in outputs:
        results.add(params, values)
    return results
