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
wave cells report ``values["waves"]`` plus a ``wave_schedule`` result
parameter, and ``max_waves`` bounds their round count.

A sweep cell is a :class:`~repro.service.request.CampaignRequest`:
:func:`cell_request` describes it and :func:`run_task` runs it through
:func:`~repro.service.request.run_request`, the path service jobs and
``repro simulate`` take too. The spec validates at construction by
building one cell request per healer (unknown names, unbindable
arguments and components that cannot be built raise immediately, not
inside a worker process).

Seeding discipline: graph, ID, attack and stretch seeds derive from
``(master_seed, name, size, repetition)`` but NOT from the healer, so
every healer faces the *identical* graph instance and attack randomness
at each repetition — a paired design that removes instance variance from
the cross-healer comparisons the paper's figures make. Seed *injection*
is centralized in :meth:`repro.registry.Registry.make`: a derived seed
reaches a component iff its factory takes a ``seed`` parameter and the
spec didn't pin one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.sim.metrics import METRICS
from repro.sim.results import ResultSet
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.request import CampaignRequest

__all__ = [
    "ExperimentSpec",
    "run_experiment",
    "run_task",
    "cell_request",
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
        if not self.sizes or not self.healers:
            raise ConfigurationError(
                "a sweep needs at least one size and one healer"
            )
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        for n in self.sizes:
            if n < 2:
                raise ConfigurationError(f"sizes must be >= 2, got {n}")
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
        # `n` is the sweep's, one value per cell: a spec pinning it would
        # mislabel every result row.
        GENERATORS.bind(
            self.generator,
            overrides=self.generator_params,
            force={"n": self.sizes[0]},
        )
        # A sweep asks for stretch through measure_stretch; binding bare
        # reports the `original` a "stretch" leaves open.
        for metric in self.extra_metrics:
            METRICS.bind(metric)
        # Component, metric and bound checks: one cell request per healer
        # (a healer's cells differ only in seeds and n), each built once.
        for healer in self.healers:
            _, adversary, _ = cell_request(
                self, self.sizes[0], healer, 0
            ).validate()
        is_wave = getattr(adversary, "batch_rounds", False)
        if self.max_waves is not None and not is_wave:
            raise ConfigurationError(
                f"max_waves is a round budget for wave adversaries; "
                f"{self.adversary!r} is single-victim — use max_deletions"
            )
        # Every cell faces the same adversary; its rows name the wave
        # schedule (a derived attribute, not a field: the spec is frozen).
        object.__setattr__(
            self,
            "_wave_schedule",
            getattr(adversary, "schedule_spec", "custom") if is_wave else None,
        )

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """A copy with fields replaced (for CLI --sizes/--reps overrides)."""
        return replace(self, **kwargs)


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


def cell_request(
    spec: ExperimentSpec, size: int, healer_name: str, rep: int
) -> "CampaignRequest":
    """The campaign of one (size, healer, repetition) cell.

    ``n`` goes to the generator where it takes one. The sweep's
    connectivity check and stretch measurement become extra metric specs
    ahead of ``extra_metrics``; stretch gets the cell's own seed.
    """
    # Imported here: the service package imports this module (through
    # repro.sim.parallel).
    from repro.service.request import CampaignRequest

    graph_seed, id_seed, attack_seed, stretch_seed = (
        derive_seed(spec.master_seed, spec.name, kind, size, rep)
        for kind in ("graph", "ids", "attack", "stretch")
    )
    generator_params = dict(spec.generator_params)
    if GENERATORS.accepts(GENERATORS.parse(spec.generator)[0], "n"):
        generator_params["n"] = size
    metrics = []
    if spec.connectivity_period > 0:
        metrics.append(f"connectivity:period={spec.connectivity_period}")
    if spec.measure_stretch:
        stretch = f"stretch:period={spec.stretch_period},seed={stretch_seed}"
        if spec.stretch_samples is not None:
            stretch += f",sample_sources={spec.stretch_samples}"
        metrics.append(stretch)
    return CampaignRequest(
        generator=spec.generator,
        healer=healer_name,
        adversary=spec.adversary,
        generator_params=generator_params,
        healer_params=dict(spec.healer_params.get(healer_name, {})),
        adversary_params=dict(spec.adversary_params),
        extra_metrics=(*metrics, *spec.extra_metrics),
        graph_seed=graph_seed,
        id_seed=id_seed,
        attack_seed=attack_seed,
        stop_alive=spec.stop_alive,
        max_rounds=spec.max_waves,
        max_deletions=spec.max_deletions,
    )


def run_task(
    spec: ExperimentSpec, size: int, healer_name: str, rep: int
) -> tuple[dict, dict]:
    """Run one (size, healer, repetition) cell; returns (params, values).

    Module-level and picklable so process pools can execute it.
    """
    from repro.service.request import run_request

    recovery: dict = {}
    if spec.recovery_dir is not None:
        cell_dir = _cell_recovery_dir(spec, size, healer_name, rep)
        recovery["ledger"] = cell_dir / "campaign.jsonl"
        if spec.checkpoint_every is not None:
            recovery["checkpoint_every"] = spec.checkpoint_every
            recovery["checkpoint_dir"] = cell_dir / "checkpoints"

    result = run_request(
        cell_request(spec, size, healer_name, rep), **recovery
    )
    params = {
        "experiment": spec.name,
        "size": size,
        "healer": healer_name,
        "adversary": spec.adversary,
        "rep": rep,
    }
    if spec._wave_schedule is not None:
        params["wave_schedule"] = spec._wave_schedule
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
    processes (``timeout`` and a :class:`~repro.sim.parallel.RetryPolicy`
    with ``retries`` forwarded to :func:`repro.sim.parallel.run_tasks`)."""
    from repro.sim.parallel import RetryPolicy, run_tasks

    tasks = expand_tasks(spec)
    outputs = run_tasks(
        tasks,
        jobs=jobs,
        progress=progress,
        timeout=timeout,
        retry_policy=RetryPolicy(retries=retries),
    )
    results = ResultSet()
    for params, values in outputs:
        results.add(params, values)
    return results
