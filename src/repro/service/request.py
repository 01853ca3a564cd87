"""Validated campaign requests: the one description of a campaign.

A :class:`CampaignRequest` is the serializable description of exactly
one campaign — registry spec strings for the graph generator, healer,
adversary and extra metrics, plus seeds and stop conditions. Construction
binds each spec with the params and seed :func:`run_request` supplies,
so every spec must name a registered component, balance its brackets
and bind with no required argument left open (``n`` included); it also
builds the extra metrics once. :meth:`CampaignRequest.validate` builds
the healer and adversary too; the service's ``submit``, sweeps and
``repro simulate`` call it, so a bad argument (a nested schedule left
open, a trace file that is not there) fails at the door. The generator
is not built there: ``pa:n=-5`` binds, so it fails in its worker. A
stored job reloads through construction alone, so it loads even where a
component would no longer build.

:func:`run_request` is the single definition of what a request *means*,
and the only path in the package from a campaign description to
:func:`~repro.sim.engine.run_campaign`: service workers (with checkpoint
and ledger wired in), sweep cells (:func:`~repro.sim.experiment.run_task`)
and ``repro simulate`` all run a request through it. So "streamed results
match one-shot results" reduces to the engine's determinism rather than
to two implementations agreeing.

:meth:`CampaignRequest.spec_hash` canonicalizes the identity fields into
a SHA-256; the service dedupes active jobs by it, and it names job
directories on disk.

Sweeps are requests too: :meth:`CampaignRequest.from_experiment` expands
an :class:`~repro.sim.experiment.ExperimentSpec` into the requests its
cells run (:func:`~repro.sim.experiment.cell_request`), so a
service-run sweep cell equals :func:`~repro.sim.experiment.run_task`'s by
construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.adversary import ADVERSARIES, Adversary
from repro.core.base import Healer
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.sim.engine import SimulationResult, run_campaign
from repro.sim.metrics import (
    METRICS,
    Metric,
    default_metric_names,
    default_metrics,
)
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.ledger import CampaignLedger
    from repro.sim.experiment import ExperimentSpec

__all__ = ["CampaignRequest", "run_request"]

REQUEST_VERSION = 1


@dataclass(frozen=True)
class CampaignRequest:
    """One campaign, fully described (all fields JSON-serializable).

    Component fields accept registry names or spec strings; the
    generator must be complete with its params (``"pa:n=1000,m=3"`` —
    nothing forces a per-cell ``n``). ``seed`` derives the per-component
    seeds exactly like ``repro simulate --seed``; the explicit
    ``graph_seed``/``id_seed``/``attack_seed`` overrides exist for
    sweep-cell requests, which derive theirs per cell. A metric factory
    that takes the pristine ``original`` graph (``"stretch"``) gets one
    from :func:`run_request`.
    """

    generator: str
    healer: str = "dash"
    adversary: str = "neighbor-of-max"
    generator_params: Mapping[str, object] = field(default_factory=dict)
    healer_params: Mapping[str, object] = field(default_factory=dict)
    adversary_params: Mapping[str, object] = field(default_factory=dict)
    #: extra metric spec strings appended to the default set
    extra_metrics: Sequence[str] = ()
    seed: int = 0
    graph_seed: int | None = None
    id_seed: int | None = None
    attack_seed: int | None = None
    stop_alive: int = 0
    max_rounds: int | None = None
    max_deletions: int | None = None
    #: higher runs first; ties run in submission order
    priority: int = 0

    def __post_init__(self) -> None:
        # Each spec binds with what run_request supplies: its params and
        # a seed (no binding reads its value), so `n` must be named.
        for registry, spec, params in (
            (GENERATORS, self.generator, self.generator_params),
            (HEALERS, self.healer, self.healer_params),
            (ADVERSARIES, self.adversary, self.adversary_params),
        ):
            registry.bind(spec, seed=self.seed, overrides=params)
        if self.extra_metrics:
            self._metrics(Graph())
        if self.stop_alive < 0:
            raise ConfigurationError(
                f"stop_alive must be >= 0, got {self.stop_alive}"
            )
        for label in ("max_rounds", "max_deletions"):
            value = getattr(self, label)
            if value is not None and value < 0:
                raise ConfigurationError(
                    f"{label} must be >= 0, got {value}"
                )

    def validate(self) -> tuple[Healer, Adversary, list[Metric]]:
        """:meth:`components` on an empty stand-in graph: the check of
        callers that accept a new request (construction only checks that
        the healer and adversary arguments bind)."""
        return self.components(Graph())

    def components(
        self, graph: Graph
    ) -> tuple[Healer, Adversary, list[Metric]]:
        """The healer, adversary and extra metrics, built from their spec
        strings and seeded as :func:`run_request` seeds them.

        ``graph`` is the campaign's graph before it runs: a metric
        factory that takes ``original`` gets a pristine copy of it.
        """
        _, id_seed, attack_seed = self.seeds()
        healer = HEALERS.make(
            self.healer, seed=id_seed, overrides=self.healer_params
        )
        adversary = ADVERSARIES.make(
            self.adversary, seed=attack_seed, overrides=self.adversary_params
        )
        return healer, adversary, self._metrics(graph)

    def _metrics(self, graph: Graph) -> list[Metric]:
        """The extra metrics (see :meth:`components`)."""
        # Only extras need the always-on names (they cost a few µs).
        active = default_metric_names() if self.extra_metrics else set()
        original = None
        metrics = []
        for spec in self.extra_metrics:
            name = METRICS.parse(spec)[0]
            if name in active:
                raise ConfigurationError(
                    f"extra metric {spec!r} duplicates an always-on or "
                    f"earlier metric ({name!r})"
                )
            active.add(name)
            if original is None and METRICS.accepts(name, "original"):
                original = graph.copy()
            # ``force`` reaches only factories that take the argument.
            metrics.append(METRICS.make(spec, force={"original": original}))
        return metrics

    # -- identity -------------------------------------------------------
    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON of the identity fields.

        ``priority`` is scheduling advice, not identity: resubmitting
        the same campaign at a different priority dedupes onto the
        already-queued job.
        """
        payload = self.to_json()
        del payload["priority"], payload["version"]
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        payload = asdict(self)
        payload["version"] = REQUEST_VERSION
        payload["generator_params"] = dict(self.generator_params)
        payload["healer_params"] = dict(self.healer_params)
        payload["adversary_params"] = dict(self.adversary_params)
        payload["extra_metrics"] = list(self.extra_metrics)
        return payload

    @classmethod
    def from_json(cls, payload: Mapping) -> "CampaignRequest":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"campaign request must be an object, got "
                f"{type(payload).__name__}"
            )
        data = dict(payload)
        version = data.pop("version", REQUEST_VERSION)
        if version != REQUEST_VERSION:
            raise ConfigurationError(
                f"unsupported campaign request version {version!r}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown campaign request field(s): {sorted(unknown)}"
            )
        if "extra_metrics" in data:
            data["extra_metrics"] = tuple(data["extra_metrics"])
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"bad campaign request: {exc}") from None

    def with_priority(self, priority: int) -> "CampaignRequest":
        return replace(self, priority=priority)

    # -- sweep expansion ------------------------------------------------
    @classmethod
    def from_experiment(
        cls, spec: "ExperimentSpec"
    ) -> list["CampaignRequest"]:
        """The requests the sweep's cells run, in
        :func:`~repro.sim.experiment.expand_tasks` order."""
        from repro.sim.experiment import cell_request, expand_tasks

        return [cell_request(*task) for task in expand_tasks(spec)]

    # -- derived seeds --------------------------------------------------
    def seeds(self) -> tuple[int, int, int]:
        """(graph, id, attack) seeds: the explicit overrides where set,
        else the CLI's derivation from ``seed``."""
        explicit = (self.graph_seed, self.id_seed, self.attack_seed)
        return tuple(
            derive_seed(self.seed, kind) if seed is None else seed
            for seed, kind in zip(explicit, ("graph", "ids", "attack"))
        )


def run_request(
    request: CampaignRequest,
    *,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    ledger: "CampaignLedger | str | Path | None" = None,
) -> SimulationResult:
    """Run one request's campaign (the shared path of service workers,
    sweep cells and ``repro simulate`` — determinism makes every caller
    byte-equivalent)."""
    graph_seed, id_seed, _ = request.seeds()
    graph = GENERATORS.make(
        request.generator,
        seed=graph_seed,
        overrides=request.generator_params,
    )
    healer, adversary, metrics = request.components(graph)
    return run_campaign(
        graph,
        healer,
        adversary,
        id_seed=id_seed,
        metrics=default_metrics() + metrics,
        stop_alive=request.stop_alive,
        max_rounds=request.max_rounds,
        max_deletions=request.max_deletions,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        ledger=ledger,
    )
