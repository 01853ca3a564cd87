"""Validated campaign requests: the service's unit of work.

A :class:`CampaignRequest` is the serializable description of exactly
one campaign — registry spec strings for the graph generator, healer,
and adversary, plus seeds and stop conditions. It is validated at
construction through the same :meth:`~repro.registry.Registry.validate_spec`
machinery as :class:`~repro.sim.experiment.ExperimentSpec`, so a typo'd
component name explodes at submit time on the client, never inside a
worker process.

:func:`run_request` is the single definition of what a request *means*:
both the service worker (with checkpoint/ledger wired in) and one-shot
callers run a request through it, so "streamed results match one-shot
results" reduces to the engine's determinism rather than to two
implementations agreeing.

:meth:`CampaignRequest.spec_hash` canonicalizes the identity fields into
a SHA-256; the service dedupes active jobs by it, and it names job
directories on disk.

Sweeps are requests too: :meth:`CampaignRequest.from_experiment` expands
an :class:`~repro.sim.experiment.ExperimentSpec` into one request per
(size, healer, repetition) cell, reproducing the sweep's exact
seed-derivation discipline — a service-run sweep cell returns the same
values as :func:`~repro.sim.experiment.run_task` would.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.sim.engine import SimulationResult, run_campaign
from repro.utils.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.ledger import CampaignLedger
    from repro.sim.experiment import ExperimentSpec

__all__ = ["CampaignRequest", "run_request"]

REQUEST_VERSION = 1


def _registries():
    from repro.registry import component_registries

    return component_registries()


@dataclass(frozen=True)
class CampaignRequest:
    """One campaign, fully described (all fields JSON-serializable).

    Component fields accept registry names or spec strings; the
    generator spec must be complete (``"pa:n=1000,m=3"`` — the service
    has no per-cell ``n`` to force). ``seed`` derives the per-component
    seeds exactly like ``repro simulate --seed``; the explicit
    ``graph_seed``/``id_seed``/``attack_seed`` overrides exist for
    sweep-cell requests, which must reproduce
    :func:`~repro.sim.experiment.run_task`'s derivation.
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
        registries = _registries()
        registries["generator"].validate_spec(
            self.generator, overrides=dict(self.generator_params)
        )
        registries["healer"].validate_spec(
            self.healer, overrides=dict(self.healer_params)
        )
        registries["adversary"].validate_spec(
            self.adversary, overrides=dict(self.adversary_params)
        )
        from repro.sim.metrics import METRICS, default_metric_names

        active = default_metric_names()
        for metric in self.extra_metrics:
            name = METRICS.validate_spec(metric)
            if name in active:
                raise ConfigurationError(
                    f"extra metric {metric!r} duplicates an always-on "
                    f"metric ({name!r})"
                )
            active.add(name)
            # Built once here so its own argument checks (a period or a
            # headroom out of range) fail the submit, not the worker.
            METRICS.make(metric)
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

    # -- identity -------------------------------------------------------
    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON of the identity fields.

        ``priority`` is scheduling advice, not identity: resubmitting
        the same campaign at a different priority dedupes onto the
        already-queued job.
        """
        payload = asdict(self)
        payload.pop("priority")
        payload["generator_params"] = dict(self.generator_params)
        payload["healer_params"] = dict(self.healer_params)
        payload["adversary_params"] = dict(self.adversary_params)
        payload["extra_metrics"] = list(self.extra_metrics)
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
        """One request per sweep cell, byte-equivalent to ``run_task``.

        Seeds are derived exactly as :func:`repro.sim.experiment.run_task`
        derives them (from ``(master_seed, name, kind, size, rep)``), the
        per-cell ``n`` rides ``generator_params``, and the sweep's
        connectivity metric becomes an ``extra_metrics`` spec — so a
        service-run cell's final values match the in-process sweep's.
        """
        if spec.measure_stretch:
            raise ConfigurationError(
                "measure_stretch sweeps cannot run as service jobs "
                "(StretchMetric is not serializable)"
            )
        if spec.check_invariants:
            raise ConfigurationError(
                "check_invariants sweeps cannot run as service jobs "
                "(a request has no paranoid mode)"
            )
        from repro.sim.experiment import expand_tasks

        requests = []
        for _, size, healer, rep in expand_tasks(spec):
            extra = list(spec.extra_metrics)
            if spec.connectivity_period > 0:
                extra.insert(
                    0, f"connectivity:period={spec.connectivity_period}"
                )
            requests.append(
                cls(
                    generator=spec.generator,
                    healer=healer,
                    adversary=spec.adversary,
                    generator_params={
                        **dict(spec.generator_params), "n": size
                    },
                    healer_params=dict(spec.healer_params.get(healer, {})),
                    adversary_params=dict(spec.adversary_params),
                    extra_metrics=tuple(extra),
                    graph_seed=derive_seed(
                        spec.master_seed, spec.name, "graph", size, rep
                    ),
                    id_seed=derive_seed(
                        spec.master_seed, spec.name, "ids", size, rep
                    ),
                    attack_seed=derive_seed(
                        spec.master_seed, spec.name, "attack", size, rep
                    ),
                    stop_alive=spec.stop_alive,
                    max_rounds=spec.max_waves,
                    max_deletions=spec.max_deletions,
                )
            )
        return requests

    # -- derived seeds --------------------------------------------------
    def seeds(self) -> tuple[int, int, int]:
        """(graph, id, attack) seeds: the explicit overrides where set,
        else the CLI's derivation from ``seed``."""
        return (
            self.graph_seed
            if self.graph_seed is not None
            else derive_seed(self.seed, "graph"),
            self.id_seed
            if self.id_seed is not None
            else derive_seed(self.seed, "ids"),
            self.attack_seed
            if self.attack_seed is not None
            else derive_seed(self.seed, "attack"),
        )


def run_request(
    request: CampaignRequest,
    *,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    ledger: "CampaignLedger | str | Path | None" = None,
) -> SimulationResult:
    """Run one request's campaign (the service's and one-shot callers'
    shared path — determinism makes the two byte-equivalent)."""
    from repro.sim.metrics import METRICS, default_metrics

    registries = _registries()
    graph_seed, id_seed, attack_seed = request.seeds()
    graph = registries["generator"].make(
        request.generator,
        seed=graph_seed,
        overrides=dict(request.generator_params),
    )
    healer = registries["healer"].make(
        request.healer,
        seed=id_seed,
        overrides=dict(request.healer_params),
    )
    adversary = registries["adversary"].make(
        request.adversary,
        seed=attack_seed,
        overrides=dict(request.adversary_params),
    )
    metrics = default_metrics() + [
        METRICS.make(spec) for spec in request.extra_metrics
    ]
    return run_campaign(
        graph,
        healer,
        adversary,
        id_seed=id_seed,
        metrics=metrics,
        stop_alive=request.stop_alive,
        max_rounds=request.max_rounds,
        max_deletions=request.max_deletions,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        ledger=ledger,
    )
