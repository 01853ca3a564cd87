"""Versioned campaign checkpoints and byte-identical resume.

A checkpoint directory holds one ``static.json`` (written once per
campaign: everything immutable — initial IDs and degrees, engine
parameters, how to rebuild the healer/adversary/metrics) plus a rolling
window of ``ckpt-r<round>.json`` snapshots: the round-0 ``init`` record
(component states only) and ``full`` snapshots (graph adjacency,
healing edges, the union-find tracker verbatim, component RNG states,
accumulated metric state). Every file is written atomically and
fsync'd (temp file → ``os.replace``), so a process crash mid-write can
at worst leave a stale temp file, never a torn checkpoint; the previous
window entries are kept as fallback anyway.

Resume restores the newest intact snapshot and re-executes the rounds
after it through the campaign loop, with the live adversary and
metrics. When it starts from the ledger, each re-executed round must
reproduce the ledger's record of it (victims, deletions, survivors,
each heal's fingerprint) and the last recorded round must be reached;
churn-trace replay (:func:`replay_campaign`) runs the same check.

The resume contract — differential-tested in ``tests/recovery/`` and
fuzzed in ``tests/sim/test_campaign_fuzz.py`` — is *byte-identical
continuation*: a campaign resumed from round ``r`` produces exactly the
:class:`~repro.core.network.HealEvent` stream and final metric values
the uninterrupted campaign would have produced. Three design choices
make that possible rather than aspirational:

* every stochastic component freezes its Mersenne-Twister state
  (:func:`repro.utils.rng.rng_state_to_json`), not its seed;
* the tracker exports its union-find classes *as-is*, tombstone roots
  and MINID labels of long-dead nodes included, which a relabelling
  from G′ connectivity could not reproduce;
* the network's δ index and survivors and the adversaries' neighbor
  caches stay out of the snapshot: each rebuilds from the live graph at
  its first use, byte-identical to the incrementally maintained state.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from itertools import chain
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from repro.core.components import NodeId, make_node_ids
from repro.core.network import HealEvent, SelfHealingNetwork
from repro.errors import CheckpointError, ConfigurationError, DivergenceError
from repro.graph.graph import Graph
from repro.recovery.ledger import (
    LEDGER_VERSION,
    CampaignLedger,
    latest_campaign,
    read_ledger,
)
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationResult

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "CampaignRecorder",
    "RestoredCampaign",
    "load_checkpoint",
    "replay_campaign",
    "resume_campaign",
    "resume_from_ledger",
]

Node = Hashable

CHECKPOINT_VERSION = 1
STATIC_FILENAME = "static.json"
_CKPT_PREFIX = "ckpt-r"
_CKPT_SUFFIX = ".json"
#: dynamic snapshots a checkpoint directory keeps: the newest is the
#: resume point, the older ones the fallback when it was torn
_KEEP_SNAPSHOTS = 3


# ----------------------------------------------------------------------
# JSON plumbing
# ----------------------------------------------------------------------
def _ensure_jsonable(obj: object, where: str) -> object:
    """Reject anything that would not round-trip through JSON unchanged.

    Tuples and sets are refused rather than silently coerced to lists:
    a state payload that changes type across a save/load cycle breaks
    the byte-identical contract in ways that only surface rounds later.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        for item in obj:
            _ensure_jsonable(item, where)
        return obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"{where}: dict key {key!r} is not a string"
                )
            _ensure_jsonable(value, where)
        return obj
    raise CheckpointError(
        f"{where}: value {obj!r} of type {type(obj).__name__} is not "
        "JSON-serializable"
    )


def _write_json_atomic(path: Path, payload: dict) -> bytes:
    """Atomic, machine-crash durable write: temp file in the same
    directory, fsync, ``os.replace``, fsync of the directory entry.
    Returns the serialized bytes so callers can hash them without
    re-reading the file."""
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return data
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return data


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    return payload


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Domain codecs
# ----------------------------------------------------------------------
def _encode_label(label: NodeId) -> list:
    return list(label)


def _decode_label(payload: Sequence) -> NodeId:
    return (payload[0], payload[1])


def _encode_edges(edge_iter) -> list:
    """Flat edge array ``[a0, b0, a1, b1, ...]`` in iteration order.
    Flat because this is serialized on every snapshot over the whole
    adjacency: one array instead of one list object per edge roughly
    halves the json cost. Not canonicalized: the graph's edge iteration
    is already deterministic, decode is orientation-blind, and sorting
    ~m pairs was a measurable slice of the checkpoint overhead
    budget."""
    return list(chain.from_iterable(edge_iter))


def _iter_edge_pairs(flat: Sequence) -> Iterable[tuple]:
    it = iter(flat)
    return zip(it, it)


def _encode_nodes(nodes: list) -> object:
    """A contiguous ``0..n-1`` node list compresses to its count."""
    n = len(nodes)
    if nodes == list(range(n)):
        return n
    return nodes


def _static_node_seq(static: dict) -> Sequence[Node]:
    """The recorded node sequence, in original ID-assignment order."""
    for key in ("nodes", "edges"):
        if key not in static:
            raise CheckpointError(
                f"static payload lacks {key!r} — cannot re-derive the "
                "initial network"
            )
    nodes = static["nodes"]
    if isinstance(nodes, int):
        return range(nodes)
    return nodes


def _static_tables(static: dict) -> tuple[dict, dict]:
    """Re-derive the initial ID and degree tables from the static
    payload. IDs are exactly what ``SelfHealingNetwork.__init__``
    produced — ``make_node_ids`` over the recorded node order with the
    recorded ``id_seed`` — and each node's initial degree is its
    endpoint count in the flat edge array."""
    nodes = _static_node_seq(static)
    initial_ids = make_node_ids(
        nodes, make_rng(static["params"]["id_seed"])
    )
    initial_degree = dict.fromkeys(nodes, 0)
    for endpoint in static["edges"]:
        initial_degree[endpoint] += 1
    return initial_ids, initial_degree


def _encode_graph(graph: Graph) -> dict:
    """Adjacency as a flat edge array plus isolated survivors."""
    isolated = [u for u, d in graph.degrees().items() if d == 0]
    return {"edges": _encode_edges(graph.edges()), "isolated": isolated}


def _decode_graph(payload: dict, nodes: Sequence[Node]) -> Graph:
    graph = _live_graph(nodes)
    for a, b in _iter_edge_pairs(payload["edges"]):
        graph.add_edge(a, b)
    return graph


def _graph_nodes(payload: dict) -> list[Node]:
    nodes = set(payload["isolated"])
    nodes.update(payload["edges"])
    return sorted(nodes)


def _live_graph(nodes: Sequence[Node]) -> Graph:
    """The edgeless graph on the ascending labels ``nodes``, sized in one
    step: churn can leave live labels farther apart than one add may
    grow a store, though the campaign's own store spanned them."""
    top = nodes[-1] + 1 if nodes else 0
    graph = Graph(range(top))
    live = set(nodes)
    for u in range(top):
        if u not in live:
            graph.remove_node(u)
    return graph


def _encode_victim(victim: Node) -> object:
    """Victims, batch super-nodes, and churn ops share one codec.

    A mixed (churn) round's ops arrive as ``("add", node, targets)`` /
    ``("delete", victim)`` tuples; delete ops flatten to the bare victim
    (indistinguishable from a classic round's victim) and add ops become
    ``{"add": [node, targets]}``.
    Nodes are ints, so the tags cannot collide with node values.
    """
    if isinstance(victim, frozenset):
        return {"batch": sorted(victim, key=repr)}
    if (
        isinstance(victim, tuple)
        and victim
        and victim[0] in ("add", "delete")
    ):
        if victim[0] == "add":
            return {"add": [victim[1], list(victim[2])]}
        return victim[1]
    return victim


def _decode_victim(payload: object) -> Node:
    if isinstance(payload, dict):
        if "add" in payload:
            node, targets = payload["add"]
            return ("add", node, tuple(targets))
        return frozenset(payload["batch"])
    return payload


def _encode_event(event: HealEvent) -> dict:
    payload = {
        "step": event.step,
        "deleted": _encode_victim(event.deleted),
        "plan_kind": event.plan_kind,
        "participants": list(event.participants),
        "new_edges": [list(edge) for edge in event.new_edges],
        "edges_added_to_g": event.edges_added_to_g,
        "id_changes": event.id_changes,
        "messages_sent": event.messages_sent,
        "components_merged": event.components_merged,
        "components_after": event.components_after,
        "split": event.split,
    }
    # Written only for non-default actions so delete-only campaigns keep
    # their pre-churn checkpoint bytes.
    if event.action != "delete":
        payload["action"] = event.action
    return payload


def _decode_event(payload: dict) -> HealEvent:
    return HealEvent(
        step=payload["step"],
        deleted=_decode_victim(payload["deleted"]),
        plan_kind=payload["plan_kind"],
        participants=tuple(payload["participants"]),
        new_edges=tuple(tuple(edge) for edge in payload["new_edges"]),
        edges_added_to_g=payload["edges_added_to_g"],
        id_changes=payload["id_changes"],
        messages_sent=payload["messages_sent"],
        components_merged=payload["components_merged"],
        components_after=payload["components_after"],
        split=payload["split"],
        action=payload.get("action", "delete"),
    )


# ----------------------------------------------------------------------
# Component (re)construction
# ----------------------------------------------------------------------
def _component_descriptor(component: object) -> dict:
    """How to rebuild ``component`` at resume: its import path, plus the
    registry provenance :meth:`repro.registry.Registry.make` attached
    (None when built directly — resume then needs an explicit object)."""
    cls = type(component)
    descriptor: dict = {
        "class": f"{cls.__module__}:{cls.__qualname__}",
        "provenance": None,
    }
    provenance = getattr(component, "_registry_provenance", None)
    if provenance is not None:
        try:
            descriptor["provenance"] = _ensure_jsonable(
                {
                    "registry": provenance["registry"],
                    "name": provenance["name"],
                    "args": list(provenance["args"]),
                    "kwargs": dict(provenance["kwargs"]),
                },
                "registry provenance",
            )
        except CheckpointError:
            # Non-serializable constructor args (e.g. a callable wave
            # schedule): resume will require an explicit object.
            descriptor["provenance"] = None
    return descriptor


def _import_class(spec: str) -> type:
    module_name, _, qualname = spec.partition(":")
    try:
        obj: object = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise CheckpointError(
            f"cannot import checkpointed class {spec!r}: {exc}"
        ) from exc
    if not isinstance(obj, type):
        raise CheckpointError(f"checkpointed class {spec!r} is not a class")
    return obj


def _rebuild_from_provenance(descriptor: dict, kind: str) -> object:
    provenance = descriptor.get("provenance")
    if provenance is None:
        raise CheckpointError(
            f"checkpoint stores no registry provenance for the {kind} "
            f"({descriptor.get('class')}); pass an explicitly constructed "
            f"{kind}= object to resume"
        )
    from repro.registry import component_registries

    registries = component_registries()
    registry = next(
        (r for r in registries.values() if r.kind == provenance["registry"]),
        None,
    )
    if registry is None:
        raise CheckpointError(
            f"unknown registry kind {provenance['registry']!r} in "
            f"{kind} provenance"
        )
    try:
        component = registry.factory(provenance["name"])(
            *provenance["args"], **provenance["kwargs"]
        )
    except (ConfigurationError, TypeError) as exc:
        raise CheckpointError(
            f"cannot rebuild {kind} from provenance {provenance!r}: {exc}"
        ) from exc
    try:
        component._registry_provenance = dict(provenance)
    except (AttributeError, TypeError):  # pragma: no cover - slots
        pass
    return component


def _rebuild_metric(descriptor: dict, state: dict) -> object:
    """Metrics restore class-first: ``cls.__new__`` + ``import_state``
    (constructor arguments like ``CapacityMetric.headroom`` live inside
    the exported state, so no signature archaeology is needed)."""
    cls = _import_class(descriptor["class"])
    metric = cls.__new__(cls)
    metric.import_state(state)
    return metric


def _checkpointed_metrics(metrics: Sequence[object]) -> list[object]:
    """The metrics that participate in checkpoints — fault injectors and
    other observers marked ``checkpoint_exempt`` are left out (they exist
    to *cause* crashes, not to survive them)."""
    return [
        m for m in metrics if not getattr(m, "checkpoint_exempt", False)
    ]


# ----------------------------------------------------------------------
# Checkpoint directory
# ----------------------------------------------------------------------
class Checkpointer:
    """Owns one campaign's checkpoint directory.

    Keeps the last ``_KEEP_SNAPSHOTS`` dynamic snapshots: the newest is
    the normal resume point, the older ones are the fallback when a
    crash (or an injected fault — see :mod:`repro.recovery.faults`)
    corrupted the newest on disk.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @property
    def static_path(self) -> Path:
        return self.directory / STATIC_FILENAME

    def write_static(self, payload: dict) -> Path:
        _write_json_atomic(self.static_path, payload)
        return self.static_path

    def read_static(self) -> dict:
        payload = _read_json(self.static_path)
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version "
                f"{payload.get('version')!r} in {self.static_path} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return payload

    def checkpoint_path(self, round_index: int) -> Path:
        return self.directory / (
            f"{_CKPT_PREFIX}{round_index:08d}{_CKPT_SUFFIX}"
        )

    def write(self, round_index: int, payload: dict) -> tuple[Path, str]:
        """Write one snapshot, fsync'd; returns its path and content
        sha256 (hashed from the serialized bytes, no read-back)."""
        path = self.checkpoint_path(round_index)
        data = _write_json_atomic(path, payload)
        self._prune()
        return path, hashlib.sha256(data).hexdigest()

    def list_checkpoints(self) -> list[tuple[int, Path]]:
        """``(round, path)`` pairs, ascending by round. Names whose stem
        is not a round number are skipped — among them the ``-delta``
        records older versions wrote between full snapshots."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}"):
            stem = path.name[len(_CKPT_PREFIX):-len(_CKPT_SUFFIX)]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue
        return sorted(found, key=lambda rp: rp[0])

    def _prune(self) -> None:
        """Drop all but the ``_KEEP_SNAPSHOTS`` newest snapshots."""
        for _, path in self.list_checkpoints()[:-_KEEP_SNAPSHOTS]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleaners
                pass


# ----------------------------------------------------------------------
# Recorder: the engine's per-round hook
# ----------------------------------------------------------------------
class CampaignRecorder:
    """Bridges :func:`~repro.sim.engine.run_campaign` to durable state.

    Built by the engine when the caller asks for checkpointing and/or a
    ledger; :meth:`after_round` runs once per completed round and is the
    only hot-path surface (a ledger append per round, a full snapshot
    every ``checkpoint_every`` rounds).
    """

    def __init__(
        self,
        *,
        network: SelfHealingNetwork,
        adversary: object,
        metrics: Sequence[object],
        params: dict,
        checkpointer: Checkpointer | None,
        checkpoint_every: int | None,
        ledger: CampaignLedger | str | Path | None,
        start_degree: dict,
        recorded_rounds: Iterable[dict] = (),
    ) -> None:
        self.network = network
        self.adversary = adversary
        self.metrics = list(metrics)
        self.params = params
        self.checkpointer = checkpointer
        self.checkpoint_every = checkpoint_every
        #: a ledger given as a path is opened here and closed by
        #: :meth:`close`
        self._owns_ledger = isinstance(ledger, (str, os.PathLike))
        self.ledger = CampaignLedger(ledger) if self._owns_ledger else ledger
        #: the campaign-start initial-degree table (restore re-derives
        #: it from ``static.json``); joins add nodes and raise their
        #: targets' baselines, so full snapshots record every change
        self._start_degree = start_degree
        #: round records still to be re-executed, by round — the
        #: re-execution tripwire (empty in a first run)
        self._recorded = {r["round"]: r for r in recorded_rounds}

    # -- construction ---------------------------------------------------
    @classmethod
    def begin(
        cls,
        *,
        network: SelfHealingNetwork,
        adversary: object,
        metrics: Sequence[object],
        params: dict,
        checkpoint_every: int | None,
        checkpoint_dir: str | Path | None,
        ledger: CampaignLedger | str | Path | None,
    ) -> "CampaignRecorder":
        """Validate, write the static payload + round-0 checkpoint, and
        open the ledger with its campaign header."""
        checkpointer, every = cls._validate(
            network=network,
            adversary=adversary,
            metrics=metrics,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )
        recorder = cls(
            network=network,
            adversary=adversary,
            metrics=metrics,
            params=params,
            checkpointer=checkpointer,
            checkpoint_every=every,
            ledger=ledger,
            start_degree=dict(network.initial_degree),
        )
        try:
            # Header first: every later record (including the round-0
            # checkpoint reference) belongs to this campaign section.
            if recorder.ledger is not None:
                recorder.ledger.append(
                    {
                        "type": "campaign",
                        "version": LEDGER_VERSION,
                        "checkpoint_dir": (
                            str(checkpointer.directory)
                            if checkpointer is not None
                            else None
                        ),
                        "initial_n": network.initial_n,
                        "params": _ensure_jsonable(
                            dict(params), "engine params"
                        ),
                        "adversary": _component_descriptor(adversary),
                        "healer": _component_descriptor(network.healer),
                    }
                )
            if checkpointer is not None:
                recorder._write_static()
                recorder._checkpoint(0, 0)
        except BaseException:
            recorder.close()
            raise
        return recorder

    @classmethod
    def resume(
        cls,
        restored: "RestoredCampaign",
        *,
        ledger: CampaignLedger | str | Path | None,
        keep_checkpointing: bool,
        recorded_rounds: Iterable[dict],
    ) -> "CampaignRecorder":
        """A recorder continuing a restored campaign: the same cadence
        and directory (unless ``keep_checkpointing`` is off), a
        ``resumed`` marker in the ledger, and ``recorded_rounds`` as
        its tripwire (see :meth:`_check`)."""
        keep = keep_checkpointing
        recorder = cls(
            network=restored.network,
            adversary=restored.adversary,
            metrics=restored.metrics,
            params=restored.params,
            checkpointer=restored.checkpointer if keep else None,
            checkpoint_every=restored.checkpoint_every if keep else None,
            ledger=ledger,
            start_degree=restored.start_degree,
            recorded_rounds=recorded_rounds,
        )
        if recorder.ledger is not None:
            try:
                recorder.ledger.append(
                    {
                        "type": "resumed",
                        "round": restored.rounds,
                        "file": restored.checkpoint_path.name,
                    }
                )
            except BaseException:
                recorder.close()
                raise
        return recorder

    @staticmethod
    def _validate(
        *,
        network: SelfHealingNetwork,
        adversary: object,
        metrics: Sequence[object],
        checkpoint_every: int | None,
        checkpoint_dir: str | Path | None,
    ) -> tuple[Checkpointer | None, int | None]:
        if checkpoint_every is None and checkpoint_dir is None:
            return None, None
        if checkpoint_dir is None:
            raise ConfigurationError(
                "checkpoint_every requires checkpoint_dir"
            )
        every = checkpoint_every
        if every is not None and every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {every}"
            )
        if network.id_seed is None:
            raise CheckpointError(
                "cannot checkpoint a campaign with id_seed=None: its node "
                "IDs come from OS entropy, which a restore cannot draw "
                "again — pass an int id_seed"
            )
        # Fail at campaign start, not at the first checkpoint N rounds
        # in: every participating component must support the protocol.
        if not getattr(adversary, "checkpointable", False) or not hasattr(
            adversary, "export_state"
        ):
            raise CheckpointError(
                f"adversary {getattr(adversary, 'name', adversary)!r} is "
                "not checkpointable — run this campaign straight through"
            )
        if not hasattr(network.healer, "export_state"):
            raise CheckpointError(
                f"healer {getattr(network.healer, 'name', '?')!r} lacks "
                "export_state/import_state"
            )
        for metric in _checkpointed_metrics(metrics):
            if not getattr(metric, "checkpointable", False) or not hasattr(
                metric, "export_state"
            ):
                raise CheckpointError(
                    f"metric {type(metric).__name__} is not checkpointable "
                    "(mark it checkpoint_exempt or drop it)"
                )
            _import_class(_component_descriptor(metric)["class"])
        return Checkpointer(checkpoint_dir), every

    # -- payloads -------------------------------------------------------
    def _write_static(self) -> None:
        assert self.checkpointer is not None
        network = self.network
        payload = {
            "version": CHECKPOINT_VERSION,
            "format": "repro-campaign-static",
            "initial_n": network.initial_n,
            # Node list in ID-assignment order plus the initial
            # adjacency. The initial ID and degree tables are NOT
            # stored: IDs are a pure function of (node order, id_seed)
            # and degrees of the edge array, so restore re-derives both
            # (see _static_tables) — this write sits on the campaign's
            # critical path and those two O(n) tables dominated it.
            # Contiguous 0..n-1 nodes (every shipped generator) compress
            # to a bare count.
            "nodes": _encode_nodes(list(network.initial_ids)),
            "edges": _encode_edges(network.graph.edges()),
            "params": _ensure_jsonable(dict(self.params), "engine params"),
            "checkpoint_every": self.checkpoint_every,
            "healer": _component_descriptor(network.healer),
            "adversary": _component_descriptor(self.adversary),
            "metrics": [
                _component_descriptor(m)
                for m in _checkpointed_metrics(self.metrics)
            ],
        }
        self.checkpointer.write_static(payload)

    def _dynamic_payload(self, rounds: int, deletions: int) -> dict:
        network = self.network
        start = self._start_degree
        # Nodes added mid-campaign, and every baseline a join raised.
        extra_ids = [
            [u, _encode_label(network.initial_ids[u])]
            for u in sorted(
                (v for v in network.initial_ids if v not in start),
                key=repr,
            )
        ]
        extra_degree = [
            [u, network.initial_degree[u]]
            for u in sorted(
                (
                    v
                    for v, d in network.initial_degree.items()
                    if start.get(v) != d
                ),
                key=repr,
            )
        ]
        payload = {
            "version": CHECKPOINT_VERSION,
            "kind": "full",
            "round": rounds,
            "deletions": deletions,
            "peak_delta": network.peak_delta,
            "graph": _encode_graph(network.graph),
            "healing_edges": _encode_edges(network.healing_graph.edges()),
            "deleted_nodes": list(network.deleted_nodes),
            "tracker": network.tracker.export_state(),
            # Component states are the extensible surface — third-party
            # healers/adversaries/metrics can hand back anything — so
            # they get the strict no-tuples/no-sets walk. The graph,
            # tracker, and event payloads come from our own codecs
            # (round-trip covered by the byte-identity suite) and are
            # O(n+m) per snapshot; validating them too is what pushed
            # checkpointing past the overhead budget.
            "healer": _ensure_jsonable(
                network.healer.export_state(), "healer state"
            ),
            "adversary": _ensure_jsonable(
                self.adversary.export_state(), "adversary state"
            ),
            "metrics": [
                _ensure_jsonable(m.export_state(), "metric state")
                for m in _checkpointed_metrics(self.metrics)
            ],
            "extra_initial_ids": extra_ids,
            "extra_initial_degree": extra_degree,
            "events": (
                [_encode_event(e) for e in network.events]
                if self.params.get("keep_events")
                else None
            ),
        }
        return payload

    def _init_payload(self) -> dict:
        """The round-0 checkpoint: component states only. The network
        side (graph, IDs, degrees, a fresh tracker, an empty healing
        graph) is reconstructed from the static payload, so encoding it
        again here would only repeat the O(n+m) static write."""
        return {
            "version": CHECKPOINT_VERSION,
            "kind": "init",
            "round": 0,
            "deletions": 0,
            "healer": _ensure_jsonable(
                self.network.healer.export_state(), "healer state"
            ),
            "adversary": _ensure_jsonable(
                self.adversary.export_state(), "adversary state"
            ),
            "metrics": [
                _ensure_jsonable(m.export_state(), "metric state")
                for m in _checkpointed_metrics(self.metrics)
            ],
        }

    def _checkpoint(self, rounds: int, deletions: int) -> None:
        assert self.checkpointer is not None
        if rounds == 0:
            payload = self._init_payload()
        else:
            payload = self._dynamic_payload(rounds, deletions)
        path, digest = self.checkpointer.write(rounds, payload)
        if self.ledger is not None:
            self.ledger.append(
                {
                    "type": "checkpoint",
                    "round": rounds,
                    "kind": payload["kind"],
                    "file": path.name,
                    "sha256": digest,
                }
            )

    # -- engine hooks ---------------------------------------------------
    def after_round(
        self,
        rounds: int,
        deletions: int,
        victims: Sequence[Node],
        events: Sequence[HealEvent],
    ) -> None:
        if self.ledger is not None or self._recorded:
            record = {
                "type": "round",
                "round": rounds,
                "victims": [_encode_victim(v) for v in victims],
                "deletions": deletions,
                "alive": self.network.num_alive,
                "heals": [event.fingerprint() for event in events],
            }
            self._check(record)
            if self.ledger is not None:
                # Flush-tier durability: round records are the audit
                # trail and the resume tripwire, not what resume
                # restores from, and a flush already survives any
                # process death. Saving the per-round fsync is what
                # keeps crash-safe campaigns inside the ≤5% overhead
                # budget.
                self.ledger.append(record, sync=False)
        if (
            self.checkpoint_every is not None
            and rounds % self.checkpoint_every == 0
        ):
            self._checkpoint(rounds, deletions)

    def _check(self, record: dict) -> None:
        """The one re-execution tripwire: a re-executed round must
        reproduce every field its recorded round holds (a record
        written before a field existed just lacks it)."""
        expected = self._recorded.pop(record["round"], None)
        if expected is None:
            return
        for key, value in expected.items():
            if record.get(key) != value:
                raise DivergenceError(
                    f"re-executed round {record['round']} diverged from "
                    f"its record: {key}={record.get(key)!r}, recorded "
                    f"{value!r}"
                )

    def finish(self, result: "SimulationResult", rounds: int) -> None:
        if self._recorded:
            raise DivergenceError(
                f"re-execution ended after round {rounds}, but round "
                f"{max(self._recorded)} is recorded"
            )
        if self.ledger is not None:
            self.ledger.append(
                {
                    "type": "end",
                    "rounds": rounds,
                    "deletions": result.deletions,
                    "final_alive": result.final_alive,
                    "peak_delta": result.peak_delta,
                    "values": _ensure_jsonable(
                        dict(result.values), "final metric values"
                    ),
                }
            )

    def close(self) -> None:
        """Close the ledger if this recorder opened it. The campaign
        loop calls it however the campaign ends, so a crashed campaign
        leaves no open handle behind."""
        if self._owns_ledger:
            self.ledger.close()


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
@dataclass
class RestoredCampaign:
    """Everything :func:`load_checkpoint` rebuilt, ready to continue."""

    network: SelfHealingNetwork
    adversary: object
    metrics: list
    params: dict
    rounds: int = 0
    deletions: int = 0
    #: the snapshot restored (``None`` for :func:`replay_campaign`)
    checkpoint_path: Path | None = None
    checkpointer: Checkpointer | None = None
    #: the recorded cadence (``static.json``'s ``checkpoint_every``)
    checkpoint_every: int | None = None
    #: the campaign-start initial-degree table, re-derived from
    #: ``static.json`` (a resuming recorder diffs snapshots against it)
    start_degree: dict = field(default_factory=dict)


def _restore_network(
    static: dict, dynamic: dict, healer: object
) -> tuple[SelfHealingNetwork, dict]:
    """Rebuild a mid-campaign :class:`SelfHealingNetwork` without running
    ``__init__`` (which would re-derive IDs and reset every counter).
    Also returns the campaign-start degree table it re-derived."""
    initial_ids, start_degree = _static_tables(static)
    initial_ids.update(
        (u, _decode_label(label))
        for u, label in dynamic["extra_initial_ids"]
    )
    initial_degree = dict(start_degree)
    initial_degree.update(
        (u, d) for u, d in dynamic["extra_initial_degree"]
    )

    nodes = _graph_nodes(dynamic["graph"])
    graph = _decode_graph(dynamic["graph"], nodes)
    healing_graph = _live_graph(nodes)
    for a, b in _iter_edge_pairs(dynamic["healing_edges"]):
        healing_graph.add_edge(a, b)

    network = SelfHealingNetwork.__new__(SelfHealingNetwork)
    network.graph = graph
    network.healer = healer
    network.check_invariants = static["params"]["check_invariants"]
    network.initial_n = static["initial_n"]
    network.id_seed = static["params"]["id_seed"]
    network.initial_degree = initial_degree
    missing = set(nodes) - initial_degree.keys()
    if missing:
        raise CheckpointError(
            f"corrupt checkpoint: live node {min(missing)!r} "
            "has no initial degree"
        )
    # Built by their first queries and the first survivors() call, like
    # a fresh network's.
    network._degree_index = network._delta_index = None
    network._survivors = None
    network.initial_ids = initial_ids
    # Churn-inserted nodes ride the dynamic snapshot as extra IDs; only
    # their count matters downstream (insertion step numbering /
    # result.insertions), and insertion order is not recoverable from
    # the sorted table — harmless, nothing orders by it.
    network.inserted_nodes = [u for u, _ in dynamic["extra_initial_ids"]]
    network.healing_graph = healing_graph
    network.tracker.import_state(dynamic["tracker"])
    network.deleted_nodes = list(dynamic["deleted_nodes"])
    network.events = (
        [_decode_event(e) for e in dynamic["events"]]
        if dynamic.get("events")
        else []
    )
    network.peak_delta = dynamic["peak_delta"]
    # Not in the snapshot: a restored ConnectivityMetric holds no mark,
    # so its first check runs the BFS whatever this counter reads.
    network.uncertified_heals = 0
    # NOTE: healer.reset() is deliberately NOT called — the healer's
    # mid-campaign state arrives via import_state in load_checkpoint.
    return network, start_degree


def _initial_network(static: dict, healer: object) -> SelfHealingNetwork:
    """The round-0 network, rebuilt from the static payload alone: the
    initial adjacency goes through :class:`SelfHealingNetwork` itself,
    which re-derives IDs and degrees from the recorded node order and
    ``id_seed``. Its ``__init__`` resets the healer, so the caller
    imports the healer's recorded state afterwards."""
    nodes = _static_node_seq(static)
    graph = Graph(nodes)
    for a, b in _iter_edge_pairs(static["edges"]):
        graph.add_edge(a, b)
    params = static["params"]
    return SelfHealingNetwork(
        graph,
        healer,
        seed=params["id_seed"],
        check_invariants=params["check_invariants"],
    )


def _read_checkpoint_file(
    path: Path, sha_map: Mapping[str, str] | None
) -> dict:
    """One checkpoint file: existence, recorded sha (when the ledger
    supplied one), parse, version, kind-appropriate shape."""
    if sha_map is not None:
        recorded = sha_map.get(path.name)
        if recorded is not None:
            try:
                actual = _sha256(path)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot read checkpoint {path}: {exc}"
                ) from exc
            if actual != recorded:
                raise CheckpointError(
                    f"checkpoint {path} fails its ledger sha256 "
                    "(torn by a crash mid-write)"
                )
    payload = _read_json(path)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version in {path}")
    kind = payload.get("kind", "full")
    if kind == "full":
        required = ("round", "graph", "tracker", "adversary", "healer")
    elif kind == "init":
        required = ("round", "healer", "adversary", "metrics")
    else:
        # Older versions wrote "delta" records between full snapshots;
        # resume falls back to the snapshot their chain started from.
        raise CheckpointError(
            f"checkpoint {path} has kind {kind!r}; only full and init "
            "snapshots restore"
        )
    for key in required:
        if key not in payload:
            raise CheckpointError(
                f"{kind} checkpoint {path} lacks {key!r}"
            )
    return payload


def _select_checkpoint(
    checkpointer: Checkpointer,
    candidates: Iterable[Path],
    sha_map: Mapping[str, str] | None,
) -> tuple[Path, dict]:
    """The first candidate, newest first, that reads intact."""
    last_error: CheckpointError | None = None
    for path in candidates:
        try:
            return path, _read_checkpoint_file(path, sha_map)
        except CheckpointError as exc:
            last_error = exc
    raise CheckpointError(
        f"no intact checkpoint in {checkpointer.directory}"
        + (f": {last_error}" if last_error is not None else "")
    )


def load_checkpoint(
    checkpoint_dir: str | Path,
    *,
    checkpoint: str | Path | None = None,
    healer: object | None = None,
    adversary: object | None = None,
    metrics: Sequence[object] | None = None,
) -> RestoredCampaign:
    """Rebuild a campaign from its checkpoint directory: the newest
    snapshot that reads intact, or the named ``checkpoint``.

    ``healer``/``adversary``/``metrics`` override provenance-based
    reconstruction — required for components that were built directly
    (no registry spec) from non-serializable arguments. Explicitly
    passed objects receive the checkpointed state via ``import_state``
    exactly like rebuilt ones.
    """
    checkpointer = Checkpointer(checkpoint_dir)
    if checkpoint is None:
        candidates = [p for _, p in reversed(checkpointer.list_checkpoints())]
    else:
        path = Path(checkpoint)
        if not path.is_absolute() and not path.exists():
            path = checkpointer.directory / path
        candidates = [path]
    return _restore(checkpointer, candidates, None, healer, adversary, metrics)


def _restore(
    checkpointer: Checkpointer,
    candidates: Iterable[Path],
    sha_map: Mapping[str, str] | None,
    healer: object | None,
    adversary: object | None,
    metrics: Sequence[object] | None,
) -> RestoredCampaign:
    """:func:`load_checkpoint` from the newest intact candidate. The one
    read of ``static.json`` per resume: the restored campaign carries
    on only the cadence and the campaign-start degree table."""
    static = checkpointer.read_static()
    path, snapshot = _select_checkpoint(checkpointer, candidates, sha_map)

    if healer is None:
        healer = _rebuild_from_provenance(static["healer"], "healer")

    if adversary is None:
        adversary = _rebuild_from_provenance(static["adversary"], "adversary")
    adversary.import_state(snapshot["adversary"])

    metric_states = snapshot["metrics"]
    descriptors = static["metrics"]
    if len(metric_states) != len(descriptors):
        raise CheckpointError(
            "corrupt checkpoint: metric state/descriptor count mismatch"
        )
    if metrics is not None:
        rebuilt = list(metrics)
        stateful = _checkpointed_metrics(rebuilt)
        if len(stateful) != len(metric_states):
            raise CheckpointError(
                f"expected {len(metric_states)} checkpointed metrics, "
                f"got {len(stateful)}"
            )
        for metric, state in zip(stateful, metric_states):
            metric.import_state(state)
    else:
        rebuilt = [
            _rebuild_metric(descriptor, state)
            for descriptor, state in zip(descriptors, metric_states)
        ]

    if snapshot.get("kind", "full") == "init":
        network = _initial_network(static, healer)
        start_degree = dict(network.initial_degree)
    else:
        network, start_degree = _restore_network(static, snapshot, healer)
    # Only now: building the round-0 network resets the healer.
    healer.import_state(snapshot["healer"])
    return RestoredCampaign(
        network=network,
        adversary=adversary,
        metrics=rebuilt,
        params=dict(static["params"]),
        rounds=snapshot["round"],
        deletions=snapshot["deletions"],
        checkpoint_path=path,
        checkpointer=checkpointer,
        checkpoint_every=static.get("checkpoint_every"),
        start_degree=start_degree,
    )


def resume_campaign(
    checkpoint_dir: str | Path,
    *,
    healer: object | None = None,
    adversary: object | None = None,
    metrics: Sequence[object] | None = None,
    ledger: CampaignLedger | str | Path | None = None,
    keep_checkpointing: bool = True,
) -> "SimulationResult":
    """Continue an interrupted campaign to completion.

    The continuation is byte-identical to the uninterrupted run: the
    returned result's final metrics — and, when the campaign ran with
    ``keep_events=True``, its full :class:`HealEvent` stream — match
    what :func:`~repro.sim.engine.run_campaign` would have produced
    without the crash. The rounds after the restored snapshot are
    re-executed with the live adversary and metrics. Only
    :func:`resume_from_ledger` checks them against recorded rounds;
    here ``ledger`` just receives new records, so re-execution runs
    without a tripwire.

    ``keep_checkpointing=False`` runs the tail straight through without
    writing further snapshots; otherwise the original cadence continues
    into the same directory.
    """
    restored = load_checkpoint(
        checkpoint_dir,
        healer=healer,
        adversary=adversary,
        metrics=metrics,
    )
    return _resume(restored, ledger, keep_checkpointing)


def _resume(
    restored: RestoredCampaign,
    ledger: CampaignLedger | str | Path | None,
    keep_checkpointing: bool,
    recorded_rounds: Iterable[dict] = (),
) -> "SimulationResult":
    """Run a restored campaign to completion (see :func:`resume_campaign`)
    through the campaign loop and the recorder's tripwire."""
    from repro.sim.engine import _drive_campaign

    params = restored.params
    return _drive_campaign(
        network=restored.network,
        adversary=restored.adversary,
        metrics=restored.metrics,
        batch_rounds=params["batch_rounds"],
        mixed_rounds=params.get("mixed_rounds", False),
        stop_alive=params["stop_alive"],
        max_rounds=params["max_rounds"],
        max_deletions=params["max_deletions"],
        rounds=restored.rounds,
        deletions=restored.deletions,
        keep_events=params["keep_events"],
        keep_network=params["keep_network"],
        recorder=CampaignRecorder.resume(
            restored,
            ledger=ledger,
            keep_checkpointing=keep_checkpointing,
            recorded_rounds=recorded_rounds,
        ),
    )


def replay_campaign(
    graph: Graph,
    healer: object,
    adversary: object,
    *,
    id_seed: int,
    recorded_rounds: Iterable[dict],
) -> "SimulationResult":
    """Re-execute a campaign from round 0 through the loop and tripwire
    resume uses, keeping its events and writing nothing: each round must
    reproduce its record in ``recorded_rounds`` (any subset of a round
    record's fields), or :class:`~repro.errors.DivergenceError` is
    raised in that round."""
    network = SelfHealingNetwork(graph, healer, seed=id_seed)
    adversary.reset(network)
    params = {
        "batch_rounds": getattr(adversary, "batch_rounds", False),
        "mixed_rounds": getattr(adversary, "mixed_rounds", False),
        "stop_alive": 0,
        "max_rounds": None,
        "max_deletions": None,
        "keep_events": True,
        "keep_network": False,
    }
    restored = RestoredCampaign(network, adversary, [], params)
    return _resume(restored, None, False, recorded_rounds)


def resume_from_ledger(
    ledger_path: str | Path,
    *,
    healer: object | None = None,
    adversary: object | None = None,
    metrics: Sequence[object] | None = None,
    keep_checkpointing: bool = True,
) -> "SimulationResult":
    """Find a crashed campaign's newest intact checkpoint via its ledger
    and resume it, appending further records to the same ledger.

    Checkpoint references whose file is missing, fails its recorded
    SHA-256, or no longer parses are skipped in favor of the
    next-newest; the ledger is the source of truth for *where* to
    resume, the hashes for *whether* a snapshot survived the crash
    intact. The rounds the ledger records after the restored snapshot
    are the tripwire: each re-executed round must reproduce every field
    of its record (victims, deletions, survivors and each heal's
    fingerprint), and the re-execution must reach the last recorded
    round, or resume raises :class:`~repro.errors.DivergenceError` (a
    :class:`~repro.errors.CheckpointError`).
    """
    records = read_ledger(ledger_path)
    header, tail = latest_campaign(records)
    if any(r.get("type") == "end" for r in tail):
        raise CheckpointError(
            f"campaign in {ledger_path} already completed — nothing to resume"
        )
    checkpoint_dir = header.get("checkpoint_dir")
    if not checkpoint_dir:
        raise CheckpointError(
            f"campaign in {ledger_path} ran without checkpointing"
        )
    directory = Path(checkpoint_dir)
    # Later records win, so a file rewritten after a resume verifies
    # against its newest recorded hash.
    sha_map = {
        r["file"]: r["sha256"]
        for r in tail
        if r.get("type") == "checkpoint" and r.get("sha256") is not None
    }
    candidates = [
        directory / r["file"]
        for r in reversed(tail)
        if r.get("type") == "checkpoint"
    ]
    checkpointer = Checkpointer(directory)
    restored = _restore(
        checkpointer, candidates, sha_map, healer, adversary, metrics
    )
    recorded = [
        r
        for r in tail
        if r.get("type") == "round" and r["round"] > restored.rounds
    ]
    return _resume(restored, ledger_path, keep_checkpointing, recorded)
