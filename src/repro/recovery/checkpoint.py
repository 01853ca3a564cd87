"""Versioned campaign checkpoints and byte-identical resume.

A checkpoint directory holds one ``static.json`` (written once per
campaign: everything immutable — initial IDs and degrees, engine
parameters, how to rebuild the healer/adversary/metrics) plus a rolling
window of ``ckpt-r<round>.json`` full snapshots (graph adjacency,
healing edges, the union-find tracker verbatim, component RNG states,
accumulated metric state) and, between them, ``-delta`` records (see
:data:`FULL_SNAPSHOT_EVERY`). Dynamic files are written atomically
(temp file → ``os.replace``; full snapshots are fsync'd first), so a
process crash mid-write can at worst leave a stale temp file, never a
torn checkpoint; the previous window entries are kept as fallback
anyway.

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
* adversary survivor-list/neighbor caches are dropped on import — they
  are exact-resync optimizations whose rebuild from the live graph is
  byte-identical to the incrementally maintained state.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from itertools import chain
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence

from repro.core.components import NodeId, make_node_ids
from repro.core.network import HealEvent, SelfHealingNetwork
from repro.errors import CheckpointError, ConfigurationError
from repro.graph.array_backend import new_graph
from repro.graph.degree_index import DegreeIndex
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
    "FULL_SNAPSHOT_EVERY",
    "Checkpointer",
    "CampaignRecorder",
    "RestoredCampaign",
    "load_checkpoint",
    "resume_campaign",
    "resume_from_ledger",
]

Node = Hashable

CHECKPOINT_VERSION = 1
STATIC_FILENAME = "static.json"
_CKPT_PREFIX = "ckpt-r"
_CKPT_SUFFIX = ".json"
_DELTA_MARK = "-delta"

#: Every Nth cadence checkpoint is a full snapshot; the ones between are
#: delta records (victims since the previous checkpoint + the small
#: component states), replayed through the real healer at restore. Full
#: snapshots serialize O(n + m) state — graph adjacency, union-find,
#: counters — which at checkpoint_every=32 costs ~20x the campaign's own
#: per-window work; deltas are O(deletions per window). The replay a
#: resume may need is bounded by FULL_SNAPSHOT_EVERY checkpoint windows.
FULL_SNAPSHOT_EVERY = 8


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


def _write_json_atomic(
    path: Path, payload: dict, *, sync: bool = True
) -> bytes:
    """Atomic write: temp file in the same directory, ``os.replace``.
    Returns the serialized bytes so callers can hash them without
    re-reading the file.

    ``sync=True`` additionally fsyncs the file and its directory entry
    (machine-crash durable). ``sync=False`` stops at the atomic rename:
    the page cache survives any process death, and a machine crash can
    at worst tear this one file — which the ledger's sha256 detects,
    falling back to an older intact snapshot."""
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    with open(tmp, "wb") as fh:
        fh.write(data)
        if sync:
            fh.flush()
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if not sync:
        return data
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
    """Adjacency as a flat sorted edge array plus isolated survivors."""
    degrees = graph.degrees()
    try:
        isolated = sorted(u for u, d in degrees.items() if d == 0)
    except TypeError:
        isolated = sorted(
            (u for u, d in degrees.items() if d == 0), key=repr
        )
    return {"edges": _encode_edges(graph.edges()), "isolated": isolated}


def _decode_graph(
    payload: dict, nodes: Sequence[Node], backend: str = "object"
) -> Graph:
    graph = new_graph(nodes, backend=backend)
    for a, b in _iter_edge_pairs(payload["edges"]):
        graph.add_edge(a, b)
    return graph


def _graph_nodes(payload: dict) -> list[Node]:
    nodes = set(payload["isolated"])
    nodes.update(payload["edges"])
    return sorted(nodes, key=repr)


def _encode_victim(victim: Node) -> object:
    """Victims, batch super-nodes, and churn ops share one codec.

    A mixed (churn) round's ops arrive as ``("add", node, targets)`` /
    ``("delete", victim)`` tuples; delete ops flatten to the bare victim
    (indistinguishable from a classic round's victim — replay treats
    them identically) and add ops become ``{"add": [node, targets]}``.
    Checkpointable nodes are ints/strs, so the tags cannot collide with
    node values.
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

    Keeps the last ``keep`` dynamic snapshots: the newest is the normal
    resume point, the older ones are the fallback when a crash (or an
    injected fault — see :mod:`repro.recovery.faults`) corrupted the
    newest on disk.
    """

    def __init__(self, directory: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
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

    def checkpoint_path(
        self, round_index: int, *, delta: bool = False
    ) -> Path:
        mark = _DELTA_MARK if delta else ""
        return self.directory / (
            f"{_CKPT_PREFIX}{round_index:08d}{mark}{_CKPT_SUFFIX}"
        )

    def write(
        self,
        round_index: int,
        payload: dict,
        *,
        sync: bool = True,
        delta: bool = False,
    ) -> tuple[Path, str]:
        """Write one snapshot; returns its path and content sha256
        (hashed from the serialized bytes, no read-back).

        The recorder fsyncs full snapshots (``sync=True``) so a
        resumable anchor always survives even a machine crash, and
        flushes the rolling delta records (``sync=False``) — a torn
        one fails its ledger sha256 check at resume and selection falls
        back to an older intact checkpoint, at worst a durable full."""
        path = self.checkpoint_path(round_index, delta=delta)
        data = _write_json_atomic(path, payload, sync=sync)
        self._prune()
        return path, hashlib.sha256(data).hexdigest()

    def list_checkpoints(self) -> list[tuple[int, Path]]:
        """``(round, path)`` pairs, ascending by round (full snapshots
        and delta records both)."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob(f"{_CKPT_PREFIX}*{_CKPT_SUFFIX}"):
            stem = path.name[len(_CKPT_PREFIX):-len(_CKPT_SUFFIX)]
            if stem.endswith(_DELTA_MARK):
                stem = stem[: -len(_DELTA_MARK)]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue
        return sorted(found, key=lambda rp: (rp[0], rp[1].name))

    def _prune(self) -> None:
        """Drop checkpoints older than the ``keep``-th newest full
        snapshot. Deltas replay from the full snapshot that anchors
        their chain, so the retention unit is the chain: pruning by raw
        file count could delete a full that newer deltas still need."""
        checkpoints = self.list_checkpoints()
        fulls = [
            r for r, path in checkpoints
            if not path.name.endswith(_DELTA_MARK + _CKPT_SUFFIX)
        ]
        if len(fulls) <= self.keep:
            return
        horizon = sorted(fulls)[-self.keep]
        for r, path in checkpoints:
            if r < horizon:
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
    only hot-path surface (a ledger append per round, a checkpoint every
    ``checkpoint_every`` rounds).
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
        ledger: CampaignLedger | None,
        owns_ledger: bool,
    ) -> None:
        self.network = network
        self.adversary = adversary
        self.metrics = list(metrics)
        self.params = params
        self.checkpointer = checkpointer
        self.checkpoint_every = checkpoint_every
        self.ledger = ledger
        self._owns_ledger = owns_ledger
        #: the nodes known at campaign start (extras — nodes added
        #: mid-campaign through the graph API — ride each dynamic
        #: snapshot instead of the static file)
        self._static_nodes = frozenset(network.initial_ids)
        #: delta-chain bookkeeping: the filename new deltas replay from,
        #: how many deltas the current chain already holds, and the
        #: victims of every round since the last checkpoint (encoded
        #: eagerly — they become the next delta's replay script)
        self._chain_base: str | None = None
        self._chain_len = 0
        self._victim_rounds: list[list] = []

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
        ledger_obj, owns = cls._coerce_ledger(ledger)
        recorder = cls(
            network=network,
            adversary=adversary,
            metrics=metrics,
            params=params,
            checkpointer=checkpointer,
            checkpoint_every=every,
            ledger=ledger_obj,
            owns_ledger=owns,
        )
        # Header first: every later record (including the round-0
        # checkpoint reference) belongs to this campaign section.
        if ledger_obj is not None:
            ledger_obj.append(
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
        return recorder

    @classmethod
    def resume(
        cls,
        *,
        network: SelfHealingNetwork,
        adversary: object,
        metrics: Sequence[object],
        params: dict,
        checkpointer: Checkpointer | None,
        checkpoint_every: int | None,
        ledger: CampaignLedger | str | Path | None,
        resumed_round: int,
        checkpoint_file: str,
        chain_len: int = 0,
    ) -> "CampaignRecorder":
        """A recorder continuing an interrupted campaign: same cadence,
        same directory, a ``resumed`` marker in the ledger. New deltas
        chain onto the checkpoint that was resumed from."""
        ledger_obj, owns = cls._coerce_ledger(ledger)
        recorder = cls(
            network=network,
            adversary=adversary,
            metrics=metrics,
            params=params,
            checkpointer=checkpointer,
            checkpoint_every=checkpoint_every,
            ledger=ledger_obj,
            owns_ledger=owns,
        )
        if checkpointer is not None:
            recorder._chain_base = checkpoint_file
            recorder._chain_len = chain_len
            # The restored network's initial_ids already contain any
            # churn-inserted nodes; __init__'s live-snapshot default
            # would fold them into the static set and the next full
            # snapshot would silently drop their IDs/degrees. The static
            # payload records the true campaign-start node set.
            recorder._static_nodes = frozenset(
                _static_node_seq(checkpointer.read_static())
            )
        if ledger_obj is not None:
            ledger_obj.append(
                {
                    "type": "resumed",
                    "round": resumed_round,
                    "file": checkpoint_file,
                }
            )
        return recorder

    @staticmethod
    def _coerce_ledger(
        ledger: CampaignLedger | str | Path | None,
    ) -> tuple[CampaignLedger | None, bool]:
        if ledger is None or isinstance(ledger, CampaignLedger):
            return ledger, False
        return CampaignLedger(ledger), True

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
            # Graph backend, so restore rebuilds the same substrate
            # (array campaigns must resume on array — byte-identical
            # either way, but perf and fused-kernel eligibility differ).
            # Old checkpoints lack the key and default to "object".
            "backend": getattr(network.graph, "backend", "object"),
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
        extra_ids = [
            [u, _encode_label(network.initial_ids[u])]
            for u in sorted(
                (
                    v
                    for v in network.initial_ids
                    if v not in self._static_nodes
                ),
                key=repr,
            )
        ]
        extra_degree = [
            [u, network.initial_degree[u]]
            for u in sorted(
                (
                    v
                    for v in network.initial_degree
                    if v not in self._static_nodes
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
        graph) is reconstructed from the static payload — encoding it
        again here is exactly the O(n+m) cost delta checkpointing
        exists to avoid."""
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

    def _delta_payload(self, rounds: int, deletions: int) -> dict:
        network = self.network
        return {
            "version": CHECKPOINT_VERSION,
            "kind": "delta",
            "round": rounds,
            "deletions": deletions,
            "base": self._chain_base,
            "chain_len": self._chain_len + 1,
            "victim_rounds": list(self._victim_rounds),
            "adversary": _ensure_jsonable(
                self.adversary.export_state(), "adversary state"
            ),
            "metrics": [
                _ensure_jsonable(m.export_state(), "metric state")
                for m in _checkpointed_metrics(self.metrics)
            ],
            # Replay-divergence tripwires: restore re-executes the
            # victim rounds through the real healer and must land on
            # exactly this state.
            "alive": network.num_alive,
            "peak_delta": network.peak_delta,
        }

    def _checkpoint(self, rounds: int, deletions: int) -> None:
        assert self.checkpointer is not None
        delta = (
            rounds > 0
            and self._chain_base is not None
            and self._chain_len < FULL_SNAPSHOT_EVERY - 1
        )
        if rounds == 0:
            payload = self._init_payload()
        elif delta:
            payload = self._delta_payload(rounds, deletions)
        else:
            payload = self._dynamic_payload(rounds, deletions)
        path, digest = self.checkpointer.write(
            rounds, payload, sync=not delta, delta=delta
        )
        self._chain_base = path.name
        self._chain_len = self._chain_len + 1 if delta else 0
        self._victim_rounds.clear()
        if self.ledger is not None:
            # Delta records ride the flush tier with their files: after
            # a machine crash a flushed-only delta may be torn anyway
            # (the sha check catches it and resume falls back), so an
            # fsync on its ledger record buys nothing. Init/full records
            # are the durable resume anchors and stay synced.
            self.ledger.append(
                {
                    "type": "checkpoint",
                    "round": rounds,
                    "kind": payload["kind"],
                    "file": path.name,
                    "sha256": digest,
                },
                sync=not delta,
            )

    # -- engine hooks ---------------------------------------------------
    def after_round(
        self,
        rounds: int,
        deletions: int,
        victims: Sequence[Node],
    ) -> None:
        encoded = [_encode_victim(v) for v in victims]
        if self.checkpointer is not None:
            self._victim_rounds.append(encoded)
        if self.ledger is not None:
            # Flush-tier durability: round records are the audit trail,
            # not the resume chain — resume replays everything after the
            # last checkpoint anyway, and a flush already survives any
            # process death. Saving the per-round fsync is what keeps
            # crash-safe campaigns inside the ≤5% overhead budget.
            self.ledger.append(
                {
                    "type": "round",
                    "round": rounds,
                    "victims": encoded,
                    "deletions": deletions,
                    "alive": self.network.num_alive,
                },
                sync=False,
            )
        if (
            self.checkpoint_every is not None
            and rounds % self.checkpoint_every == 0
        ):
            self._checkpoint(rounds, deletions)

    def finish(self, result: "SimulationResult", rounds: int) -> None:
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
    rounds: int
    deletions: int
    checkpoint_path: Path
    checkpointer: Checkpointer
    #: number of deltas in the chain the restored checkpoint sits on
    #: (0 = a full snapshot); a resuming recorder continues the chain
    chain_len: int = 0


def _restore_network(
    static: dict, dynamic: dict, healer: object
) -> SelfHealingNetwork:
    """Rebuild a mid-campaign :class:`SelfHealingNetwork` without running
    ``__init__`` (which would re-derive IDs and reset every counter)."""
    initial_ids, initial_degree = _static_tables(static)
    initial_ids.update(
        (u, _decode_label(label))
        for u, label in dynamic["extra_initial_ids"]
    )
    initial_degree.update(
        (u, d) for u, d in dynamic["extra_initial_degree"]
    )

    backend = static.get("backend", "object")
    nodes = _graph_nodes(dynamic["graph"])
    graph = _decode_graph(dynamic["graph"], nodes, backend)
    healing_graph = new_graph(nodes, backend=backend)
    for a, b in _iter_edge_pairs(dynamic["healing_edges"]):
        healing_graph.add_edge(a, b)

    network = SelfHealingNetwork.__new__(SelfHealingNetwork)
    network.graph = graph
    network.healer = healer
    network.check_invariants = static["params"]["check_invariants"]
    network.batch_fast_path = static["params"]["batch_fast_path"]
    network.initial_n = static["initial_n"]
    network.id_seed = static["params"]["id_seed"]
    network.initial_degree = initial_degree
    network._delta_index = DegreeIndex(network._delta_of)
    for u in graph.nodes():
        base = initial_degree.get(u)
        if base is None:
            raise CheckpointError(
                f"corrupt checkpoint: live node {u!r} has no initial degree"
            )
        network._delta_index.push(u, graph.degree(u) - base)
    graph.degree_listener = network._on_degree_change
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
    # NOTE: healer.reset() is deliberately NOT called — the healer's
    # mid-campaign state arrives via import_state in load_checkpoint.
    return network


def _initial_network(static: dict, healer: object) -> SelfHealingNetwork:
    """The round-0 network, rebuilt from the static payload alone: the
    initial adjacency goes through :class:`SelfHealingNetwork` itself,
    which re-derives IDs and degrees from the recorded node order and
    ``id_seed``. Its ``__init__`` resets the healer, so the caller
    imports the healer's recorded state afterwards."""
    nodes = _static_node_seq(static)
    graph = new_graph(nodes, backend=static.get("backend", "object"))
    for a, b in _iter_edge_pairs(static["edges"]):
        graph.add_edge(a, b)
    params = static["params"]
    return SelfHealingNetwork(
        graph,
        healer,
        seed=params["id_seed"],
        check_invariants=params["check_invariants"],
        batch_fast_path=params["batch_fast_path"],
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
        required = ("round", "base", "victim_rounds", "adversary", "alive")
    for key in required:
        if key not in payload:
            raise CheckpointError(
                f"{kind} checkpoint {path} lacks {key!r}"
            )
    return payload


def _load_chain(
    checkpointer: Checkpointer,
    path: Path,
    sha_map: Mapping[str, str] | None = None,
) -> list[tuple[Path, dict]]:
    """Resolve a checkpoint into its replay chain, full snapshot first.

    A full (or round-0 init) snapshot is a chain of one. A delta names
    its ``base`` — another delta or ultimately a full/init anchor — and
    restoring it means restoring the anchor and replaying every delta's
    victim rounds in order. Any broken link (missing file, sha
    mismatch, parse error, cycle, non-monotonic rounds) fails the WHOLE
    chain: the caller falls back to an older candidate."""
    chain: list[tuple[Path, dict]] = []
    seen: set[str] = set()
    while True:
        payload = _read_checkpoint_file(path, sha_map)
        chain.append((path, payload))
        if payload.get("kind", "full") != "delta":
            break
        base = payload["base"]
        if not isinstance(base, str) or base in seen or len(seen) > 10_000:
            raise CheckpointError(
                f"checkpoint {path} has a corrupt delta chain "
                f"(base={base!r})"
            )
        seen.add(base)
        path = checkpointer.directory / base
    chain.reverse()
    rounds = [p["round"] for _, p in chain]
    if rounds != sorted(rounds) or len(set(rounds)) != len(rounds):
        raise CheckpointError(
            f"delta chain of {chain[-1][0]} has non-monotonic rounds "
            f"{rounds}"
        )
    return chain


def _select_checkpoint(
    checkpointer: Checkpointer,
    checkpoint: str | Path | None,
    sha_map: Mapping[str, str] | None = None,
) -> list[tuple[Path, dict]]:
    """The newest restorable chain (or the explicit target's chain)."""
    if checkpoint is not None:
        path = Path(checkpoint)
        if not path.is_absolute() and not path.exists():
            path = checkpointer.directory / path
        return _load_chain(checkpointer, path, sha_map)
    candidates = checkpointer.list_checkpoints()
    if not candidates:
        raise CheckpointError(
            f"no checkpoints found in {checkpointer.directory}"
        )
    last_error: CheckpointError | None = None
    for _, path in reversed(candidates):
        try:
            return _load_chain(checkpointer, path, sha_map)
        except CheckpointError as exc:
            last_error = exc
    raise CheckpointError(
        f"no loadable checkpoint in {checkpointer.directory}: {last_error}"
    )


def load_checkpoint(
    checkpoint_dir: str | Path,
    *,
    checkpoint: str | Path | None = None,
    healer: object | None = None,
    adversary: object | None = None,
    metrics: Sequence[object] | None = None,
    sha_map: Mapping[str, str] | None = None,
) -> RestoredCampaign:
    """Rebuild a campaign from its checkpoint directory.

    ``healer``/``adversary``/``metrics`` override provenance-based
    reconstruction — required for components that were built directly
    (no registry spec) from non-serializable arguments. Explicitly
    passed objects receive the checkpointed state via ``import_state``
    exactly like rebuilt ones.

    When the selected checkpoint is a delta record, the full snapshot
    anchoring its chain is restored first and every delta's victim
    rounds are replayed through the real healer — determinism makes the
    replay land on exactly the recorded state (verified against the
    delta's ``alive``/``peak_delta`` tripwires).
    """
    checkpointer = Checkpointer(checkpoint_dir)
    static = checkpointer.read_static()
    chain = _select_checkpoint(checkpointer, checkpoint, sha_map)
    path, target = chain[-1]
    base = chain[0][1]

    # The healer is restored at the chain's full snapshot and evolved by
    # replay; adversary and metric states were recorded at the target
    # (replay bypasses the adversary, so its RNG does not advance).
    if healer is None:
        healer = _rebuild_from_provenance(static["healer"], "healer")

    if adversary is None:
        adversary = _rebuild_from_provenance(static["adversary"], "adversary")
    adversary.import_state(target["adversary"])

    metric_states = target["metrics"]
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

    if base.get("kind", "full") == "init":
        network = _initial_network(static, healer)
    else:
        network = _restore_network(static, base, healer)
    # Only now: building the round-0 network resets the healer.
    healer.import_state(base["healer"])
    _replay_deltas(network, static, chain[1:])
    return RestoredCampaign(
        network=network,
        adversary=adversary,
        metrics=rebuilt,
        params=dict(static["params"]),
        rounds=target["round"],
        deletions=target["deletions"],
        checkpoint_path=path,
        checkpointer=checkpointer,
        chain_len=target.get("chain_len", 0),
    )


def _replay_deltas(
    network: SelfHealingNetwork,
    static: dict,
    deltas: Sequence[tuple[Path, dict]],
) -> None:
    """Re-execute the recorded victim rounds on a network restored at
    the chain's full snapshot. The healer makes its decisions for real —
    its state, the tracker, the graph, and the event stream all evolve
    exactly as in the original run; only the adversary is bypassed
    (its draws are the recorded victims). Metrics do NOT observe
    replayed rounds: their state is imported from the target delta,
    which keeps fault-injecting exempt metrics from re-firing on
    history."""
    batch_rounds = static["params"]["batch_rounds"]
    mixed_rounds = static["params"].get("mixed_rounds", False)
    for delta_path, delta in deltas:
        for round_victims in delta["victim_rounds"]:
            victims = [_decode_victim(v) for v in round_victims]
            if mixed_rounds:
                # A churn round's ops, in execution order: tagged add
                # tuples insert (the joiner's ID re-derives from the
                # network's id_seed, identically to the original run),
                # bare nodes delete.
                for v in victims:
                    if isinstance(v, tuple) and v and v[0] == "add":
                        network.insert_and_heal(v[1], v[2])
                    else:
                        network.delete_and_heal(v)
            elif batch_rounds:
                network.delete_batch_and_heal(victims)
            else:
                if len(victims) != 1:
                    raise CheckpointError(
                        f"delta {delta_path} records a "
                        f"{len(victims)}-victim round but batch rounds "
                        "are disabled"
                    )
                network.delete_and_heal(victims[0])
        if (
            network.num_alive != delta["alive"]
            or network.peak_delta
            != delta.get("peak_delta", network.peak_delta)
        ):
            raise CheckpointError(
                f"delta replay diverged at {delta_path}: got "
                f"alive={network.num_alive} peak_delta="
                f"{network.peak_delta}, recorded alive={delta['alive']} "
                f"peak_delta={delta.get('peak_delta')!r}"
            )


def resume_campaign(
    checkpoint_dir: str | Path,
    *,
    checkpoint: str | Path | None = None,
    healer: object | None = None,
    adversary: object | None = None,
    metrics: Sequence[object] | None = None,
    ledger: CampaignLedger | str | Path | None = None,
    checkpoint_every: int | None = None,
    keep_checkpointing: bool = True,
    sha_map: Mapping[str, str] | None = None,
) -> "SimulationResult":
    """Continue an interrupted campaign to completion.

    The continuation is byte-identical to the uninterrupted run: the
    returned result's final metrics — and, when the campaign ran with
    ``keep_events=True``, its full :class:`HealEvent` stream — match
    what :func:`~repro.sim.engine.run_campaign` would have produced
    without the crash.

    ``keep_checkpointing=False`` runs the tail straight through without
    writing further snapshots; otherwise the original cadence (or an
    explicit ``checkpoint_every``) continues into the same directory.
    """
    from repro.sim.engine import _drive_campaign

    restored = load_checkpoint(
        checkpoint_dir,
        checkpoint=checkpoint,
        healer=healer,
        adversary=adversary,
        metrics=metrics,
        sha_map=sha_map,
    )
    params = restored.params
    every = checkpoint_every
    if every is None and keep_checkpointing:
        every = restored.checkpointer.read_static().get("checkpoint_every")
    recorder = None
    if keep_checkpointing or ledger is not None:
        recorder = CampaignRecorder.resume(
            network=restored.network,
            adversary=restored.adversary,
            metrics=restored.metrics,
            params=params,
            checkpointer=(
                restored.checkpointer if keep_checkpointing else None
            ),
            checkpoint_every=every if keep_checkpointing else None,
            ledger=ledger,
            resumed_round=restored.rounds,
            checkpoint_file=restored.checkpoint_path.name,
            chain_len=restored.chain_len,
        )
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
        recorder=recorder,
    )


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
    SHA-256, or no longer parses — or whose delta chain has any broken
    link back to its full snapshot — are skipped in favor of the
    next-newest; the ledger is the source of truth for *where* to
    resume, the hashes for *whether* a snapshot survived the crash
    intact.
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
    checkpointer = Checkpointer(directory)
    # Later records win, so a file rewritten after a resume verifies
    # against its newest recorded hash.
    sha_map = {
        r["file"]: r["sha256"]
        for r in tail
        if r.get("type") == "checkpoint" and r.get("sha256") is not None
    }
    chosen: Path | None = None
    for record in reversed(tail):
        if record.get("type") != "checkpoint":
            continue
        candidate = directory / record["file"]
        try:
            _load_chain(checkpointer, candidate, sha_map)
        except CheckpointError:
            continue
        chosen = candidate
        break
    if chosen is None:
        raise CheckpointError(
            f"ledger {ledger_path} references no intact checkpoint in "
            f"{directory}"
        )
    return resume_campaign(
        directory,
        checkpoint=chosen,
        healer=healer,
        adversary=adversary,
        metrics=metrics,
        ledger=CampaignLedger(ledger_path),
        keep_checkpointing=keep_checkpointing,
        sha_map=sha_map,
    )
