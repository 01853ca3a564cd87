"""Campaign traces: record, persist, and replay attack/heal runs.

A trace pins a campaign bit-for-bit — initial graph, node-ID seed,
healer name, and the realized op schedule (insertions and deletions) —
plus each heal's :meth:`~repro.core.network.HealEvent.fingerprint`
``[action, plan_kind, num_edges, id_changes]``. Replay re-executes the
schedule from round 0 through resume's loop and tripwire
(:func:`~repro.recovery.checkpoint.replay_campaign`), so a divergent
replay fails in the round that diverges. A delete-only campaign is just
a trace without joins, so the same recorder serves every single-victim
or churn campaign. Three uses: reproduce a surprising stochastic run
portably, regression-test healers against golden traces, and compare
healers on the *identical* schedule (``replay_churn_trace(trace,
healer_name="forgiving-graph")`` vs the recorded DASH run).

The persisted schedule doubles as the input format of the
``trace-churn`` adversary: :func:`save_churn_schedule` writes the JSONL
file (one round per line, each line a JSON array of ops) that
``trace-churn:path=...`` replays inside ordinary experiment sweeps.

Recording note: a :class:`ChurnTraceRecorder` observes per-*event*
streams, so the recorded schedule is normalized to one op per round.
Healing is op-sequential either way — fingerprints and final topology
are unaffected; only the round counter reads higher on replay.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from repro.churn.adversaries import ScriptedChurn
from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.sim.metrics import Metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import HealEvent, SelfHealingNetwork

__all__ = [
    "ChurnTrace",
    "ChurnTraceRecorder",
    "save_churn_trace",
    "load_churn_trace",
    "save_churn_schedule",
    "replay_churn_trace",
]

_FORMAT = "repro-churn-trace-v1"


@dataclass
class ChurnTrace:
    """A recorded campaign (a delete-only one has no add ops)."""

    healer: str
    id_seed: int
    #: node labels in the original graph's iteration order (random IDs
    #: are assigned in iteration order; replay must reproduce it)
    nodes: list
    #: edge list of the initial graph (sorted, canonical orientation)
    edges: list[list]
    #: realized schedule, one op per round (JSON form:
    #: ``["delete", victim]`` / ``["add", node, [targets...]]``)
    schedule: list[list] = field(default_factory=list)
    #: per-event fingerprints (:meth:`HealEvent.fingerprint`)
    fingerprints: list[list] = field(default_factory=list)

    def initial_graph(self) -> Graph:
        g = Graph(self.nodes)
        for u, v in self.edges:
            g.add_edge(u, v)
        return g


class ChurnTraceRecorder(Metric):
    """Metric-shaped churn recorder; attach to ``run_campaign(metrics=…)``.

    Reconstructs each op from its :class:`HealEvent` (an insertion event
    carries the joiner and its announced targets; a deletion event the
    victim), so the same recorder works under any mixed-round adversary.
    """

    def __init__(self, graph: Graph, healer_name: str, id_seed: int) -> None:
        edges = sorted(
            (sorted([u, v], key=repr) for u, v in graph.edges()), key=repr
        )
        self.trace = ChurnTrace(
            healer=healer_name,
            id_seed=id_seed,
            nodes=list(graph.nodes()),
            edges=edges,
        )

    def on_event(
        self, network: "SelfHealingNetwork", event: "HealEvent"
    ) -> None:
        if event.action == "insert":
            op = ["add", event.deleted, list(event.participants)]
        else:
            op = ["delete", event.deleted]
        self.trace.schedule.append([op])
        self.trace.fingerprints.append(event.fingerprint())

    def finalize(self, network: "SelfHealingNetwork") -> dict[str, float]:
        return {"trace_rounds": float(len(self.trace.schedule))}


def save_churn_trace(trace: ChurnTrace, path: str | Path) -> Path:
    """Serialize a churn trace as JSON (labels must be JSON-compatible)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps({"format": _FORMAT, **asdict(trace)}, indent=1))
    return p


def load_churn_trace(path: str | Path) -> ChurnTrace:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _FORMAT:
        raise SimulationError(f"{path}: not a repro churn trace file")
    return ChurnTrace(**{f.name: payload[f.name] for f in fields(ChurnTrace)})


def save_churn_schedule(trace: ChurnTrace, path: str | Path) -> Path:
    """Write the trace's op schedule as the JSONL file the ``trace-churn``
    adversary consumes (one round per line)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(round_ops) for round_ops in trace.schedule]
    p.write_text("\n".join(lines) + ("\n" if lines else ""))
    return p


def replay_churn_trace(
    trace: ChurnTrace, *, healer_name: str | None = None, verify: bool = True
):
    """Re-execute a churn trace; returns the :class:`SimulationResult`.

    With ``verify=True`` (and the original healer) every round must
    reproduce its recorded fingerprints — action included; divergence
    raises :class:`~repro.errors.DivergenceError` (a
    :class:`~repro.errors.SimulationError`) in the round it happens,
    naming it. Passing a different ``healer_name`` replays the same
    churn schedule against another strategy (fingerprints are then not
    checked).
    """
    from repro.core.registry import make_healer
    from repro.recovery.checkpoint import replay_campaign

    target_healer = healer_name or trace.healer
    recorded: list[dict] = []
    if verify and target_healer == trace.healer:
        events = sum(len(ops) for ops in trace.schedule)
        if events != len(trace.fingerprints):
            raise SimulationError(
                f"trace schedules {events} events but holds "
                f"{len(trace.fingerprints)} fingerprints"
            )
        fingerprints = iter(trace.fingerprints)
        recorded = [
            {"round": r, "heals": list(islice(fingerprints, len(ops)))}
            for r, ops in enumerate(trace.schedule, 1)
        ]
    return replay_campaign(
        trace.initial_graph(),
        make_healer(target_healer),
        ScriptedChurn(trace.schedule),
        id_seed=trace.id_seed,
        recorded_rounds=recorded,
    )
