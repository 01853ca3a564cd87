"""The unified round-based campaign engine.

The paper's methodology is one loop — "delete according to the deletion
strategy; repair according to the self-healing strategy; measure the
statistics" — and footnote 1 generalizes a round from a single victim to
"the situation where any number of nodes are removed" at once. This
module is that loop, once, for every entry point in the package:

* an :class:`~repro.adversary.base.Adversary` yields *rounds* through
  one protocol, :meth:`~repro.adversary.base.Adversary.choose_round` — a
  sequence of victims deleted simultaneously (classic single-victim
  strategies yield singletons; :class:`~repro.adversary.waves.WaveAdversary`
  yields whole waves);
* :func:`run_campaign` drives attack →
  :meth:`~repro.core.network.SelfHealingNetwork.delete_batch_and_heal`
  (or :meth:`~repro.core.network.SelfHealingNetwork.delete_and_heal` for
  single-victim rounds) → metrics until a stop condition, and returns a
  :class:`SimulationResult`.

Round accounting: each wave is deduplicated once *before* deletion (in
first-appearance order), so ``result.deletions`` counts exactly the nodes
that were removed; ``result.values["waves"]`` counts rounds for batch
campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Hashable, Sequence

from repro.adversary.base import Adversary
from repro.core.base import Healer
from repro.core.network import HealEvent, SelfHealingNetwork
from repro.errors import ConfigurationError, SimulationError
from repro.graph.graph import Graph
from repro.sim.metrics import Metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.checkpoint import CampaignRecorder
    from repro.recovery.ledger import CampaignLedger

__all__ = ["SimulationResult", "run_campaign"]

Node = Hashable


@dataclass
class SimulationResult:
    """Outcome of one simulated attack campaign."""

    initial_n: int
    deletions: int
    final_alive: int
    #: max degree increase of any node at any time (Fig. 8's statistic)
    peak_delta: int
    #: merged outputs of every metric's ``finalize``
    values: dict[str, float] = field(default_factory=dict)
    #: per-round events (only when ``keep_events=True``)
    events: list[HealEvent] | None = None
    #: the final network (topology after the campaign)
    network: SelfHealingNetwork | None = None
    #: nodes inserted by churn rounds (0 for delete-only campaigns)
    insertions: int = 0

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def run_campaign(
    graph: Graph,
    healer: Healer,
    adversary: Adversary,
    *,
    id_seed: int = 0,
    metrics: Sequence[Metric] = (),
    stop_alive: int = 0,
    max_rounds: int | None = None,
    max_deletions: int | None = None,
    check_invariants: bool = False,
    keep_events: bool = False,
    keep_network: bool = False,
    batch_fast_path: bool = True,
    batch_rounds: bool | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    ledger: "CampaignLedger | str | Path | None" = None,
) -> SimulationResult:
    """Run one campaign: attack in rounds until exhaustion or a stop.

    Parameters
    ----------
    graph:
        Initial topology; **consumed** (mutated). Copy it first if needed.
    healer, adversary:
        The strategies under test. The adversary's
        :meth:`~repro.adversary.base.Adversary.choose_round` is called
        once per round.
    id_seed:
        Seed for the DASH node IDs (Algorithm 1, Init).
    metrics:
        Metric trackers; each observes every :class:`HealEvent` (batch
        rounds emit one per victim component) and their ``finalize``
        outputs merge into ``result.values`` (duplicate names raise).
    stop_alive:
        Stop once at most this many nodes survive (0 = delete everything,
        the paper's default).
    max_rounds:
        Hard cap on rounds/waves (None = unlimited).
    max_deletions:
        Hard cap on deleted *nodes*, checked between rounds (None =
        unlimited; a multi-victim round is never truncated mid-wave, so
        a wave campaign may overshoot by up to one wave).
    check_invariants:
        Forwarded to :class:`SelfHealingNetwork` (paranoid mode).
    keep_events / keep_network:
        Retain the per-round event list / the final network on the result
        (off by default to keep sweep memory flat).
    batch_fast_path:
        Forwarded to :class:`SelfHealingNetwork`; ``False`` forces the
        tracker's honest traversal path for every batch round (the
        reference side of the differential tests and benchmarks).
    batch_rounds:
        ``True`` routes rounds through ``delete_batch_and_heal`` (and
        reports ``values["waves"]``); ``False`` heals each round's
        victims with the single-victim machinery and requires singleton
        rounds. ``None`` (default) follows the adversary's declared
        :attr:`~repro.adversary.base.Adversary.batch_rounds` protocol
        flag — the right choice everywhere outside differential tests.
    checkpoint_every / checkpoint_dir:
        Write a checkpoint to ``checkpoint_dir`` every
        ``checkpoint_every`` rounds (plus one at round 0), from which
        :func:`repro.recovery.checkpoint.resume_campaign` continues a
        killed campaign byte-identically. Every
        :data:`~repro.recovery.checkpoint.FULL_SNAPSHOT_EVERY`-th
        cadence checkpoint (the 8th) is a full, fsync'd snapshot; the
        seven between are deltas — the victims since the previous
        checkpoint, replayed through the healer at restore. Requires
        every participating component to be checkpointable (validated
        up front).
    ledger:
        A :class:`~repro.recovery.ledger.CampaignLedger` (or a path to
        open one) receiving one append-only record per round — the
        audit trail resume-from-crash starts from. Round records are
        flushed, which survives a process kill, but not fsync'd; the
        campaign header, full-checkpoint references and end record
        are.
    """
    if stop_alive < 0:
        raise ConfigurationError(f"stop_alive must be >= 0, got {stop_alive}")
    if max_rounds is not None and max_rounds < 0:
        raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
    if max_deletions is not None and max_deletions < 0:
        raise ConfigurationError(
            f"max_deletions must be >= 0, got {max_deletions}"
        )

    network = SelfHealingNetwork(
        graph,
        healer,
        seed=id_seed,
        check_invariants=check_invariants,
        batch_fast_path=batch_fast_path,
    )
    adversary.reset(network)
    if batch_rounds is None:
        batch_rounds = getattr(adversary, "batch_rounds", False)
    mixed_rounds = getattr(adversary, "mixed_rounds", False)
    if mixed_rounds and batch_rounds:
        raise ConfigurationError(
            f"adversary {adversary.name!r} declares both mixed and batch "
            "rounds — churn rounds are executed sequentially, not as waves"
        )

    recorder = None
    if (
        checkpoint_every is not None
        or checkpoint_dir is not None
        or ledger is not None
    ):
        # Imported lazily: campaigns that never checkpoint must not pay
        # for (or depend on) the recovery subsystem.
        from repro.recovery.checkpoint import CampaignRecorder

        recorder = CampaignRecorder.begin(
            network=network,
            adversary=adversary,
            metrics=metrics,
            params={
                "id_seed": id_seed,
                "stop_alive": stop_alive,
                "max_rounds": max_rounds,
                "max_deletions": max_deletions,
                "check_invariants": check_invariants,
                "keep_events": keep_events,
                "keep_network": keep_network,
                "batch_fast_path": batch_fast_path,
                "batch_rounds": batch_rounds,
                "mixed_rounds": mixed_rounds,
            },
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            ledger=ledger,
        )

    if (
        recorder is None
        and not metrics
        and not keep_events
        and not keep_network
    ):
        # Scalar-only DASH campaigns on the array backend fuse the round
        # loop into one kernel (imported lazily — object-backend
        # campaigns never pay for it); see :mod:`repro.sim.fastpath`.
        from repro.sim import fastpath

        if fastpath.supports(
            network,
            adversary,
            metrics=metrics,
            batch_rounds=batch_rounds,
            keep_events=keep_events,
            keep_network=keep_network,
        ):
            return fastpath.run_fused(
                network,
                adversary,
                stop_alive=stop_alive,
                max_rounds=max_rounds,
                max_deletions=max_deletions,
            )

    return _drive_campaign(
        network=network,
        adversary=adversary,
        metrics=metrics,
        batch_rounds=batch_rounds,
        mixed_rounds=mixed_rounds,
        stop_alive=stop_alive,
        max_rounds=max_rounds,
        max_deletions=max_deletions,
        keep_events=keep_events,
        keep_network=keep_network,
        recorder=recorder,
    )


def _normalize_churn_ops(adversary: Adversary, chosen) -> list[tuple]:
    """Validate one mixed round's operation list.

    Each op is ``("add", node, targets)`` or ``("delete", victim)``, ops
    and targets as tuples or lists (trace-backed adversaries read JSON).
    Liveness is checked just-in-time by the executor, not here: a round
    may legally add a node and delete it later in the same round.
    """
    ops: list[tuple] = []
    for op in chosen:
        if not isinstance(op, (tuple, list)) or not op:
            raise SimulationError(
                f"adversary {adversary.name} yielded malformed churn "
                f"op {op!r}"
            )
        kind = op[0]
        if kind == "delete" and len(op) == 2:
            ops.append(("delete", op[1]))
        elif (
            kind == "add"
            and len(op) == 3
            and isinstance(op[2], (list, tuple))
        ):
            ops.append(("add", op[1], tuple(op[2])))
        else:
            raise SimulationError(
                f"adversary {adversary.name} yielded malformed churn "
                f"op {op!r} (want ('add', node, [targets]) or "
                "('delete', victim))"
            )
    return ops


def _drive_campaign(
    *,
    network: SelfHealingNetwork,
    adversary: Adversary,
    metrics: Sequence[Metric],
    batch_rounds: bool,
    mixed_rounds: bool = False,
    stop_alive: int,
    max_rounds: int | None,
    max_deletions: int | None,
    rounds: int = 0,
    deletions: int = 0,
    keep_events: bool,
    keep_network: bool,
    recorder: "CampaignRecorder | None" = None,
) -> SimulationResult:
    """The campaign loop proper, on an already-initialized network.

    :func:`run_campaign` enters here at round 0;
    :func:`repro.recovery.checkpoint.resume_campaign` enters with a
    network restored mid-campaign and the surviving round/deletion
    counters — byte-identical continuation falls out of sharing this one
    loop rather than approximating it.
    """
    while network.num_alive > stop_alive and network.num_alive > 0:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_deletions is not None and deletions >= max_deletions:
            break
        chosen = adversary.choose_round(network)
        if not chosen:
            break
        if mixed_rounds:
            # Churn round: execute the ops in order — insertions heal
            # through insert_and_heal, deletions through the classic
            # single-victim machinery. Only deletions consume the
            # max_deletions budget.
            ops = _normalize_churn_ops(adversary, chosen)
            events = []
            for op in ops:
                if op[0] == "add":
                    events.append(network.insert_and_heal(op[1], op[2]))
                else:
                    victim = op[1]
                    if not network.graph.has_node(victim):
                        raise SimulationError(
                            f"adversary {adversary.name} chose dead node "
                            f"{victim!r}"
                        )
                    events.append(network.delete_and_heal(victim))
                    deletions += 1
            rounds += 1
            for metric in metrics:
                for event in events:
                    metric.on_event(network, event)
            if recorder is not None:
                recorder.after_round(rounds, deletions, ops)
            continue
        # Dedupe once, in first-appearance order, before any deletion:
        # what reaches the network is exactly what gets counted.
        victims: list[Node] = []
        seen: set[Node] = set()
        for victim in chosen:
            if not network.graph.has_node(victim):
                raise SimulationError(
                    f"adversary {adversary.name} chose dead node {victim!r}"
                )
            if victim not in seen:
                seen.add(victim)
                victims.append(victim)
        if batch_rounds:
            events = network.delete_batch_and_heal(victims)
        else:
            if len(victims) != 1:
                raise SimulationError(
                    f"adversary {adversary.name} yielded a "
                    f"{len(victims)}-victim round but batch rounds are "
                    "disabled"
                )
            events = [network.delete_and_heal(victims[0])]
        rounds += 1
        deletions += len(victims)
        for metric in metrics:
            for event in events:
                metric.on_event(network, event)
        if recorder is not None:
            recorder.after_round(rounds, deletions, victims)

    values: dict[str, float] = {"waves": float(rounds)} if batch_rounds else {}
    if mixed_rounds:
        values["insertions"] = float(len(network.inserted_nodes))
    for metric in metrics:
        out = metric.finalize(network)
        overlap = values.keys() & out.keys()
        if overlap:
            raise ConfigurationError(
                f"duplicate metric names: {sorted(overlap)}"
            )
        values.update(out)

    result = SimulationResult(
        initial_n=network.initial_n,
        deletions=deletions,
        final_alive=network.num_alive,
        peak_delta=network.peak_delta,
        values=values,
        events=list(network.events) if keep_events else None,
        network=network if keep_network else None,
        insertions=len(network.inserted_nodes),
    )
    if recorder is not None:
        recorder.finish(result, rounds)
    return result
