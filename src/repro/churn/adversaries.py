"""Churn adversaries: stochastic node lifetimes and recorded traces.

The paper's adversary only deletes; a *reconfigurable* network also has
nodes arriving (the setting Forgiving Tree / Forgiving Graph were built
for). Two strategies produce the engine's mixed rounds — ordered
``("add", node, targets)`` / ``("delete", victim)`` op sequences:

* :class:`ChurnAdversary` (``churn``) — a birth/death process. Joins
  arrive at a configurable expected ``rate`` per round; every node (the
  initial population included) draws a random lifetime — exponential or
  heavy-tailed Pareto, the two standard peer-session models — and is
  deleted when it expires. Fully deterministic given a seed, and
  checkpointable mid-campaign (the expiry schedule and RNG state travel
  in the snapshot).
* :class:`TraceChurnAdversary` (``trace-churn``) — replays a JSONL churn
  schedule verbatim: one line per round, each line a JSON array of ops
  (``["delete", victim]`` / ``["add", node, [targets...]]``). This is the
  replay half of :mod:`repro.churn.trace`'s record/replay pair and the
  vehicle for healer-swap comparisons (same churn, different healer).
  It is a :class:`ScriptedChurn` (an in-memory schedule) loaded from the
  file; every churn op, scripted or yielded, is decoded by
  :func:`decode_churn_ops`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING, ClassVar, Hashable, Iterable

from repro.adversary.base import Adversary
from repro.errors import ConfigurationError, SimulationError
from repro.graph.survivors import SurvivorSequence
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = [
    "ChurnAdversary",
    "ScriptedChurn",
    "TraceChurnAdversary",
    "decode_churn_ops",
    "load_churn_ops",
]

Node = Hashable

#: churn op shape: ("add", node, (targets...)) or ("delete", victim)
Op = tuple


class ChurnAdversary(Adversary):
    """Stochastic churn: Poisson-ish arrivals, random session lifetimes.

    Joiners get fresh int labels (one past the largest so far), so the
    graph must be labelled by ints; :meth:`reset` refuses any other.

    Parameters
    ----------
    rate:
        Expected joins per round. The integer part arrives every round;
        the fractional part is a Bernoulli coin. ``rate=0`` is legal
        (pure-death process: the initial population drains).
    lifetime:
        ``"exp"`` (memoryless sessions, mean ``mean``) or ``"pareto"``
        (heavy-tailed sessions, mean ``mean``, tail index ``shape > 1``
        — the empirical P2P-session shape).
    mean:
        Mean lifetime in rounds. Lifetimes are ceiled to whole rounds
        with a 1-round minimum, so a joiner is never deleted in the round
        it arrives (just-in-time liveness for its attach targets).
    attach:
        How many alive peers a joiner announces (fewer when the network
        is smaller; zero peers yields an isolated join).
    rounds:
        Churn-round budget, counted even when a round produces no ops
        (``None`` = unlimited; the engine's own termination conditions
        apply either way). Op-less rounds are skipped internally — the
        engine never sees an empty round.

    State. The survivors are kept in ``repr`` order of their labels, the
    order joiners draw their attach targets from, as a
    :class:`~repro.graph.survivors.SurvivorSequence`: a join or a
    death shifts one block of labels, not the whole population. The
    initial population draws its lifetimes in that order at
    :meth:`reset`, and its expiries stay in one flat list, sorted by
    round up to the round budget (stably, so each round keeps that
    order) and read through a cursor. Joiners' expiries go into a dict
    of round → list. A round deletes its due initial nodes first, then
    its due joiners in join order — the order of one round → list
    schedule filled at reset and then by each join, which is the
    ``expiry`` layout of :meth:`export_state`.
    """

    name: ClassVar[str] = "churn"
    mixed_rounds: ClassVar[bool] = True

    def __init__(
        self,
        rate: float = 1.0,
        lifetime: str = "exp",
        mean: float = 8.0,
        shape: float = 2.5,
        attach: int = 2,
        rounds: int | None = 32,
        seed: int | None = 0,
    ) -> None:
        if rate < 0:
            raise ConfigurationError(f"churn rate must be >= 0, got {rate}")
        if lifetime not in ("exp", "pareto"):
            raise ConfigurationError(
                f"churn lifetime must be 'exp' or 'pareto', got {lifetime!r}"
            )
        if mean <= 0:
            raise ConfigurationError(f"churn mean must be > 0, got {mean}")
        if lifetime == "pareto" and shape <= 1:
            raise ConfigurationError(
                f"pareto shape must be > 1 (finite mean), got {shape}"
            )
        if attach < 0:
            raise ConfigurationError(
                f"churn attach must be >= 0, got {attach}"
            )
        if rounds is not None and rounds < 0:
            raise ConfigurationError(
                f"churn rounds must be >= 0 or None, got {rounds}"
            )
        self.rate = rate
        self.lifetime = lifetime
        self.mean = mean
        self.shape = shape
        self.attach = attach
        self.rounds = rounds
        self._seed = seed
        self._rng = make_rng(seed)
        self._alive = SurvivorSequence([], key=repr)
        #: the initial population's expiries: labels and rounds, the
        #: first ``_due_sorted`` sorted by round and consumed from
        #: ``_due_pos`` (see reset)
        self._due_nodes: list[Node] = []
        self._due_rounds: list[int] = []
        self._due_sorted = 0
        self._due_pos = 0
        #: joiners' expiries (everyone's after import_state)
        self._expiry: dict[int, list[Node]] = {}
        self._round = 0
        self._next_label = 0

    def _draw_lifetimes(self, count: int) -> list[int]:
        """``count`` lifetimes in rounds, drawn in order from the RNG.

        Both distributions draw non-negative reals, so ``ceil(x) or 1``
        is ``max(1, ceil(x))``: the 1-round minimum."""
        ceil = math.ceil
        if self.lifetime == "exp":
            expovariate = self._rng.expovariate
            lambd = 1.0 / self.mean
            return [ceil(expovariate(lambd)) or 1 for _ in range(count)]
        # paretovariate(a) has mean a/(a−1); rescale to ``mean``.
        paretovariate = self._rng.paretovariate
        shape = self.shape
        scale = self.mean * (shape - 1.0) / shape
        return [ceil(scale * paretovariate(shape)) or 1 for _ in range(count)]

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        nodes = list(network.graph.nodes())
        self._round = 0
        self._next_label = max(nodes) + 1 if nodes else 0
        nodes.sort(key=repr)
        self._alive = SurvivorSequence(nodes, key=repr)
        due = self._draw_lifetimes(len(nodes))
        # choose_round reads the initial expiries in round order through
        # a cursor; a stable sort keeps each round's repr order. Those
        # past the round budget never come due, so they follow unsorted
        # (in repr order) for export_state alone.
        budget = math.inf if self.rounds is None else self.rounds
        order = sorted(
            (i for i, d in enumerate(due) if d <= budget),
            key=due.__getitem__,
        )
        self._due_sorted = len(order)
        order += [i for i, d in enumerate(due) if d > budget]
        self._due_nodes = [nodes[i] for i in order]
        self._due_rounds = [due[i] for i in order]
        self._due_pos = 0
        self._expiry = {}

    def choose_round(
        self, network: "SelfHealingNetwork"
    ) -> Sequence[Op] | None:
        alive = self._alive
        while True:
            if self.rounds is not None and self._round >= self.rounds:
                return None
            if (
                self.rate == 0
                and not self._expiry
                and self._due_pos == len(self._due_rounds)
            ):
                # Nothing left to delete and nothing will ever arrive:
                # an unlimited budget must still terminate.
                return None
            self._round += 1
            ops: list[Op] = []
            # Deaths first: attach targets are then sampled from the
            # round's true survivors, never a node dying this round.
            start = self._due_pos
            end = self._due_pos = bisect_right(
                self._due_rounds, self._round, start, self._due_sorted
            )
            victims = self._due_nodes[start:end]
            victims += self._expiry.pop(self._round, ())
            for victim in victims:
                ops.append(("delete", victim))
                alive.discard(victim)
            joins = int(self.rate)
            frac = self.rate - joins
            if frac > 0 and self._rng.random() < frac:
                joins += 1
            for _ in range(joins):
                node = self._next_label
                self._next_label += 1
                k = min(self.attach, len(alive))
                targets = tuple(self._rng.sample(alive, k)) if k else ()
                ops.append(("add", node, targets))
                alive.add(node)
                expires = self._round + self._draw_lifetimes(1)[0]
                self._expiry.setdefault(expires, []).append(node)
            if ops:
                return ops
            # Op-less round (no expiries, coin came up tails): spin on —
            # the budget was charged, the engine sees nothing.

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        state = super().export_state()
        state["round"] = self._round
        state["next_label"] = self._next_label
        state["alive"] = list(self._alive)
        # One round → victims schedule, each list in deletion order.
        expiry: dict[int, list[Node]] = {}
        pending = zip(
            self._due_rounds[self._due_pos :],
            self._due_nodes[self._due_pos :],
        )
        for r, node in pending:
            expiry.setdefault(r, []).append(node)
        for r, nodes in self._expiry.items():
            expiry.setdefault(r, []).extend(nodes)
        state["expiry"] = [[r, expiry[r]] for r in sorted(expiry)]
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self._round = state["round"]
        self._next_label = state["next_label"]
        self._alive = SurvivorSequence(
            sorted(state["alive"], key=repr), key=repr
        )
        self._due_nodes, self._due_rounds = [], []
        self._due_sorted = self._due_pos = 0
        self._expiry = {r: list(v) for r, v in state["expiry"]}
        rng_state_from_json(state["rng"], self._rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChurnAdversary(rate={self.rate}, lifetime={self.lifetime!r}, "
            f"mean={self.mean}, seed={self._seed})"
        )


def decode_churn_ops(
    ops: Iterable, *, strict_labels: bool = False
) -> list[Op]:
    """One round's churn ops in the engine's tuple form.

    Each op is ``("delete", victim)`` or ``("add", node, targets)``, as a
    tuple or a JSON list; an add's targets are a list or tuple too.
    ``strict_labels`` is the rule for scripts from outside the program
    (:class:`ScriptedChurn`, JSONL files): every node must be an int,
    the graph's label type (1.0 or ``True`` would alias node 1), so a
    script naming anything else fails at construction. Liveness is not
    checked here: a round may add a node and delete it later in the
    same round.

    Raises :class:`~repro.errors.SimulationError` naming the first bad op.
    """
    decoded: list[Op] = []
    for op in ops:
        size = len(op) if isinstance(op, (tuple, list)) else 0
        if size == 2 and op[0] == "delete":
            out = ("delete", op[1])
        elif (
            size == 3
            and op[0] == "add"
            and isinstance(op[2], (tuple, list))
        ):
            out = ("add", op[1], tuple(op[2]))
        else:
            raise SimulationError(
                f"malformed churn op {op!r} (want ('add', node, "
                "[targets]) or ('delete', victim))"
            )
        if strict_labels:
            for u in (out[1], *out[2]) if size == 3 else out[1:]:
                if type(u) is not int:
                    raise SimulationError(
                        f"churn op {op!r} names {u!r}; nodes must be ints"
                    )
        decoded.append(out)
    return decoded


def load_churn_ops(path: str | Path) -> list[list[Op]]:
    """Parse a JSONL churn schedule: one line per round, each line a JSON
    array of ``["delete", victim]`` / ``["add", node, [targets...]]`` ops,
    every node an int.

    Blank lines are skipped; anything else malformed raises
    :class:`ConfigurationError` naming the offending line (fail fast at
    construction, not mid-campaign).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read churn trace {str(path)!r}: {exc}"
        ) from exc
    rounds: list[list[Op]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(raw, list):
            raise ConfigurationError(
                f"{path}:{lineno}: expected a JSON array of ops"
            )
        try:
            rounds.append(decode_churn_ops(raw, strict_labels=True))
        except SimulationError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from exc
    return rounds


class ScriptedChurn(Adversary):
    """Replay an in-memory churn schedule (a list of op lists) verbatim,
    one round per :meth:`choose_round`.

    The churn analogue of :class:`~repro.adversary.scripted.ScriptedAttack`
    — the replay vehicle for :func:`~repro.churn.trace.replay_churn_trace`
    and a convenient way to hand-author mixed rounds in tests. Ops come
    in tuple or JSON-list form and are validated at construction, labels
    included (see :func:`decode_churn_ops`). The cursor is the only
    state, so a replay checkpoints and resumes exactly.
    """

    name: ClassVar[str] = "scripted-churn"
    mixed_rounds: ClassVar[bool] = True

    def __init__(self, rounds: Sequence[Sequence]) -> None:
        self._rounds = [
            decode_churn_ops(ops, strict_labels=True) for ops in rounds
        ]
        self._pos = 0

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._pos = 0

    def choose_round(self, network: "SelfHealingNetwork") -> Sequence | None:
        if self._pos >= len(self._rounds):
            return None
        chosen = self._rounds[self._pos]
        self._pos += 1
        return chosen

    def export_state(self) -> dict:
        state = super().export_state()
        state["pos"] = self._pos
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self._pos = state["pos"]


class TraceChurnAdversary(ScriptedChurn):
    """Replay a recorded churn schedule from a JSONL file, verbatim.

    The schedule is loaded (and validated) at construction by
    :func:`load_churn_ops`; replays are positionally checkpointable —
    the cursor is the only state. Pair with
    :func:`repro.churn.trace.save_churn_schedule` to record a stochastic
    run once and re-run it under a different healer.
    """

    name: ClassVar[str] = "trace-churn"

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        super().__init__(load_churn_ops(path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceChurnAdversary(path={self.path!r})"


# Self-registration: executed once, when this module first loads (the
# adversary package imports us at its bottom; see repro.adversary).
from repro.adversary import ADVERSARIES  # noqa: E402

ADVERSARIES.register(ChurnAdversary.name, ChurnAdversary)
ADVERSARIES.register(TraceChurnAdversary.name, TraceChurnAdversary)
