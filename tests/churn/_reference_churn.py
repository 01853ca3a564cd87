"""The sorted-list churn adversary, preserved verbatim.

This is :class:`repro.churn.adversaries.ChurnAdversary` exactly as it
stood while it kept its survivors in one list sorted by ``repr`` (an
O(n) ``insort``/``del`` per op) and its expiry schedule in one dict of
lists (same pattern as ``tests/adversary/_scan_adversaries.py``). It is
the ground truth ``test_churn_reference_differential.py`` replays the
production adversary against: op streams, RNG state and
``export_state`` must match after every round.

Do not "improve" this file; its whole value is that it does not change.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, ClassVar, Hashable, Sequence

from repro.adversary.base import Adversary
from repro.errors import ConfigurationError
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = ["SortedListChurnAdversary"]

Node = Hashable

#: churn op shape: ("add", node, (targets...)) or ("delete", victim)
Op = tuple


class SortedListChurnAdversary(Adversary):
    """Stochastic churn: Poisson-ish arrivals, random session lifetimes.

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
        self._alive: list[Node] = []
        self._expiry: dict[int, list[Node]] = {}
        self._round = 0
        self._next_label = 0

    def _draw_lifetime(self) -> int:
        if self.lifetime == "exp":
            raw = self._rng.expovariate(1.0 / self.mean)
        else:
            # paretovariate(a) has mean a/(a−1); rescale to ``mean``.
            raw = (
                self.mean
                * (self.shape - 1.0)
                / self.shape
                * self._rng.paretovariate(self.shape)
            )
        return max(1, math.ceil(raw))

    def _schedule(self, node: Node, expires: int) -> None:
        self._expiry.setdefault(expires, []).append(node)

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        # Sorted-by-repr keeps the alive list deterministic and lets
        # fresh integer labels coexist with string node names.
        self._alive = sorted(network.graph.nodes(), key=repr)
        self._expiry = {}
        self._round = 0
        ints = [u for u in self._alive if type(u) is int]
        self._next_label = max(ints) + 1 if ints else 0
        for u in self._alive:
            self._schedule(u, self._draw_lifetime())

    def _remove_alive(self, node: Node) -> None:
        i = bisect_left(self._alive, repr(node), key=repr)
        if i < len(self._alive) and self._alive[i] == node:
            del self._alive[i]

    def choose_round(
        self, network: "SelfHealingNetwork"
    ) -> Sequence[Op] | None:
        while True:
            if self.rounds is not None and self._round >= self.rounds:
                return None
            if not self._expiry and self.rate == 0:
                # Nothing left to delete and nothing will ever arrive:
                # an unlimited budget must still terminate.
                return None
            self._round += 1
            ops: list[Op] = []
            # Deaths first: attach targets are then sampled from the
            # round's true survivors, never a node dying this round.
            for victim in self._expiry.pop(self._round, []):
                ops.append(("delete", victim))
                self._remove_alive(victim)
            joins = int(self.rate)
            frac = self.rate - joins
            if frac > 0 and self._rng.random() < frac:
                joins += 1
            for _ in range(joins):
                node = self._next_label
                self._next_label += 1
                k = min(self.attach, len(self._alive))
                targets = (
                    tuple(self._rng.sample(self._alive, k)) if k else ()
                )
                ops.append(("add", node, targets))
                insort(self._alive, node, key=repr)
                self._schedule(node, self._round + self._draw_lifetime())
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
        state["expiry"] = [
            [r, list(self._expiry[r])] for r in sorted(self._expiry)
        ]
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        self._round = state["round"]
        self._next_label = state["next_label"]
        self._alive = sorted(state["alive"], key=repr)
        self._expiry = {r: list(v) for r, v in state["expiry"]}
        rng_state_from_json(state["rng"], self._rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChurnAdversary(rate={self.rate}, lifetime={self.lifetime!r}, "
            f"mean={self.mean}, seed={self._seed})"
        )
