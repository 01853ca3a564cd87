"""The sorted-list random adversaries, preserved verbatim.

These are :class:`repro.adversary.classic.RandomAttack` and
:class:`repro.adversary.waves.RandomWaveAttack` exactly as they stood
while each kept its survivors in one sorted list, dropping dead victims
by bisect-and-pop (an O(n) ``list.pop`` per death; same pattern as
``tests/churn/_reference_churn.py``). They are the ground truth
``test_random_reference_differential.py`` replays the production
adversaries against: targets, waves, RNG state and survivors must match
after every round. One rule was added since: like ``RandomAttack``'s
redraw, the wave twin resamples from the live graph when a wave names a
node that died out of band, as the production adversary does; without
it the differential's swap step would compare that fix with the bug.

Do not "improve" this file otherwise; its value is that it does not
change.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import TYPE_CHECKING, ClassVar, Hashable

from repro.adversary.base import Adversary
from repro.adversary.waves import WaveAdversary
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = ["SortedListRandomAttack", "SortedListRandomWaveAttack"]

Node = Hashable


class SortedListRandomAttack(Adversary):
    """Delete a uniformly random surviving node (failure, not attack).

    Maintains its own sorted survivor list incrementally (the usual case
    is "the node we chose last round died"), so a full-kill campaign
    costs O(n) list maintenance per round instead of an O(n log n)
    re-sort — with draws identical to sorting from scratch each round.

    The list resyncs when the graph's node count changes or a drawn node
    turns out dead. Out-of-band churn that preserves the node count with
    every stale entry still alive (simultaneous add+remove behind the
    adversary's back) is not detected until one of those triggers fires;
    the supported contract is the simulator's reset → choose → delete
    loop, where the list is always exact.
    """

    name: ClassVar[str] = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng: random.Random = make_rng(seed)
        self._alive: list[Node] | None = None
        self._last: Node | None = None

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        self._alive = sorted(network.graph.nodes())
        self._last = None

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        g = network.graph
        alive = self._alive
        if alive is not None and self._last is not None and not g.has_node(
            self._last
        ):
            i = bisect_left(alive, self._last)
            if i < len(alive) and alive[i] == self._last:
                alive.pop(i)
        if alive is None or len(alive) != g.num_nodes:
            # Out-of-band deletions (batch heals, direct graph edits):
            # fall back to a fresh sort.
            alive = self._alive = sorted(g.nodes())
        if not alive:
            return None
        choice = self._rng.choice(alive)
        if not g.has_node(choice):
            # Count-preserving out-of-band churn (a node added while
            # another died) can leave the list stale without tripping the
            # length check; rebuild and redraw. Never taken in the plain
            # choose→delete loop, so normal draws stay byte-identical.
            alive = self._alive = sorted(g.nodes())
            if not alive:
                return None
            choice = self._rng.choice(alive)
        self._last = choice
        return choice

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)
        # Invalidated survivor list → next draw re-sorts from the live
        # graph, identical to the incrementally maintained one.
        self._alive = None
        self._last = None


class SortedListRandomWaveAttack(WaveAdversary):
    """Kill a uniformly random set of survivors each wave (mass failure).

    Like :class:`~repro.adversary.classic.RandomAttack`, the sorted
    survivor list is maintained incrementally: the previous wave's
    victims are bisected out in O(k log n) instead of re-sorting, with a
    full resync whenever the list length disagrees with the live node
    count (out-of-band churn). Draws are identical to sorting from
    scratch every wave.
    """

    name: ClassVar[str] = "random-wave"

    def __init__(
        self,
        schedule: object = None,
        *,
        size: int | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(schedule, size=size)
        self._seed = seed
        self._rng: random.Random = make_rng(seed)
        self._alive: list[Node] | None = None
        self._last_wave: list[Node] = []

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        self._alive = sorted(network.graph.nodes())
        self._last_wave = []

    def _pick(self, network: "SelfHealingNetwork", size: int) -> list[Node]:
        g = network.graph
        alive = self._alive
        if alive is not None:
            for v in self._last_wave:
                if not g.has_node(v):
                    i = bisect_left(alive, v)
                    if i < len(alive) and alive[i] == v:
                        alive.pop(i)
        if alive is None or len(alive) != g.num_nodes:
            alive = self._alive = sorted(g.nodes())
        self._last_wave = self._rng.sample(alive, size)
        if not all(g.has_node(v) for v in self._last_wave):
            alive = self._alive = sorted(g.nodes())
            self._last_wave = self._rng.sample(alive, size)
        return list(self._last_wave)

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)
        # Invalidated survivor list resyncs against the live graph on
        # the next wave — identical draws to the maintained list.
        self._alive = None
        self._last_wave = []
