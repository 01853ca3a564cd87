"""The paper's experimental attack strategies, plus useful extras.

Section 4.2 defines two strategies:

* **MaxNode** — delete the current maximum-degree node ("it would seem
  that a strategy that leads to additional burden on an already high
  burden node would be a good strategy"). The paper found this the most
  effective strategy against *stretch* (Section 4.6.3).
* **NeighborOfMax (NMS)** — delete a uniformly random neighbor of the
  current maximum-degree node: hubs are well protected in real networks,
  their neighbors are soft targets, and each such deletion funnels degree
  onto the hub. The paper found this "consistently resulted in higher
  degree increase", so Figure 8/9 use it.

Extras used by the wider test/benchmark matrix: uniformly random
deletion, minimum-degree (leaf) deletion, and a δ-seeking attack that
targets the neighborhood of the node with the largest degree increase.

Determinism: ties on degree are broken by node label, and the stochastic
strategies take explicit seeds.

Performance: the targeted strategies used to scan every surviving node
per round — an O(n²) attack side that dominated full-kill campaigns once
the healing core went O(α) — and now issue O(1)-ish queries against the
network's degree-bucket index
(:meth:`~repro.core.network.SelfHealingNetwork.max_degree_node`,
:meth:`~repro.core.network.SelfHealingNetwork.min_degree_node`) and its
δ-bucket index (:meth:`~repro.core.network.SelfHealingNetwork.max_delta_node`).
Both indexes break ties by smallest label, exactly the old scans'
``(key, label)`` ordering, so target sequences are byte-identical to the
scanning versions (differential-tested against the implementations
preserved in ``tests/adversary/_scan_adversaries.py``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import TYPE_CHECKING, ClassVar, Hashable

from repro.adversary.base import Adversary
from repro.utils.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.network import SelfHealingNetwork

__all__ = [
    "MaxNodeAttack",
    "NeighborOfMaxAttack",
    "RandomAttack",
    "MinDegreeAttack",
    "MaxDeltaNeighborAttack",
]

Node = Hashable


class _SortedNeighborCache:
    """Incrementally maintained ``sorted(neighbors(focus))`` list.

    The neighbor-sampling attacks draw from the sorted adjacency of a
    *focus* node (the hub / the max-δ node) every round. The focus is
    sticky — funnelling degree onto it is the attack's whole point — and
    its adjacency changes only by the previous round's deletion and
    healing edges, all recorded on the :class:`~repro.core.network.HealEvent`.
    So instead of re-sorting O(deg · log deg) per round, the cache
    replays the last event's diff (O(log deg) searches + C-level list
    shifts) and falls back to a full sort whenever anything looks
    unusual: focus changed, not exactly one new single-deletion event
    since the last draw, the event's victim is not the one this
    adversary chose, or the final length disagrees with the live degree.
    The maintained list is always exactly ``sorted(neighbors(focus))``,
    so draws stay byte-identical to the sort-every-round versions.

    Degree-preserving out-of-band churn of the focus's adjacency (an
    edge added and another removed behind the adversary's back, with no
    intervening event) is undetectable until a trigger fires; the
    supported contract is the simulator's reset → choose → delete loop,
    where the replay is exact.
    """

    __slots__ = ("focus", "nbrs", "events_seen", "last_pick")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.focus: Node | None = None
        self.nbrs: list[Node] = []
        self.events_seen: int = -1
        self.last_pick: Node | None = None

    def sorted_neighbors(
        self, network: "SelfHealingNetwork", focus: Node
    ) -> list[Node]:
        g = network.graph
        events = network.events
        nbrs = self.nbrs
        if (
            focus == self.focus
            and len(events) == self.events_seen + 1
            and events
            and events[-1].deleted == self.last_pick
        ):
            event = events[-1]
            i = bisect_left(nbrs, event.deleted)
            if i < len(nbrs) and nbrs[i] == event.deleted:
                nbrs.pop(i)
            for a, b in event.new_edges:
                if a == focus:
                    other = b
                elif b == focus:
                    other = a
                else:
                    continue
                j = bisect_left(nbrs, other)
                if j >= len(nbrs) or nbrs[j] != other:
                    nbrs.insert(j, other)
            if len(nbrs) != g.degree(focus):
                nbrs = self.nbrs = sorted(g.neighbors_view(focus))
        else:
            nbrs = self.nbrs = sorted(g.neighbors_view(focus))
        self.focus = focus
        self.events_seen = len(events)
        return nbrs

    def picked(self, node: Node | None) -> None:
        """Record the target handed to the simulator (the resync guard
        compares it against the next event's victim)."""
        self.last_pick = node


class MaxNodeAttack(Adversary):
    """Delete the current maximum-degree node."""

    name: ClassVar[str] = "max-node"

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        return network.max_degree_node()


class NeighborOfMaxAttack(Adversary):
    """Delete a random neighbor of the current maximum-degree node (NMS).

    When the max-degree node is isolated (degree 0), it is deleted itself
    so the attack always makes progress.
    """

    name: ClassVar[str] = "neighbor-of-max"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng: random.Random = make_rng(seed)
        self._cache = _SortedNeighborCache()

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        self._cache.reset()

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        hub = network.max_degree_node()
        if hub is None:
            return None
        nbrs = self._cache.sorted_neighbors(network, hub)
        pick = self._rng.choice(nbrs) if nbrs else hub
        self._cache.picked(pick)
        return pick

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)
        # The neighbor cache is an exact-resync optimization: a cleared
        # cache re-sorts from the live graph on the next draw, which is
        # byte-identical to the warmed cache's incremental replay.
        self._cache.reset()


class RandomAttack(Adversary):
    """Delete a uniformly random surviving node (failure, not attack).

    One ``choice`` per round over the network's survivors in label
    order (:meth:`~repro.core.network.SelfHealingNetwork.survivors`,
    which every heal keeps exact, so a heal the adversary did not ask
    for leaves nothing stale). The only state is the RNG; the fused
    kernel (:mod:`repro.sim.fastpath`) draws from it the same way.
    """

    name: ClassVar[str] = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng: random.Random = make_rng(seed)

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        alive = network.survivors()
        return self._rng.choice(alive) if alive else None

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)


class MinDegreeAttack(Adversary):
    """Delete the current minimum-degree node (leaf-eating attack).

    Cheap for the healer (leaves need no reconnection edges); included as
    the benign extreme of the attack spectrum.
    """

    name: ClassVar[str] = "min-degree"

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        return network.min_degree_node()


class MaxDeltaNeighborAttack(Adversary):
    """Delete a random neighbor of the node with the largest δ.

    A healing-aware variant of NMS: instead of chasing raw degree it
    chases *degree increase*, concentrating further healing load on the
    node the healer is already struggling to protect.
    """

    name: ClassVar[str] = "neighbor-of-max-delta"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng: random.Random = make_rng(seed)
        self._cache = _SortedNeighborCache()

    def reset(self, network: "SelfHealingNetwork") -> None:
        super().reset(network)
        self._rng = make_rng(self._seed)
        self._cache.reset()

    def choose_target(self, network: "SelfHealingNetwork") -> Node | None:
        best = network.max_delta_node()
        if best is None:
            return None
        nbrs = self._cache.sorted_neighbors(network, best)
        pick = self._rng.choice(nbrs) if nbrs else best
        self._cache.picked(pick)
        return pick

    def export_state(self) -> dict:
        state = super().export_state()
        state["rng"] = rng_state_to_json(self._rng)
        return state

    def import_state(self, state: dict) -> None:
        super().import_state(state)
        rng_state_from_json(state["rng"], self._rng)
        self._cache.reset()
